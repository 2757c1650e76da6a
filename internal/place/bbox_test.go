package place

import (
	"math/rand"
	"testing"
)

// exactBox computes a net's box and edge counts from scratch, without
// span.add, as the reference for the incremental rule.
func exactBox(blocks []int32, pos []XY) bbox {
	axis := func(coord func(XY) int) span {
		s := span{lo: 1 << 30, hi: -1 << 30}
		for _, bl := range blocks {
			s.lo, s.hi = min(s.lo, int32(coord(pos[bl]))), max(s.hi, int32(coord(pos[bl])))
		}
		for _, bl := range blocks {
			if int32(coord(pos[bl])) == s.lo {
				s.nLo++
			}
			if int32(coord(pos[bl])) == s.hi {
				s.nHi++
			}
		}
		return s
	}
	return bbox{
		x: axis(func(p XY) int { return p.X }),
		y: axis(func(p XY) int { return p.Y }),
	}
}

// TestBBoxMoveMatchesRescan drives the placer's box rule through random
// single moves and two-block swaps and checks, after every move, that
// the extents and the four edge counts equal a from-scratch rescan.
// Members form multisets: a block may appear twice in a net (a CLB
// driving its own input), distinct blocks share positions, boxes
// collapse to a line or a point, and positions span the pad columns -1
// and W.
func TestBBoxMoveMatchesRescan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rescans := 0
	for trial := 0; trial < 300; trial++ {
		w := 1 + r.Intn(4)
		randXY := func() XY { return XY{r.Intn(w+2) - 1, r.Intn(w+2) - 1} }
		nBlocks := 1 + r.Intn(6)
		pos := make([]XY, nBlocks)
		for i := range pos {
			pos[i] = randXY()
			if i > 0 && r.Intn(3) == 0 {
				pos[i] = pos[r.Intn(i)] // share a position
			}
		}
		var n pnet
		for len(n.blocks) < 2 || r.Intn(3) > 0 {
			n.blocks = append(n.blocks, int32(r.Intn(nBlocks)))
		}
		n.rescan(pos)
		if n.box != exactBox(n.blocks, pos) {
			t.Fatalf("trial %d: initial rescan %+v, want %+v", trial, n.box, exactBox(n.blocks, pos))
		}
		for step := 0; step < 40; step++ {
			var moved []int32
			var from []XY
			a := int32(r.Intn(nBlocks))
			if b := int32(r.Intn(nBlocks)); b != a && r.Intn(2) == 0 {
				moved, from = []int32{a, b}, []XY{pos[a], pos[b]}
				pos[a], pos[b] = pos[b], pos[a]
			} else {
				moved, from = []int32{a}, []XY{pos[a]}
				pos[a] = randXY()
			}
			// As in the placer: every membership of every moved block
			// is applied, in order, against post-move positions.
			n.rescanned = false
			for i, bl := range moved {
				for _, m := range n.blocks {
					if m == bl {
						n.moveMember(pos, from[i], pos[bl])
					}
				}
			}
			if n.rescanned {
				rescans++
			}
			if want := exactBox(n.blocks, pos); n.box != want {
				t.Fatalf("trial %d step %d: moved %v from %v, members %v at %v: box %+v, want %+v",
					trial, step, moved, from, n.blocks, pos, n.box, want)
			}
		}
	}
	if rescans == 0 {
		t.Fatal("no move needed a rescan; the test does not reach that branch")
	}
}
