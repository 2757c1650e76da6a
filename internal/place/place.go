// Package place assigns packed CLBs to grid locations and primary I/Os
// to GPIO pads using simulated annealing over half-perimeter wirelength,
// in the style of VPR's placer.
//
// The annealer is written for speed: movable blocks are dense integer
// ids with positions in a flat slice, per-block net membership is
// precomputed into slices, occupancy lives in flat grids instead of
// maps, and wirelength is delta-evaluated per move with incrementally
// maintained net bounding boxes (boundary-population counts; a full
// net rescan happens only when the last block on an edge moves
// inward). Rejected moves restore the cached pre-move costs instead of
// recomputing.
package place

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"alice/internal/pack"
	"alice/internal/techmap"
)

// XY is a grid coordinate.
type XY struct{ X, Y int }

// Pad identifies a GPIO position: tile index (0..2W-1) and pin.
type Pad struct{ Tile, Pin int }

// PadGridXY returns the grid coordinates of a GPIO pad on a fabric of
// width w for wirelength and timing estimates: left tiles sit at x=-1,
// right tiles at x=w (mirroring fabric.RRGraph.PadXY). Shared by the
// annealer's cost model and the timing estimator, so the two can never
// disagree on pad geometry.
func PadGridXY(w int, pd Pad) XY {
	if pd.Tile < w {
		return XY{-1, pd.Tile}
	}
	return XY{w, pd.Tile - w}
}

// Placement maps packing results onto the fabric.
type Placement struct {
	Pack   *pack.Packing
	CLBPos []XY          // per CLB index
	PIPad  map[int32]Pad // LUT-network PI node -> pad
	POPad  []Pad         // per PO index
	// Cost is the final annealing cost: pure HPWL in the default mode,
	// HPWL plus the scaled timing term in timing-driven mode.
	Cost float64
}

// TimingCost enables the timing-driven cost term: on top of HPWL, the
// annealer minimizes the criticality-weighted Manhattan length of every
// external connection, so timing-critical connections are drawn short
// at the expense of slack-rich ones.
type TimingCost struct {
	// Crit maps (driver LUT-network node, dense sink block id) to the
	// connection's criticality in [0,1], as produced by
	// timing.Analysis.PlaceCrit. The dense block ids are the placer's
	// own convention: CLB indices, then PIs (by index in Net.PIs), then
	// POs (by index in Net.POs).
	Crit map[[2]int32]float32
	// Tradeoff is the fraction of the initial total cost carried by the
	// timing term (VPR-style normalization); 0.5 balances the two.
	// Values are clamped to [0, 0.95].
	Tradeoff float64
}

// Options tunes a placement run beyond the packing itself. The zero
// value reproduces the default wirelength-driven annealer bit for bit.
type Options struct {
	Timing *TimingCost
}

// Movable blocks are dense ids: CLBs first, then PIs (by index in
// p.Net.PIs), then POs (by index in p.Net.POs).

// bbox is a net's bounding box with boundary-population counts: how
// many member blocks sit exactly on each edge. A move updates the box
// in O(1) unless the last block on an edge moves inward, which
// triggers a rescan of the net's members.
type bbox struct{ x, y span }

// span is one axis of a bounding box: the extent [lo, hi] and the
// number of members on each end.
type span struct{ lo, hi, nLo, nHi int32 }

func (b *bbox) cost() float64 {
	return float64(b.x.hi-b.x.lo) + float64(b.y.hi-b.y.lo)
}

func (s *span) add(v int32) {
	if v < s.lo {
		s.lo, s.nLo = v, 1
	} else if v == s.lo {
		s.nLo++
	}
	if v > s.hi {
		s.hi, s.nHi = v, 1
	} else if v == s.hi {
		s.nHi++
	}
}

// stale reports whether moving a member from o to n takes the last
// member off an end inward. The new end is then unknown: only a rescan
// finds it.
func (s *span) stale(o, n int32) bool {
	return (o == s.lo && s.nLo == 1 && n > o) || (o == s.hi && s.nHi == 1 && n < o)
}

// move relocates one member from o to n in O(1), for a move that is
// not stale.
func (s *span) move(o, n int32) {
	if o == s.lo {
		s.nLo--
	}
	if o == s.hi {
		s.nHi--
	}
	s.add(n)
}

// pnet is one placement net: the blocks it spans plus cached cost and
// bounding box, with a revert snapshot for rejected moves. blocks[0] is
// the driver. In timing mode crits (aligned with blocks) carries the
// per-connection criticalities and tcost the cached timing term.
type pnet struct {
	blocks []int32
	cost   float64
	box    bbox
	crits  []float32
	tcost  float64

	stamp     uint32 // move epoch this net was last touched in
	rescanned bool   // box fully recomputed this epoch; skip further deltas
	savedCost float64
	savedBox  bbox
	savedT    float64
	tFull     bool    // this epoch moved the driver: recompute tcost fully
	tDelta    float64 // accumulated O(1) sink-move timing deltas this epoch
}

// timingCost is the net's criticality-weighted total Manhattan length
// from the driver to every sink.
func (n *pnet) timingCost(pos []XY) float64 {
	d := pos[n.blocks[0]]
	t := 0.0
	for i, b := range n.blocks {
		if c := n.crits[i]; c > 0 {
			xy := pos[b]
			t += float64(c) * float64(iabs(xy.X-d.X)+iabs(xy.Y-d.Y))
		}
	}
	return t
}

func iabs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (n *pnet) rescan(pos []XY) {
	first := pos[n.blocks[0]]
	b := bbox{
		x: span{lo: int32(first.X), hi: int32(first.X), nLo: 1, nHi: 1},
		y: span{lo: int32(first.Y), hi: int32(first.Y), nLo: 1, nHi: 1},
	}
	for _, bl := range n.blocks[1:] {
		b.x.add(int32(pos[bl].X))
		b.y.add(int32(pos[bl].Y))
	}
	n.box = b
}

// moveMember updates the box for one member moving from one position
// to another. pos holds the post-move positions of every member, so a
// rescan also accounts for members that move later in the same epoch;
// their updates are then skipped.
func (n *pnet) moveMember(pos []XY, from, to XY) {
	if n.rescanned || from == to {
		return
	}
	fx, fy, tx, ty := int32(from.X), int32(from.Y), int32(to.X), int32(to.Y)
	if n.box.x.stale(fx, tx) || n.box.y.stale(fy, ty) {
		n.rescan(pos)
		n.rescanned = true
		return
	}
	n.box.x.move(fx, tx)
	n.box.y.move(fy, ty)
}

// Place runs simulated annealing and returns a legal placement. The
// annealer checks ctx between temperature steps and aborts with the
// context's error when it is cancelled or past its deadline.
func Place(ctx context.Context, p *pack.Packing, seed int64) (*Placement, error) {
	return PlaceOpts(ctx, p, seed, Options{})
}

// PlaceOpts is Place with options; the zero Options value is exactly
// Place (same moves, same acceptances, same result).
func PlaceOpts(ctx context.Context, p *pack.Packing, seed int64, o Options) (*Placement, error) {
	arch := p.Arch
	W := arch.W
	r := rand.New(rand.NewSource(seed))
	nCLB := len(p.CLBs)
	nPI := len(p.Net.PIs)
	nPO := len(p.Net.POs)
	nIO := nPI + nPO
	if nIO > arch.IOCapacity() {
		return nil, fmt.Errorf("place: %d I/Os exceed capacity %d of %s", nIO, arch.IOCapacity(), arch.Name())
	}
	if nCLB > arch.CLBCount() {
		return nil, fmt.Errorf("place: %d CLBs exceed %s", nCLB, arch.Name())
	}
	pl := &Placement{Pack: p, PIPad: make(map[int32]Pad, nPI)}

	nBlocks := nCLB + nIO
	pos := make([]XY, nBlocks)
	padXY := func(pd Pad) XY { return PadGridXY(W, pd) }

	// Initial CLB placement: row major.
	slotOwner := make([]int32, W*W) // slot y*W+x -> CLB block id or -1
	for i := range slotOwner {
		slotOwner[i] = -1
	}
	for i := 0; i < nCLB; i++ {
		xy := XY{i % W, i / W}
		pos[i] = xy
		slotOwner[xy.Y*W+xy.X] = int32(i)
	}
	// Initial pad assignment: sequential. Pad blocks track their pad in
	// padOf; padOwner is the inverse occupancy grid.
	padOf := make([]Pad, nBlocks) // valid for IO block ids only
	padOwner := make([]int32, arch.IOTiles()*arch.GPIOPerTile)
	for i := range padOwner {
		padOwner[i] = -1
	}
	padIdx := func(pd Pad) int { return pd.Tile*arch.GPIOPerTile + pd.Pin }
	nextPad := 0
	takePad := func(b int32) {
		pd := Pad{nextPad / arch.GPIOPerTile, nextPad % arch.GPIOPerTile}
		nextPad++
		padOf[b] = pd
		padOwner[padIdx(pd)] = b
		pos[b] = padXY(pd)
	}
	for j := 0; j < nPI; j++ {
		takePad(int32(nCLB + j))
	}
	for k := 0; k < nPO; k++ {
		takePad(int32(nCLB + nPI + k))
	}

	sync := func(total float64) {
		pl.CLBPos = make([]XY, nCLB)
		for i := 0; i < nCLB; i++ {
			pl.CLBPos[i] = pos[i]
		}
		for j, pi := range p.Net.PIs {
			pl.PIPad[pi] = padOf[nCLB+j]
		}
		pl.POPad = make([]Pad, nPO)
		for k := 0; k < nPO; k++ {
			pl.POPad[k] = padOf[nCLB+nPI+k]
		}
		pl.Cost = total
	}

	nets := buildNets(p, o.Timing)
	total := 0.0
	for i := range nets {
		nets[i].rescan(pos)
		nets[i].cost = nets[i].box.cost()
		total += nets[i].cost
	}

	// Timing term: normalized so it initially carries the Tradeoff
	// fraction of the total cost, then annealed jointly with HPWL.
	tscale := 0.0
	if o.Timing != nil {
		t0 := 0.0
		for i := range nets {
			nets[i].tcost = nets[i].timingCost(pos)
			t0 += nets[i].tcost
		}
		lam := o.Timing.Tradeoff
		if lam > 0.95 {
			lam = 0.95
		}
		if t0 > 0 && lam > 0 {
			tscale = lam / (1 - lam) * total / t0
			total += tscale * t0
		}
	}

	// Index: block id -> nets it belongs to, as flat slices.
	counts := make([]int32, nBlocks)
	for ni := range nets {
		for _, b := range nets[ni].blocks {
			counts[b]++
		}
	}
	netsOf := make([][]int32, nBlocks)
	flat := make([]int32, 0, sum(counts))
	for b := range netsOf {
		netsOf[b] = flat[len(flat) : len(flat) : len(flat)+int(counts[b])]
		flat = flat[:len(flat)+int(counts[b])]
	}
	for ni := range nets {
		for _, b := range nets[ni].blocks {
			netsOf[b] = append(netsOf[b], int32(ni))
		}
	}
	// critOf mirrors netsOf entry for entry with the block's criticality
	// in that net, so a sink move prices its timing delta in O(1)
	// without searching the net's member list.
	var critOf [][]float32
	if o.Timing != nil {
		critOf = make([][]float32, nBlocks)
		for b := range critOf {
			critOf[b] = make([]float32, 0, len(netsOf[b]))
		}
		for ni := range nets {
			for idx, b := range nets[ni].blocks {
				critOf[b] = append(critOf[b], nets[ni].crits[idx])
			}
		}
	}

	// Per-move scratch: touched nets of the current epoch.
	var epoch uint32
	touched := make([]int32, 0, 64)
	moved := make([]int32, 0, 2)
	oldXYs := make([]XY, 0, 2)

	// deltaFor applies the bounding-box updates for the already-moved
	// blocks (pos must hold post-move positions; oldXYs the pre-move
	// ones) and returns the total cost delta, caching pre-move state for
	// revert.
	deltaFor := func() float64 {
		epoch++
		touched = touched[:0]
		for mi, b := range moved {
			oldXY := oldXYs[mi]
			newXY := pos[b]
			for j, ni := range netsOf[b] {
				nt := &nets[ni]
				if nt.stamp != epoch {
					nt.stamp = epoch
					nt.rescanned = false
					nt.savedCost = nt.cost
					nt.savedBox = nt.box
					nt.savedT = nt.tcost
					nt.tFull = false
					nt.tDelta = 0
					touched = append(touched, ni)
				}
				// Timing term, incremental like the bounding box: a moved
				// sink contributes an O(1) distance delta against the
				// (unmoved) driver; a moved driver forces a full net
				// recompute (which also subsumes any stale sink deltas
				// from earlier in this epoch).
				if tscale > 0 && oldXY != newXY {
					if nt.blocks[0] == b {
						nt.tFull = true
					} else if !nt.tFull {
						if c := critOf[b][j]; c > 0 {
							d := pos[nt.blocks[0]]
							nt.tDelta += float64(c) * float64(
								iabs(newXY.X-d.X)+iabs(newXY.Y-d.Y)-
									iabs(oldXY.X-d.X)-iabs(oldXY.Y-d.Y))
						}
					}
				}
				nt.moveMember(pos, oldXY, newXY)
			}
		}
		delta := 0.0
		for _, ni := range touched {
			nt := &nets[ni]
			nc := nt.box.cost()
			delta += nc - nt.cost
			nt.cost = nc
			if tscale > 0 {
				if nt.tFull {
					tc := nt.timingCost(pos)
					delta += tscale * (tc - nt.tcost)
					nt.tcost = tc
				} else if nt.tDelta != 0 {
					delta += tscale * nt.tDelta
					nt.tcost += nt.tDelta
				}
			}
		}
		return delta
	}
	revertNets := func() {
		for _, ni := range touched {
			nets[ni].cost = nets[ni].savedCost
			nets[ni].box = nets[ni].savedBox
			nets[ni].tcost = nets[ni].savedT
		}
	}

	// Annealing.
	if nBlocks == 0 {
		sync(total)
		return pl, nil
	}
	movesPerT := 12 * nBlocks
	temp := math.Max(1.0, total/float64(len(nets)+1)*2)
	for ; temp > 0.005; temp *= 0.85 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for m := 0; m < movesPerT; m++ {
			if nCLB > 0 && (nIO == 0 || r.Intn(10) < 7) {
				// CLB move: random CLB to random slot.
				ci := int32(r.Intn(nCLB))
				dst := XY{r.Intn(W), r.Intn(W)}
				src := pos[ci]
				if dst == src {
					continue
				}
				other := slotOwner[dst.Y*W+dst.X]
				pos[ci] = dst
				slotOwner[dst.Y*W+dst.X] = ci
				moved, oldXYs = moved[:0], oldXYs[:0]
				moved, oldXYs = append(moved, ci), append(oldXYs, src)
				if other >= 0 {
					pos[other] = src
					slotOwner[src.Y*W+src.X] = other
					moved, oldXYs = append(moved, other), append(oldXYs, dst)
				} else {
					slotOwner[src.Y*W+src.X] = -1
				}
				delta := deltaFor()
				if delta > 0 && r.Float64() >= math.Exp(-delta/temp) {
					// Reject: restore cached costs and occupancy.
					revertNets()
					pos[ci] = src
					slotOwner[src.Y*W+src.X] = ci
					if other >= 0 {
						pos[other] = dst
						slotOwner[dst.Y*W+dst.X] = other
					} else {
						slotOwner[dst.Y*W+dst.X] = -1
					}
				} else {
					total += delta
				}
			} else if nIO > 0 {
				// Pad move.
				var b int32
				if nPI > 0 && (nPO == 0 || r.Intn(2) == 0) {
					b = int32(nCLB + r.Intn(nPI))
				} else if nPO > 0 {
					b = int32(nCLB + nPI + r.Intn(nPO))
				} else {
					continue
				}
				dst := Pad{r.Intn(arch.IOTiles()), r.Intn(arch.GPIOPerTile)}
				src := padOf[b]
				if dst == src {
					continue
				}
				other := padOwner[padIdx(dst)]
				srcXY, dstXY := pos[b], padXY(dst)
				padOf[b] = dst
				padOwner[padIdx(dst)] = b
				pos[b] = dstXY
				moved, oldXYs = moved[:0], oldXYs[:0]
				moved, oldXYs = append(moved, b), append(oldXYs, srcXY)
				if other >= 0 {
					padOf[other] = src
					padOwner[padIdx(src)] = other
					pos[other] = srcXY
					moved, oldXYs = append(moved, other), append(oldXYs, dstXY)
				} else {
					padOwner[padIdx(src)] = -1
				}
				delta := deltaFor()
				if delta > 0 && r.Float64() >= math.Exp(-delta/temp) {
					revertNets()
					padOf[b] = src
					padOwner[padIdx(src)] = b
					pos[b] = srcXY
					if other >= 0 {
						padOf[other] = dst
						padOwner[padIdx(dst)] = other
						pos[other] = dstXY
					} else {
						padOwner[padIdx(dst)] = -1
					}
				} else {
					total += delta
				}
			}
		}
	}
	sync(total)
	return pl, nil
}

func sum(xs []int32) int {
	s := 0
	for _, x := range xs {
		s += int(x)
	}
	return s
}

// buildNets derives placement nets: every driver (PI or BLE output) and
// the CLBs/pads it reaches, in deterministic (discovery) order. When tc
// is non-nil every net carries the per-sink criticalities looked up
// under (driver node, sink block).
func buildNets(p *pack.Packing, tc *TimingCost) []pnet {
	ln := p.Net
	nCLB := len(p.CLBs)
	nPI := len(ln.PIs)
	piIdx := make(map[int32]int32, nPI)
	for j, pi := range ln.PIs {
		piIdx[pi] = int32(j)
	}
	// Gather sinks per driver in deterministic scan order.
	sinks := make(map[int32][]int32) // driver node id -> sink block ids
	var drivers []int32              // in discovery order
	addConn := func(driver int32, sink int32) {
		k := ln.Nodes[driver].Kind
		if k == techmap.LConst0 || k == techmap.LConst1 {
			return
		}
		if _, ok := sinks[driver]; !ok {
			drivers = append(drivers, driver)
		}
		sinks[driver] = append(sinks[driver], sink)
	}
	for ci := range p.CLBs {
		for _, in := range p.CLBs[ci].Inputs {
			addConn(in, int32(ci))
		}
	}
	for i, po := range ln.POs {
		addConn(po, int32(nCLB+nPI+i))
	}
	var nets []pnet
	seen := make(map[int32]bool)
	for _, driver := range drivers {
		var blocks []int32
		// Driver block.
		if loc, ok := p.Loc[driver]; ok {
			blocks = append(blocks, int32(loc[0]))
		} else if ln.Nodes[driver].Kind == techmap.LInput {
			blocks = append(blocks, int32(nCLB)+piIdx[driver])
		}
		for _, s := range sinks[driver] {
			if !seen[s] {
				seen[s] = true
				blocks = append(blocks, s)
			}
		}
		for _, b := range blocks {
			delete(seen, b)
		}
		if len(blocks) >= 2 {
			nt := pnet{blocks: blocks}
			if tc != nil {
				nt.crits = make([]float32, len(blocks))
				for i, b := range blocks[1:] {
					nt.crits[i+1] = tc.Crit[[2]int32{driver, b}]
				}
			}
			nets = append(nets, nt)
		}
	}
	return nets
}
