package fabric

import (
	"testing"
	"testing/quick"
)

func TestArchCapacities(t *testing.T) {
	a := NewArch(4)
	if a.IOCapacity() != 64 {
		t.Errorf("4x4 I/O capacity = %d, want 64 (paper)", a.IOCapacity())
	}
	if a.LUTCapacity() != 64 {
		t.Errorf("4x4 LUT capacity = %d, want 64", a.LUTCapacity())
	}
	if a.CLBCount() != 16 {
		t.Errorf("CLBs = %d", a.CLBCount())
	}
	if a.Name() != "4x4" {
		t.Errorf("name = %s", a.Name())
	}
	if !a.FitsIO(64) || a.FitsIO(65) {
		t.Error("FitsIO boundary wrong")
	}
	if !a.FitsLUTs(64, 64) || a.FitsLUTs(65, 0) {
		t.Error("FitsLUTs boundary wrong")
	}
	b := NewArch(5)
	if b.IOCapacity() != 80 || b.LUTCapacity() != 100 {
		t.Errorf("5x5: io=%d luts=%d", b.IOCapacity(), b.LUTCapacity())
	}
}

func TestConfigBitsMonotonic(t *testing.T) {
	prev := 0
	for w := 2; w <= 16; w++ {
		bits := NewArch(w).ConfigBits()
		if bits <= prev {
			t.Errorf("ConfigBits(%d) = %d not greater than %d", w, bits, prev)
		}
		prev = bits
	}
}

func TestRRGraphStructure(t *testing.T) {
	a := NewArch(3)
	g := BuildRRGraph(a)
	// Node count: wires + pins + pads.
	wantWires := 2 * (a.W + 1) * a.W * a.ChannelWidth
	wantPins := a.CLBCount() * (a.BLEsPerCLB + a.CLBInputs)
	wantPads := a.IOTiles() * a.GPIOPerTile * 2
	if len(g.Nodes) != wantWires+wantPins+wantPads {
		t.Errorf("nodes = %d, want %d", len(g.Nodes), wantWires+wantPins+wantPads)
	}
	// Every IPin must have incoming edges; every OPin outgoing.
	for x := 0; x < a.W; x++ {
		for y := 0; y < a.W; y++ {
			for k := 0; k < a.CLBInputs; k++ {
				if len(g.In[g.IPin(x, y, k)]) == 0 {
					t.Fatalf("IPin(%d,%d,%d) unreachable", x, y, k)
				}
			}
			for k := 0; k < a.BLEsPerCLB; k++ {
				if len(g.WireOut(g.OPin(x, y, k))) == 0 {
					t.Fatalf("OPin(%d,%d,%d) drives nothing", x, y, k)
				}
			}
		}
	}
	// In and WireOut must be mutually consistent: every edge of In into
	// a wire appears exactly once in WireOut, each list ascends, and
	// WireOut holds no other edge.
	isWire := func(n int32) bool {
		k := g.Nodes[n].Kind
		return k == RRHWire || k == RRVWire
	}
	wireEdges := 0
	for to, ins := range g.In {
		if !isWire(int32(to)) {
			continue
		}
		for _, from := range ins {
			wireEdges++
			found := 0
			for _, o := range g.WireOut(from) {
				if int(o) == to {
					found++
				}
			}
			if found != 1 {
				t.Fatalf("edge %d->%d appears %d times in WireOut, want 1", from, to, found)
			}
		}
	}
	outEdges := 0
	for n := range g.Nodes {
		out := g.WireOut(int32(n))
		outEdges += len(out)
		for i, o := range out {
			if !isWire(o) {
				t.Fatalf("WireOut(%d) lists non-wire %s", n, g.Nodes[o])
			}
			if i > 0 && out[i-1] >= o {
				t.Fatalf("WireOut(%d) not ascending: %v", n, out)
			}
		}
	}
	if outEdges != wireEdges {
		t.Fatalf("WireOut holds %d edges, In has %d edges into wires", outEdges, wireEdges)
	}
}

// TestRRGraphIDs checks the arithmetic node numbering against the
// node table: every lookup returns a node of the right kind and
// coordinates, and the lookups cover every node exactly once.
func TestRRGraphIDs(t *testing.T) {
	for _, a := range []Arch{NewArch(2), NewArch(5), Params{LUTSize: 6, BLEsPerCLB: 2}.Normalized().At(3)} {
		g := BuildRRGraph(a)
		seen := make([]int, len(g.Nodes))
		check := func(id int32, want RRNode) {
			t.Helper()
			if id < 0 || int(id) >= len(g.Nodes) || g.Nodes[id] != want {
				t.Fatalf("%s: id %d for %s", a.Name(), id, want)
			}
			seen[id]++
		}
		for x := 0; x < a.W; x++ {
			for y := 0; y < a.W; y++ {
				for k := 0; k < a.BLEsPerCLB; k++ {
					check(g.OPin(x, y, k), RRNode{RROPin, x, y, k})
				}
				for k := 0; k < a.CLBInputs; k++ {
					check(g.IPin(x, y, k), RRNode{RRIPin, x, y, k})
				}
			}
		}
		for tile := 0; tile < a.IOTiles(); tile++ {
			for gp := 0; gp < a.GPIOPerTile; gp++ {
				check(g.IOIn(tile, gp), RRNode{RRIOIn, tile, 0, gp})
				check(g.IOOut(tile, gp), RRNode{RRIOOut, tile, 0, gp})
			}
		}
		for i := 0; i <= a.W; i++ {
			for j := 0; j < a.W; j++ {
				for tr := 0; tr < a.ChannelWidth; tr++ {
					check(g.hwire(j, i, tr), RRNode{RRHWire, j, i, tr})
					check(g.vwire(i, j, tr), RRNode{RRVWire, i, j, tr})
				}
			}
		}
		for id, c := range seen {
			if c != 1 {
				t.Fatalf("%s: node %s looked up %d times", a.Name(), g.Nodes[id], c)
			}
		}
	}
}

// reach walks the graph forward from src. Wire successors come from
// WireOut; pin and pad successors, which WireOut leaves out, come from
// In.
func reach(g *RRGraph, src int32) map[int32]bool {
	pinSucc := make(map[int32][]int32)
	for to, ins := range g.In {
		if k := g.Nodes[to].Kind; k == RRIPin || k == RRIOOut {
			for _, from := range ins {
				pinSucc[from] = append(pinSucc[from], int32(to))
			}
		}
	}
	seen := map[int32]bool{src: true}
	stack := []int32{src}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, succ := range [][]int32{g.WireOut(n), pinSucc[n]} {
			for _, nx := range succ {
				if !seen[nx] {
					seen[nx] = true
					stack = append(stack, nx)
				}
			}
		}
	}
	return seen
}

// Property: every OPin can reach every IPin of every other CLB through
// wires (full connectivity of the routing fabric).
func TestQuickRRGraphReachability(t *testing.T) {
	a := NewArch(3)
	g := BuildRRGraph(a)
	f := func(sx, sy, tx, ty uint8) bool {
		x1, y1 := int(sx)%a.W, int(sy)%a.W
		x2, y2 := int(tx)%a.W, int(ty)%a.W
		seen := reach(g, g.OPin(x1, y1, 0))
		return seen[g.IPin(x2, y2, 0)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPadReachability(t *testing.T) {
	a := NewArch(2)
	g := BuildRRGraph(a)
	// Pad-in reaches pad-out across the fabric.
	seen := reach(g, g.IOIn(0, 0))
	if !seen[g.IOOut(a.IOTiles()-1, a.GPIOPerTile-1)] {
		t.Error("pad-to-pad path missing")
	}
	// PadXY sides.
	if x, _ := g.PadXY(0); x != -1 {
		t.Errorf("left pad x = %d", x)
	}
	if x, _ := g.PadXY(a.W); x != a.W {
		t.Errorf("right pad x = %d", x)
	}
}

// TestParamsRoundTripFixedCW guards the channel-width policy round
// trip: a fixed family width that coincides with the derived value at
// some W must stay fixed through Arch.Params() (and keep its family
// name), while the derived policy maps back to 0.
func TestParamsRoundTripFixedCW(t *testing.T) {
	w := 2
	fixed := Params{ChannelWidth: DefaultChannelWidth(w)}.Normalized()
	a := fixed.At(w)
	if a.CWDerived {
		t.Fatal("fixed channel width marked derived")
	}
	if got := a.Params(); got != fixed {
		t.Errorf("fixed-CW round trip = %+v, want %+v", got, fixed)
	}
	if a.Params().Name() == DefaultParams().Name() {
		t.Errorf("fixed-CW family lost its W suffix: %s", a.Params().Name())
	}
	d := DefaultParams().At(w)
	if !d.CWDerived || d.Params() != DefaultParams() {
		t.Errorf("derived round trip = %+v", d.Params())
	}
	if d.FullName() != d.Name() {
		t.Errorf("default family FullName %q should stay plain", d.FullName())
	}
}
