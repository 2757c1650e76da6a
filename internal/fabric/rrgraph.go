package fabric

import "fmt"

// RRKind is a routing-resource node kind.
type RRKind uint8

// Routing-resource node kinds.
const (
	RRHWire RRKind = iota // horizontal wire segment
	RRVWire               // vertical wire segment
	RROPin                // CLB (BLE) output pin
	RRIPin                // CLB input pin
	RRIOIn                // pad driving into the fabric (source)
	RRIOOut               // pad driven by the fabric (sink)
)

func (k RRKind) String() string {
	switch k {
	case RRHWire:
		return "hwire"
	case RRVWire:
		return "vwire"
	case RROPin:
		return "opin"
	case RRIPin:
		return "ipin"
	case RRIOIn:
		return "ioin"
	case RRIOOut:
		return "ioout"
	}
	return "?"
}

// RRNode is one routing resource.
type RRNode struct {
	Kind RRKind
	X    int // CLB / channel column
	Y    int // CLB / channel row
	K    int // track, pin index, or GPIO index
}

func (n RRNode) String() string {
	return fmt.Sprintf("%s(%d,%d,%d)", n.Kind, n.X, n.Y, n.K)
}

// RRGraph is the fabric's routing-resource graph. Edges are directed;
// wire segments are modeled as bidirectionally connected node pairs.
//
// Node ids follow a fixed arithmetic layout: horizontal wires, then
// vertical wires, then the pins of each CLB (output pins before input
// pins), then the pads, so wires occupy the ids below every pin and
// pad.
type RRGraph struct {
	Arch  Arch
	Nodes []RRNode
	// In lists, per node, the nodes that can drive it (its mux inputs).
	// This orientation matches configuration: each node's selected
	// driver is one config choice.
	In [][]int32

	// wireOff and wireTo are the forward adjacency restricted to wire
	// targets, stored flat: node n drives the wires
	// wireTo[wireOff[n]:wireOff[n+1]], in ascending id order.
	wireOff []int32
	wireTo  []int32

	vBase, pinBase, padBase int32 // first vertical wire, CLB pin, pad
}

// BuildRRGraph constructs the routing-resource graph for an
// architecture: CLB pins, unit-length wire segments, disjoint
// (same-track) switch boxes with full turning, full connection blocks,
// and I/O tiles on the left (x=0) and right (x=W) fabric edges.
func BuildRRGraph(a Arch) *RRGraph {
	W, cw := a.W, a.ChannelWidth
	pins := a.BLEsPerCLB + a.CLBInputs
	nWire := (W + 1) * W * cw
	g := &RRGraph{
		Arch:    a,
		vBase:   int32(nWire),
		pinBase: int32(2 * nWire),
		padBase: int32(2*nWire + W*W*pins),
	}
	n := int(g.padBase) + 2*a.IOTiles()*a.GPIOPerTile
	// Nodes are laid out in the order the id functions below compute.
	g.Nodes = make([]RRNode, 0, n)
	for y := 0; y <= W; y++ {
		for x := 0; x < W; x++ {
			for t := 0; t < cw; t++ {
				g.Nodes = append(g.Nodes, RRNode{RRHWire, x, y, t})
			}
		}
	}
	for x := 0; x <= W; x++ {
		for y := 0; y < W; y++ {
			for t := 0; t < cw; t++ {
				g.Nodes = append(g.Nodes, RRNode{RRVWire, x, y, t})
			}
		}
	}
	for x := 0; x < W; x++ {
		for y := 0; y < W; y++ {
			for k := 0; k < a.BLEsPerCLB; k++ {
				g.Nodes = append(g.Nodes, RRNode{RROPin, x, y, k})
			}
			for k := 0; k < a.CLBInputs; k++ {
				g.Nodes = append(g.Nodes, RRNode{RRIPin, x, y, k})
			}
		}
	}
	// I/O pads: tile index 0..W-1 on the left edge, W..2W-1 on the right.
	for tile := 0; tile < a.IOTiles(); tile++ {
		for gp := 0; gp < a.GPIOPerTile; gp++ {
			g.Nodes = append(g.Nodes, RRNode{RRIOIn, tile, 0, gp}, RRNode{RRIOOut, tile, 0, gp})
		}
	}

	// In is filled in two passes over the same edge order, counting
	// then appending, so every node's driver list is a window of one
	// flat array.
	deg := make([]int32, n)
	edges := 0
	g.eachEdge(func(_, to int32) { deg[to]++; edges++ })
	flat := make([]int32, edges)
	g.In = make([][]int32, n)
	off := 0
	for id, d := range deg {
		g.In[id] = flat[off : off : off+int(d)]
		off += int(d)
	}
	g.eachEdge(func(from, to int32) { g.In[to] = append(g.In[to], from) })

	// Wire-target forward adjacency: visiting targets in ascending id
	// order appends each node's successors in that order.
	g.wireOff = make([]int32, n+1)
	for to := int32(0); to < g.pinBase; to++ {
		for _, from := range g.In[to] {
			g.wireOff[from+1]++
		}
	}
	for id := 0; id < n; id++ {
		g.wireOff[id+1] += g.wireOff[id]
	}
	g.wireTo = make([]int32, g.wireOff[n])
	next := deg // reuse: next free slot per source node
	copy(next, g.wireOff[:n])
	for to := int32(0); to < g.pinBase; to++ {
		for _, from := range g.In[to] {
			g.wireTo[next[from]] = to
			next[from]++
		}
	}
	return g
}

// eachEdge calls edge(from, to) for every edge of the graph, always in
// the same order: that order fixes each node's mux-input numbering and
// so the bitstream layout.
func (g *RRGraph) eachEdge(edge func(from, to int32)) {
	a := g.Arch
	W, cw := a.W, a.ChannelWidth
	// Switch boxes: at corner (x,y), same-track wires in all four
	// directions are mutually connected.
	var near [4]int32
	for x := 0; x <= W; x++ {
		for y := 0; y <= W; y++ {
			for t := 0; t < cw; t++ {
				k := 0
				if x > 0 {
					near[k] = g.hwire(x-1, y, t)
					k++
				}
				if x < W {
					near[k] = g.hwire(x, y, t)
					k++
				}
				if y > 0 {
					near[k] = g.vwire(x, y-1, t)
					k++
				}
				if y < W {
					near[k] = g.vwire(x, y, t)
					k++
				}
				for _, a1 := range near[:k] {
					for _, b1 := range near[:k] {
						if a1 != b1 {
							edge(a1, b1)
						}
					}
				}
			}
		}
	}
	// Connection blocks: OPins drive all tracks of the four adjacent
	// channels; all tracks of those channels can drive each IPin.
	wires := make([]int32, 0, 4*cw)
	for x := 0; x < W; x++ {
		for y := 0; y < W; y++ {
			wires = wires[:0]
			for t := 0; t < cw; t++ {
				wires = append(wires,
					g.hwire(x, y, t),   // channel below
					g.hwire(x, y+1, t), // channel above
					g.vwire(x, y, t),   // channel left
					g.vwire(x+1, y, t)) // channel right
			}
			for k := 0; k < a.BLEsPerCLB; k++ {
				op := g.OPin(x, y, k)
				for _, w := range wires {
					edge(op, w)
				}
			}
			for k := 0; k < a.CLBInputs; k++ {
				ip := g.IPin(x, y, k)
				for _, w := range wires {
					edge(w, ip)
				}
			}
		}
	}
	// I/O tiles: left tiles touch vertical channel x=0 at row y=tile,
	// right tiles touch channel x=W.
	for tile := 0; tile < a.IOTiles(); tile++ {
		chanX, row := 0, tile
		if tile >= W {
			chanX, row = W, tile-W
		}
		for gp := 0; gp < a.GPIOPerTile; gp++ {
			in, out := g.IOIn(tile, gp), g.IOOut(tile, gp)
			for t := 0; t < cw; t++ {
				w := g.vwire(chanX, row, t)
				edge(in, w)
				edge(w, out)
			}
		}
	}
}

// WireOut returns the wires node n drives, in ascending id order. Edges
// into pins and pads are left out: a search reaches those only as its
// target, through In.
func (g *RRGraph) WireOut(n int32) []int32 { return g.wireTo[g.wireOff[n]:g.wireOff[n+1]] }

// hwire returns horizontal wire segment (x, y), track t.
func (g *RRGraph) hwire(x, y, t int) int32 {
	return int32((y*g.Arch.W+x)*g.Arch.ChannelWidth + t)
}

// vwire returns vertical wire segment (x, y), track t.
func (g *RRGraph) vwire(x, y, t int) int32 {
	return g.vBase + int32((x*g.Arch.W+y)*g.Arch.ChannelWidth+t)
}

// clbPin returns pin i of the CLB at (x, y): output pins first, then
// input pins.
func (g *RRGraph) clbPin(x, y, i int) int32 {
	a := g.Arch
	return g.pinBase + int32((x*a.W+y)*(a.BLEsPerCLB+a.CLBInputs)+i)
}

// OPin returns the output-pin node of BLE k in the CLB at (x, y).
func (g *RRGraph) OPin(x, y, k int) int32 { return g.clbPin(x, y, k) }

// IPin returns input-pin node k of the CLB at (x, y).
func (g *RRGraph) IPin(x, y, k int) int32 { return g.clbPin(x, y, g.Arch.BLEsPerCLB+k) }

// IOIn returns the fabric-driving pad node of a GPIO.
func (g *RRGraph) IOIn(tile, gpio int) int32 {
	return g.padBase + int32(2*(tile*g.Arch.GPIOPerTile+gpio))
}

// IOOut returns the fabric-driven pad node of a GPIO.
func (g *RRGraph) IOOut(tile, gpio int) int32 { return g.IOIn(tile, gpio) + 1 }

// PadXY returns grid coordinates of an I/O tile for wirelength
// estimates: left tiles at x=-1, right tiles at x=W.
func (g *RRGraph) PadXY(tile int) (int, int) {
	if tile < g.Arch.W {
		return -1, tile
	}
	return g.Arch.W, tile - g.Arch.W
}
