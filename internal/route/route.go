// Package route implements PathFinder negotiated-congestion routing over
// the fabric's routing-resource graph, connecting placed CLB pins and
// GPIO pads. Each routed connection determines the selection of one or
// more programmable muxes, which later becomes part of the bitstream.
//
// The router is written for speed: all per-node search state lives in
// flat arrays indexed by RR-node id and is invalidated by generation
// counters instead of clearing, the priority queue is a pooled typed
// binary heap, Dijkstra expands only through wires
// (fabric.RRGraph.WireOut) and reaches the sink from its stamped
// drivers, expansion is pruned by a per-net bounding box (with
// escape-hatch widening when a net cannot route inside it), and after
// the first PathFinder iteration only nets touching congested nodes
// are ripped up and rerouted.
package route

import (
	"context"
	"fmt"
	"sort"

	"alice/internal/fabric"
	"alice/internal/place"
	"alice/internal/techmap"
)

// Net is one source with its sinks in RR-node space.
type Net struct {
	Driver int32 // LUT-network node (PI or BLE output)
	Source int32 // RR node (OPin or IOIn)
	Sinks  []int32
	Tree   []int32 // RR nodes used by the routed net (excluding source)
}

// Result is a complete routing.
type Result struct {
	G    *fabric.RRGraph
	Nets []Net
	// Prev maps every used RR node to the RR node driving it (the mux
	// selection); sources map to -1.
	Prev []int32
	// Iterations is how many PathFinder passes were needed.
	Iterations int
}

// bbMargin is the slack added around a net's terminal bounding box
// before Dijkstra expansion is pruned to it. Congestion negotiation
// needs room for detours, so the box is generous; a net that still
// fails inside its box is retried unpruned.
const bbMargin = 3

// TimingCost enables criticality-weighted routing: each connection's
// node cost blends congestion and delay by its criticality, so critical
// connections take the fastest path while slack-rich ones absorb the
// detours congestion negotiation demands (the classic timing-driven
// PathFinder blend).
type TimingCost struct {
	// Crit maps (net driver node, sink RR node) to the connection's
	// criticality in [0,1], as produced by timing.Analysis.RouteCrit.
	Crit map[[2]int32]float32
	// NodeDelay is the per-RR-node delay (ns) from
	// fabric.RRGraph.NodeDelays.
	NodeDelay []float32
	// DelayScale converts ns to cost units comparable with the base
	// congestion cost of 1 per node (typically 1/WireDelay).
	DelayScale float32
}

// Options tunes a routing run. The zero value reproduces the default
// congestion-only router bit for bit.
type Options struct {
	Timing *TimingCost
}

// router holds all search state, allocated once per Route call and
// reused across every net and negotiation iteration.
type router struct {
	g       *fabric.RRGraph
	occ     []int16   // per node: nets currently using it
	hist    []float32 // per node: historical congestion cost
	prev    []int32   // per node: driving node in the final routing
	dist    []float32 // per node: tentative cost (valid if gen matches)
	from    []int32   // per node: Dijkstra predecessor (valid if gen matches)
	gen     []uint32  // per node: generation stamp for dist/from
	drives  []uint32  // per node: stamped with curGen if it drives the target
	curGen  uint32    // current Dijkstra generation
	inTree  []uint32  // per node: stamp marking current net's tree
	treeGen uint32    // current net-tree generation
	heap    rtHeap
	xs, ys  []int16 // per node: grid coordinates for bounding-box pruning
	path    []int32 // scratch for path reconstruction
	tc      *TimingCost
}

func newRouter(g *fabric.RRGraph) *router {
	n := len(g.Nodes)
	r := &router{
		g:      g,
		occ:    make([]int16, n),
		hist:   make([]float32, n),
		prev:   make([]int32, n),
		dist:   make([]float32, n),
		from:   make([]int32, n),
		gen:    make([]uint32, n),
		drives: make([]uint32, n),
		inTree: make([]uint32, n),
		xs:     make([]int16, n),
		ys:     make([]int16, n),
	}
	for i := range r.prev {
		r.prev[i] = -1
	}
	for i, nd := range g.Nodes {
		x, y := nd.X, nd.Y
		if nd.Kind == fabric.RRIOIn || nd.Kind == fabric.RRIOOut {
			x, y = g.PadXY(nd.X)
		}
		r.xs[i], r.ys[i] = int16(x), int16(y)
	}
	return r
}

// Route connects all placement-derived nets. It fails after maxIter
// negotiation rounds with congestion remaining. The negotiation loop
// checks ctx between nets and aborts with the context's error when it
// is cancelled or past its deadline.
func Route(ctx context.Context, pl *place.Placement, g *fabric.RRGraph, maxIter int) (*Result, error) {
	return RouteOpts(ctx, pl, g, maxIter, Options{})
}

// RouteOpts is Route with options; the zero Options value is exactly
// Route (same expansions, same trees).
func RouteOpts(ctx context.Context, pl *place.Placement, g *fabric.RRGraph, maxIter int, o Options) (*Result, error) {
	nets := buildNets(pl, g)
	rt := newRouter(g)
	rt.tc = o.Timing

	// Route larger-fanout nets first.
	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(nets[order[a]].Sinks) > len(nets[order[b]].Sinks)
	})

	presFac := float32(0.6)
	routed := make([][]int32, len(nets)) // per net: used nodes
	dirty := make([]bool, len(nets))     // per net: must be (re)routed
	for i := range dirty {
		dirty[i] = true
	}
	for iter := 1; iter <= maxIter; iter++ {
		// Rip up every dirty net before rerouting any, so a stale tree's
		// teardown can never clear the Prev entry of a node another net
		// (re)claimed earlier in the same pass.
		for _, ni := range order {
			if !dirty[ni] {
				continue
			}
			for _, nd := range routed[ni] {
				rt.occ[nd]--
				rt.prev[nd] = -1
			}
			routed[ni] = routed[ni][:0]
		}
		for _, ni := range order {
			if !dirty[ni] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nt := &nets[ni]
			tree, err := rt.routeNet(nt, routed[ni], presFac)
			if err != nil {
				return nil, err
			}
			for _, nd := range tree {
				rt.occ[nd]++
			}
			routed[ni] = tree
			nt.Tree = tree
			dirty[ni] = false
		}
		// Check congestion; accumulate history on congested nodes.
		congested := false
		for i := range rt.occ {
			if rt.occ[i] > 1 {
				congested = true
				rt.hist[i] += float32(rt.occ[i] - 1)
			}
		}
		if !congested {
			return &Result{G: g, Nets: nets, Prev: rt.prev, Iterations: iter}, nil
		}
		// Incremental PathFinder: only nets whose tree touches a
		// congested node are ripped up and rerouted next round.
		for ni := range nets {
			for _, nd := range routed[ni] {
				if rt.occ[nd] > 1 {
					dirty[ni] = true
					break
				}
			}
		}
		presFac *= 1.6
	}
	return nil, fmt.Errorf("route: congestion unresolved after %d iterations on %s", maxIter, g.Arch.Name())
}

// routeNet grows a routing tree from the net source to every sink using
// Dijkstra over congestion-weighted costs. The returned tree (excluding
// the source) reuses the capacity of buf; rt.prev is updated for every
// tree node.
func (rt *router) routeNet(nt *Net, buf []int32, presFac float32) ([]int32, error) {
	rt.treeGen++
	rt.inTree[nt.Source] = rt.treeGen
	rt.prev[nt.Source] = -1
	used := buf

	// Terminal bounding box, widened by bbMargin.
	minX, maxX := rt.xs[nt.Source], rt.xs[nt.Source]
	minY, maxY := rt.ys[nt.Source], rt.ys[nt.Source]
	for _, sink := range nt.Sinks {
		if x := rt.xs[sink]; x < minX {
			minX = x
		} else if x > maxX {
			maxX = x
		}
		if y := rt.ys[sink]; y < minY {
			minY = y
		} else if y > maxY {
			maxY = y
		}
	}
	minX, maxX = minX-bbMargin, maxX+bbMargin
	minY, maxY = minY-bbMargin, maxY+bbMargin

	for _, sink := range nt.Sinks {
		if rt.inTree[sink] == rt.treeGen {
			continue
		}
		crit := float32(0)
		if rt.tc != nil {
			crit = rt.tc.Crit[[2]int32{nt.Driver, sink}]
		}
		path, err := rt.dijkstra(used, nt.Source, sink, presFac, crit, minX, maxX, minY, maxY)
		if err != nil {
			// Escape hatch: retry without the bounding box; congestion
			// detours may legitimately leave it.
			const wide = int16(0x3fff)
			path, err = rt.dijkstra(used, nt.Source, sink, presFac, crit, -wide, wide, -wide, wide)
		}
		if err != nil {
			return nil, fmt.Errorf("route: net from %s unroutable to %s: %w",
				rt.g.Nodes[nt.Source], rt.g.Nodes[sink], err)
		}
		// path runs from a tree node to the sink.
		for i := 1; i < len(path); i++ {
			nd := path[i]
			if rt.inTree[nd] != rt.treeGen {
				rt.inTree[nd] = rt.treeGen
				rt.prev[nd] = path[i-1]
				used = append(used, nd)
			}
		}
	}
	return used, nil
}

// nodeCost prices one RR node: the congestion cost (base + history +
// present-sharing penalty), blended against the node's delay by the
// connection's criticality in timing-driven mode. crit == 0 reproduces
// the congestion-only cost exactly.
func (rt *router) nodeCost(nd int32, presFac, crit float32) float32 {
	c := 1 + rt.hist[nd]
	if rt.occ[nd] >= 1 {
		c += presFac * float32(rt.occ[nd])
	}
	if crit > 0 {
		tc := rt.tc
		return (1-crit)*c + crit*tc.DelayScale*tc.NodeDelay[nd]
	}
	return c
}

// dijkstra finds the cheapest path from any current-tree node to the
// target, expanding only nodes inside the given bounding box (the
// target itself is always admitted).
func (rt *router) dijkstra(used []int32, source, target int32, presFac, crit float32, minX, maxX, minY, maxY int16) ([]int32, error) {
	rt.curGen++
	gen := rt.curGen
	q := rt.heap[:0]
	seed := func(nd int32) {
		rt.dist[nd] = 0
		rt.from[nd] = -1
		rt.gen[nd] = gen
		q = q.push(heapItem{node: nd})
	}
	seed(source)
	for _, nd := range used {
		seed(nd)
	}
	g := rt.g
	for _, d := range g.In[target] {
		rt.drives[d] = gen
	}
	for len(q) > 0 {
		var it heapItem
		q, it = q.pop()
		if it.cost > rt.dist[it.node] {
			continue
		}
		if it.node == target {
			rt.heap = q
			// Reconstruct into the shared scratch path buffer.
			rev := rt.path[:0]
			for nd := target; nd != -1; nd = rt.from[nd] {
				rev = append(rev, nd)
				if rt.inTree[nd] == rt.treeGen {
					break
				}
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			rt.path = rev
			return rev, nil
		}
		// Only wires fan out further; pins and pads terminate.
		for _, nx := range g.WireOut(it.node) {
			if x := rt.xs[nx]; x < minX || x > maxX {
				continue
			}
			if y := rt.ys[nx]; y < minY || y > maxY {
				continue
			}
			q = rt.relax(q, it.node, nx, it.cost+rt.nodeCost(nx, presFac, crit), gen)
		}
		// The target is a pin or pad, so it comes after every wire in
		// the node's full successor order: relaxing it last pushes
		// exactly what a scan of all out-edges would.
		if rt.drives[it.node] == gen {
			q = rt.relax(q, it.node, target, it.cost+rt.nodeCost(target, presFac, crit), gen)
		}
	}
	rt.heap = q
	return nil, fmt.Errorf("no path")
}

// relax makes from the predecessor of nx at cost nc, and queues nx,
// unless the current search already reached nx at no higher cost.
func (rt *router) relax(q rtHeap, from, nx int32, nc float32, gen uint32) rtHeap {
	if rt.gen[nx] == gen && nc >= rt.dist[nx] {
		return q
	}
	rt.dist[nx] = nc
	rt.from[nx] = from
	rt.gen[nx] = gen
	return q.push(heapItem{node: nx, cost: nc})
}

// heapItem is one priority-queue entry.
type heapItem struct {
	cost float32
	node int32
}

// rtHeap is a typed binary min-heap ordered by cost. It is pooled in
// the router and manipulated without interface boxing.
type rtHeap []heapItem

func (h rtHeap) push(it heapItem) rtHeap {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cost <= h[i].cost {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func (h rtHeap) pop() (rtHeap, heapItem) {
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h[l].cost < h[small].cost {
			small = l
		}
		if r < n && h[r].cost < h[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, top
}

// buildNets derives RR-level nets from the placement.
func buildNets(pl *place.Placement, g *fabric.RRGraph) []Net {
	p := pl.Pack
	ln := p.Net
	sourceRR := func(driver int32) int32 {
		if loc, ok := p.Loc[driver]; ok {
			pos := pl.CLBPos[loc[0]]
			return g.OPin(pos.X, pos.Y, loc[1])
		}
		if ln.Nodes[driver].Kind == techmap.LInput {
			pad := pl.PIPad[driver]
			return g.IOIn(pad.Tile, pad.Pin)
		}
		return -1 // constants need no routing
	}
	byDriver := make(map[int32]*Net)
	addSink := func(driver, sinkRR int32) {
		src := sourceRR(driver)
		if src < 0 {
			return
		}
		nt, ok := byDriver[driver]
		if !ok {
			nt = &Net{Driver: driver, Source: src}
			byDriver[driver] = nt
		}
		nt.Sinks = append(nt.Sinks, sinkRR)
	}
	for ci := range p.CLBs {
		pos := pl.CLBPos[ci]
		for k, in := range p.CLBs[ci].Inputs {
			addSink(in, g.IPin(pos.X, pos.Y, k))
		}
	}
	for i, po := range ln.POs {
		pad := pl.POPad[i]
		addSink(po, g.IOOut(pad.Tile, pad.Pin))
	}
	var drivers []int32
	for d := range byDriver {
		drivers = append(drivers, d)
	}
	sort.Slice(drivers, func(i, j int) bool { return drivers[i] < drivers[j] })
	var nets []Net
	for _, d := range drivers {
		nets = append(nets, *byDriver[d])
	}
	return nets
}

// Validate checks that every sink connects back to its net's source
// through Prev and that no RR node carries two nets.
func (r *Result) Validate() error {
	owner := make(map[int32]int)
	for ni := range r.Nets {
		for _, nd := range r.Nets[ni].Tree {
			if o, dup := owner[nd]; dup && o != ni {
				return fmt.Errorf("route: RR node %s shared by nets %d and %d", r.G.Nodes[nd], o, ni)
			}
			owner[nd] = ni
		}
	}
	for ni := range r.Nets {
		nt := &r.Nets[ni]
		for _, sink := range nt.Sinks {
			nd := sink
			steps := 0
			for nd != nt.Source {
				nd = r.Prev[nd]
				if nd < 0 {
					return fmt.Errorf("route: sink %s of net %d does not reach source", r.G.Nodes[sink], ni)
				}
				steps++
				if steps > len(r.G.Nodes) {
					return fmt.Errorf("route: cycle while tracing net %d", ni)
				}
			}
		}
	}
	return nil
}
