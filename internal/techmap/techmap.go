// Package techmap maps an optimized gate netlist onto K-input lookup
// tables using exhaustive K-feasible cut enumeration with priority
// pruning and a depth-first, area-flow-second cost, in the style of
// classic FPGA mappers. K is a runtime parameter in [MinK, MaxK]; the
// default Map targets the 4-LUT fabric of Sec. 7 of the ALICE paper,
// while MapK opens the architecture space of the follow-on work ("Not
// All Fabrics Are Created Equal"), where LUT size is a security/
// overhead lever. The result is a LUT network whose truth tables are
// computed exactly from the covered cones, ready for packing onto an
// eFPGA.
package techmap

import (
	"cmp"
	"fmt"
	"slices"

	"alice/internal/netlist"
)

// MinK and MaxK bound the supported LUT input counts. MaxK = 6 keeps a
// full truth table in one uint64 word.
const (
	MinK = 2
	MaxK = 6
)

// DefaultK is the LUT input count of the paper's fabric.
const DefaultK = 4

// maxCutsPerNode bounds the priority cut list kept per node.
const maxCutsPerNode = 10

// LKind is a LUT-network node kind.
type LKind uint8

// LUT network node kinds.
const (
	LConst0 LKind = iota
	LConst1
	LInput
	LLUT
	LFF
)

func (k LKind) String() string {
	switch k {
	case LConst0:
		return "const0"
	case LConst1:
		return "const1"
	case LInput:
		return "input"
	case LLUT:
		return "lut"
	case LFF:
		return "ff"
	}
	return "?"
}

// LNode is a node of the mapped network. LUT nodes have up to K inputs
// and a truth-table mask (bit i of an input assignment selects mask bit
// at that index; up to 2^MaxK = 64 bits). FF nodes have exactly one
// input (D).
type LNode struct {
	Kind LKind
	Mask uint64
	In   []int32
}

// LUTNetwork is a mapped design.
type LUTNetwork struct {
	Name string
	// K is the LUT input bound the network was mapped for (0 is treated
	// as MaxK by Validate, for networks assembled by hand).
	K       int
	Nodes   []LNode
	PIs     []int32
	PINames []string
	POs     []int32
	PONames []string
	FFs     []int32
}

// LUTSize returns the network's LUT input bound.
func (ln *LUTNetwork) LUTSize() int {
	if ln.K == 0 {
		return MaxK
	}
	return ln.K
}

// NumLUTs returns the number of LUT nodes.
func (ln *LUTNetwork) NumLUTs() int {
	c := 0
	for _, n := range ln.Nodes {
		if n.Kind == LLUT {
			c++
		}
	}
	return c
}

// NumFFs returns the number of flip-flops.
func (ln *LUTNetwork) NumFFs() int { return len(ln.FFs) }

// Depth returns the maximum LUT depth from inputs/FFs to outputs.
func (ln *LUTNetwork) Depth() int {
	depth := make([]int, len(ln.Nodes))
	maxd := 0
	for i, n := range ln.Nodes {
		if n.Kind != LLUT {
			continue
		}
		d := 0
		for _, in := range n.In {
			if ln.Nodes[in].Kind == LLUT && depth[in] > d {
				d = depth[in]
			}
		}
		depth[i] = d + 1
		if depth[i] > maxd {
			maxd = depth[i]
		}
	}
	return maxd
}

// Validate checks structural invariants of the LUT network.
func (ln *LUTNetwork) Validate() error {
	k := ln.LUTSize()
	for i, n := range ln.Nodes {
		switch n.Kind {
		case LLUT:
			if len(n.In) == 0 || len(n.In) > k {
				return fmt.Errorf("techmap: %s: LUT %d has %d inputs (K=%d)", ln.Name, i, len(n.In), k)
			}
			for _, in := range n.In {
				if in < 0 || int(in) >= len(ln.Nodes) {
					return fmt.Errorf("techmap: %s: LUT %d input out of range", ln.Name, i)
				}
				if int(in) >= i && ln.Nodes[in].Kind != LFF && ln.Nodes[in].Kind != LInput {
					return fmt.Errorf("techmap: %s: LUT %d not topological", ln.Name, i)
				}
			}
		case LFF:
			if len(n.In) != 1 {
				return fmt.Errorf("techmap: %s: FF %d must have one input", ln.Name, i)
			}
			if n.In[0] < 0 || int(n.In[0]) >= len(ln.Nodes) {
				return fmt.Errorf("techmap: %s: FF %d input out of range", ln.Name, i)
			}
		}
	}
	for i, po := range ln.POs {
		if po < 0 || int(po) >= len(ln.Nodes) {
			return fmt.Errorf("techmap: %s: PO %s out of range", ln.Name, ln.PONames[i])
		}
	}
	return nil
}

// cut is a set of at most K leaves, sorted ascending. The array is
// sized for MaxK; size and the mapper's runtime k bound the live
// prefix. sig has bit leaf&63 set for each leaf, so a cut whose
// signature has a bit another's lacks is not a subset of it.
type cut struct {
	leaves [MaxK]int32
	sig    uint64
	size   int8
}

// trivialCut is the single-leaf cut {id}.
func trivialCut(id int32) cut {
	return cut{leaves: [MaxK]int32{id}, sig: 1 << (uint32(id) & 63), size: 1}
}

// dominates reports whether c's leaves are a subset of d's.
func (c *cut) dominates(d *cut) bool {
	if c.size > d.size || c.sig&^d.sig != 0 {
		return false
	}
	j := int8(0)
	for i := int8(0); i < c.size; i++ {
		for j < d.size && d.leaves[j] < c.leaves[i] {
			j++
		}
		if j == d.size || d.leaves[j] != c.leaves[i] {
			return false
		}
		j++
	}
	return true
}

// mergeCuts unions two cuts; ok is false if the union exceeds k leaves.
func mergeCuts(a, b *cut, k int8) (cut, bool) {
	out := cut{sig: a.sig | b.sig}
	i, j := int8(0), int8(0)
	for i < a.size || j < b.size {
		var v int32
		switch {
		case i >= a.size:
			v = b.leaves[j]
			j++
		case j >= b.size:
			v = a.leaves[i]
			i++
		case a.leaves[i] < b.leaves[j]:
			v = a.leaves[i]
			i++
		case a.leaves[i] > b.leaves[j]:
			v = b.leaves[j]
			j++
		default:
			v = a.leaves[i]
			i++
			j++
		}
		if out.size == k {
			return out, false
		}
		out.leaves[out.size] = v
		out.size++
	}
	return out, true
}

// Map maps a netlist onto the default 4-LUT network of the paper's
// fabric.
func Map(n *netlist.Netlist) (*LUTNetwork, error) { return MapK(n, DefaultK) }

// MapK maps a netlist onto K-input LUTs for a runtime K in [MinK,
// MaxK]. At K = 4 the output is identical to Map. At K = 2, 3-ary Mux
// gates have no 2-feasible cut of their own, so they are lowered to
// And/Or/Not first.
func MapK(n *netlist.Netlist, k int) (*LUTNetwork, error) {
	ln, _, err := mapK(n, k, false)
	return ln, err
}

// MapKSources is MapK that also reports where each node of the network
// comes from: src[i] is the node of n that network node i was emitted
// for (a LUT's cone root, an input's or flip-flop's own node, constants
// 0 and 1). The mapper emits constants, inputs, flip-flops and then
// LUTs in the order of their source nodes. At K = 2 a LUT's source is
// the gate of n its lowered root came from, so several LUTs may share
// one source, in their lowered order.
func MapKSources(n *netlist.Netlist, k int) (ln *LUTNetwork, src []int32, err error) {
	return mapK(n, k, true)
}

func mapK(n *netlist.Netlist, k int, sources bool) (*LUTNetwork, []int32, error) {
	if k < MinK || k > MaxK {
		return nil, nil, fmt.Errorf("techmap: LUT size %d out of range [%d,%d]", k, MinK, MaxK)
	}
	var origin []int32
	if k == 2 {
		var err error
		n, origin, err = lowerMux(n, sources)
		if err != nil {
			return nil, nil, err
		}
	}
	m := &mapper{n: n, k: int8(k), sources: sources}
	ln, err := m.run()
	if err != nil || origin == nil {
		return ln, m.src, err
	}
	for i, s := range m.src {
		m.src[i] = origin[s]
	}
	return ln, m.src, nil
}

// lowerMux rewrites every Mux gate as (~s & d0) | (s & d1), preserving
// everything else (the builder re-folds and hash-conses, which only
// shrinks the network). Netlists without Mux gates pass through
// untouched. With origins, origin[i] is the node of n that lowered
// node i was created for (nil when n passes through).
func lowerMux(n *netlist.Netlist, origins bool) (lowered *netlist.Netlist, origin []int32, err error) {
	hasMux := false
	for _, nd := range n.Nodes {
		if nd.Op == netlist.Mux {
			hasMux = true
			break
		}
	}
	if !hasMux {
		return n, nil, nil
	}
	bd := netlist.NewBuilder(n.Name)
	if origins {
		origin = make([]int32, 2, len(n.Nodes))
		origin[1] = 1
	}
	piName := make(map[int32]string, len(n.PIs))
	for i, pi := range n.PIs {
		piName[pi] = n.PINames[i]
	}
	nmap := make([]int32, len(n.Nodes))
	for i, nd := range n.Nodes {
		id := int32(i)
		switch nd.Op {
		case netlist.Const0:
			nmap[i] = 0
		case netlist.Const1:
			nmap[i] = 1
		case netlist.Input:
			nmap[i] = bd.Input(piName[id])
		case netlist.DFF:
			nmap[i] = bd.DFF()
		case netlist.Not:
			nmap[i] = bd.Not(nmap[nd.In[0]])
		case netlist.And:
			nmap[i] = bd.And(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Or:
			nmap[i] = bd.Or(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Xor:
			nmap[i] = bd.Xor(nmap[nd.In[0]], nmap[nd.In[1]])
		case netlist.Mux:
			s, d0, d1 := nmap[nd.In[0]], nmap[nd.In[1]], nmap[nd.In[2]]
			nmap[i] = bd.Or(bd.And(bd.Not(s), d0), bd.And(s, d1))
		default:
			// A silently-unhandled op would map to node 0 (const0) and
			// miscompile every K=2 cone containing it. Synthesized input
			// can in principle carry ops this rewriter postdates, so this
			// is a typed error rather than a crash.
			return nil, nil, fmt.Errorf("techmap: lowerMux: unhandled op %s at node %d of %s", nd.Op, i, n.Name)
		}
		for origins && len(origin) < len(bd.N.Nodes) {
			origin = append(origin, id)
		}
	}
	for _, d := range n.DFFs {
		bd.SetD(nmap[d], nmap[n.Nodes[d].In[0]])
	}
	for i, po := range n.POs {
		bd.Output(n.PONames[i], nmap[po])
	}
	return bd.N, origin, nil
}

type nodeInfo struct {
	cuts  []cut
	best  cut
	depth int32
	area  float32
}

// scoredCut ranks cut i of the mapper's cuts scratch.
type scoredCut struct {
	i     int32
	depth int32
	area  float32
	size  int8
}

type mapper struct {
	n    *netlist.Netlist
	k    int8
	info []nodeInfo
	// With sources, src[i] is the node network node i was emitted for.
	sources bool
	src     []int32

	// Scratch that enumerateCuts reuses from node to node.
	candidates []cut
	cuts       []cut
	scored     []scoredCut

	// truthTable's memo: memo[x] holds node x's table while
	// stamp[x] == gen. bad is the first cone node eval could not
	// evaluate, or -1.
	memo  []uint64
	stamp []uint32
	gen   uint32
	bad   int32
}

func (m *mapper) isLeaf(id int32) bool {
	op := m.n.Nodes[id].Op
	return op == netlist.Input || op == netlist.DFF || op == netlist.Const0 || op == netlist.Const1
}

func (m *mapper) run() (*LUTNetwork, error) {
	n := m.n
	m.info = make([]nodeInfo, len(n.Nodes))
	m.memo = make([]uint64, len(n.Nodes))
	m.stamp = make([]uint32, len(n.Nodes))

	// Forward pass: enumerate priority cuts per combinational node.
	for i := range n.Nodes {
		id := int32(i)
		nd := n.Nodes[i]
		inf := &m.info[i]
		if m.isLeaf(id) {
			inf.cuts = []cut{trivialCut(id)}
			inf.depth = 0
			continue
		}
		switch nd.Op {
		case netlist.Not, netlist.And, netlist.Or, netlist.Xor, netlist.Mux:
			m.enumerateCuts(id)
		}
	}

	// Backward pass: choose cover from POs and DFF D-inputs.
	required := make([]bool, len(n.Nodes))
	var queue []int32
	nLUTs := 0
	addRoot := func(id int32) {
		if !m.isLeaf(id) && !required[id] {
			required[id] = true
			nLUTs++
			queue = append(queue, id)
		}
	}
	for _, po := range n.POs {
		addRoot(po)
	}
	for _, d := range n.DFFs {
		addRoot(n.Nodes[d].In[0])
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		best := &m.info[id].best
		for i := int8(0); i < best.size; i++ {
			addRoot(best.leaves[i])
		}
	}

	// Emit the LUT network in topological order.
	out := &LUTNetwork{Name: n.Name, K: int(m.k)}
	out.Nodes = make([]LNode, 0, 2+len(n.PIs)+len(n.DFFs)+nLUTs)
	if m.sources {
		m.src = make([]int32, 0, cap(out.Nodes))
	}
	emit := func(src int32, k LKind, mask uint64, ins []int32) int32 {
		id := int32(len(out.Nodes))
		out.Nodes = append(out.Nodes, LNode{Kind: k, Mask: mask, In: ins})
		if m.sources {
			m.src = append(m.src, src)
		}
		return id
	}
	nmap := make([]int32, len(n.Nodes))
	for i := range nmap {
		nmap[i] = -1
	}
	// Constants and PIs first.
	c0 := emit(0, LConst0, 0, nil)
	c1 := emit(1, LConst1, 0, nil)
	nmap[0], nmap[1] = c0, c1
	for i, pi := range n.PIs {
		nmap[pi] = emit(pi, LInput, 0, nil)
		out.PIs = append(out.PIs, nmap[pi])
		out.PINames = append(out.PINames, n.PINames[i])
	}
	// FFs next (their D set after LUT emission).
	for _, d := range n.DFFs {
		nmap[d] = emit(d, LFF, 0, []int32{-1})
		out.FFs = append(out.FFs, nmap[d])
	}
	// LUTs in forward order.
	for i := range n.Nodes {
		id := int32(i)
		if !required[id] || nmap[id] != -1 {
			continue
		}
		best := &m.info[id].best
		ins := make([]int32, best.size)
		for k, leaf := range best.leaves[:best.size] {
			if nmap[leaf] == -1 {
				return nil, fmt.Errorf("techmap: %s: leaf %d of node %d not yet mapped", n.Name, leaf, id)
			}
			ins[k] = nmap[leaf]
		}
		mask, err := m.truthTable(id, best)
		if err != nil {
			return nil, fmt.Errorf("techmap: %s: %w", n.Name, err)
		}
		nmap[id] = emit(id, LLUT, mask, ins)
	}
	// Connect FFs.
	for _, d := range n.DFFs {
		din := n.Nodes[d].In[0]
		if nmap[din] == -1 {
			return nil, fmt.Errorf("techmap: %s: DFF %d D-input unmapped", n.Name, d)
		}
		out.Nodes[nmap[d]].In[0] = nmap[din]
	}
	for i, po := range n.POs {
		out.POs = append(out.POs, nmap[po])
		out.PONames = append(out.PONames, n.PONames[i])
	}
	return out, out.Validate()
}

// enumerateCuts computes the priority cut set and the best cut of a
// combinational node. It builds candidates, filters and ranks them in
// the mapper's scratch; only the kept cuts are allocated, as one
// exact-size slice with the trivial cut last.
func (m *mapper) enumerateCuts(id int32) {
	nd := m.n.Nodes[id]
	inf := &m.info[id]
	cands := m.candidates[:0]
	switch nd.Op.Arity() {
	case 1:
		cands = append(cands, m.info[nd.In[0]].cuts...)
	case 2:
		as, bs := m.info[nd.In[0]].cuts, m.info[nd.In[1]].cuts
		for i := range as {
			for j := range bs {
				if c, ok := mergeCuts(&as[i], &bs[j], m.k); ok {
					cands = append(cands, c)
				}
			}
		}
	case 3:
		as, bs, cs := m.info[nd.In[0]].cuts, m.info[nd.In[1]].cuts, m.info[nd.In[2]].cuts
		for i := range as {
			for j := range bs {
				ab, ok := mergeCuts(&as[i], &bs[j], m.k)
				if !ok {
					continue
				}
				for l := range cs {
					if c, ok := mergeCuts(&ab, &cs[l], m.k); ok {
						cands = append(cands, c)
					}
				}
			}
		}
	}
	m.candidates = cands
	// Deduplicate and drop dominated cuts.
	cuts := m.cuts[:0]
	for i := range cands {
		c := &cands[i]
		dominated := false
		for j := range cuts {
			if cuts[j].dominates(c) {
				dominated = true
				break
			}
		}
		if !dominated {
			// Remove cuts dominated by c.
			kept := 0
			for j := range cuts {
				if !c.dominates(&cuts[j]) {
					cuts[kept] = cuts[j]
					kept++
				}
			}
			cuts = append(cuts[:kept], *c)
		}
	}
	m.cuts = cuts
	// Rank by (depth, area flow, size) and keep the best few.
	sc := m.scored[:0]
	for i := range cuts {
		c := &cuts[i]
		var depth int32
		var area float32 = 1
		for _, leaf := range c.leaves[:c.size] {
			li := &m.info[leaf]
			if li.depth+1 > depth {
				depth = li.depth + 1
			}
			area += li.area / 2 // crude fanout-sharing estimate
		}
		sc = append(sc, scoredCut{int32(i), depth, area, c.size})
	}
	slices.SortFunc(sc, func(a, b scoredCut) int {
		if a.depth != b.depth {
			return cmp.Compare(a.depth, b.depth)
		}
		if a.area != b.area {
			if a.area < b.area {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.size, b.size)
	})
	m.scored = sc
	if len(sc) > maxCutsPerNode {
		sc = sc[:maxCutsPerNode]
	}
	inf.cuts = make([]cut, len(sc)+1)
	for i, s := range sc {
		inf.cuts[i] = cuts[s.i]
	}
	// Trivial cut keeps deeper nodes mergeable upward.
	inf.cuts[len(sc)] = trivialCut(id)
	inf.best = inf.cuts[0]
	inf.depth = sc[0].depth
	inf.area = sc[0].area
}

// leafPats are the canonical truth-table patterns of up to MaxK = 6
// leaf variables over 64 rows: bit r of leafPats[i] is bit i of row
// index r.
var leafPats = [MaxK]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// truthTable evaluates the cone rooted at id over the cut leaves. A
// cone that reaches an un-evaluable node (a PI, FF, or unknown op that
// the cut should have listed as a leaf) is a mapper invariant
// violation reported as a typed error, not a panic: it reaches this
// code through MapK, whose callers expect errors for bad inputs.
func (m *mapper) truthTable(id int32, c *cut) (uint64, error) {
	m.gen++
	for i, leaf := range c.leaves[:c.size] {
		m.memo[leaf], m.stamp[leaf] = leafPats[i], m.gen
	}
	m.bad = -1
	full := m.eval(id)
	if m.bad >= 0 {
		return 0, fmt.Errorf("techmap: node %d cone: leaf %d (%s) not in cut", id, m.bad, m.n.Nodes[m.bad].Op)
	}
	// Truncate to the cut's actual arity.
	bits := 1 << uint(c.size)
	if bits >= 64 {
		return full, nil
	}
	return full & ((uint64(1) << uint(bits)) - 1), nil
}

// eval returns the truth table of cone node x for truthTable, memoized
// for the current generation.
func (m *mapper) eval(x int32) uint64 {
	if m.stamp[x] == m.gen {
		return m.memo[x]
	}
	if m.bad >= 0 {
		return 0
	}
	nd := &m.n.Nodes[x]
	var v uint64
	switch nd.Op {
	case netlist.Const0:
		v = 0
	case netlist.Const1:
		v = ^uint64(0)
	case netlist.Not:
		v = ^m.eval(nd.In[0])
	case netlist.And:
		v = m.eval(nd.In[0]) & m.eval(nd.In[1])
	case netlist.Or:
		v = m.eval(nd.In[0]) | m.eval(nd.In[1])
	case netlist.Xor:
		v = m.eval(nd.In[0]) ^ m.eval(nd.In[1])
	case netlist.Mux:
		s := m.eval(nd.In[0])
		v = (^s & m.eval(nd.In[1])) | (s & m.eval(nd.In[2]))
	default:
		m.bad = x
		return 0
	}
	m.memo[x], m.stamp[x] = v, m.gen
	return v
}
