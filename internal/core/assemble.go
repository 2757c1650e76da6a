package core

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"

	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/openfpga"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// A cluster's wrapper exposes every member port, so its netlist is the
// disjoint union of its members' netlists, and the assembler builds it
// from parts: each distinct (module, parameter environment) is
// synthesized and optimized once through a one-instance wrapper, and
// mapped once per LUT size. It lays the parts out in exactly the node
// order the cluster's own wrapper would get:
//
//   - Synthesis creates nodes in phases (synth.Phases), and the
//     wrapper's raw netlist is, phase by phase, its members' raw
//     netlists in cluster order. Hash-consing never joins two members:
//     their non-constant nodes are disjoint, and constant-only gates
//     fold.
//   - A rebuild (opt.Rebuilds) emits inputs, then flip-flops, then
//     gates, each section in the order of the nodes they come from, and
//     every rebuilt node keeps its source's phase. So an optimized
//     cluster is ordered by assembly group (section, then phase), then
//     member, then the node's order within its part. Optimize stops by
//     the node count, so a cluster takes its stop from its members'
//     summed counts (opt.Stop).
//   - The mapper is local (cuts and their ranking depend only on a
//     node's cone) and emits constants, inputs, flip-flops and LUTs in
//     the order of their source nodes. A cluster's LUT network is thus
//     its parts' networks ordered by the assembled position of each
//     node's source (techmap.MapKSources).
//
// Port names take each member's own prefix, and constant outputs get
// their shared generators (openfpga.RewriteConstPOs) only on the
// assembled network, as on the wrapper's.

// numGroups counts the assembly groups: the constants, then each
// rebuild section (inputs, flip-flops, gates) split by synthesis phase.
const numGroups = 1 + 3*synth.Phases

// nodeGroup is the assembly group of an optimized node with operator op
// and synthesis phase ph (1 to synth.Phases).
func nodeGroup(op netlist.Op, ph uint8) int {
	section := 2
	switch op {
	case netlist.Const0, netlist.Const1:
		return 0
	case netlist.Input:
		section = 0
	case netlist.DFF:
		section = 1
	}
	return 1 + section*synth.Phases + int(ph) - 1
}

// groupStarts returns where each assembly group begins among n nodes
// sorted by group: group g spans [starts[g], starts[g+1]). ok is false
// if the nodes are not sorted by group.
func groupStarts(n int, group func(i int) int) (starts [numGroups + 1]int32, ok bool) {
	g := 0
	for i := 0; i < n; i++ {
		gi := group(i)
		if gi < g {
			return starts, false
		}
		for g < gi {
			g++
			starts[g] = int32(i)
		}
	}
	for g < numGroups {
		g++
		starts[g] = int32(n)
	}
	return starts, true
}

// phaseTags tags every node of a synthesis result with its phase.
func phaseTags(res *synth.Result) []uint8 {
	tags := make([]uint8, len(res.Netlist.Nodes))
	ph := 0
	for i := range tags {
		for i >= res.PhaseEnds[ph] {
			ph++
		}
		tags[i] = uint8(ph + 1)
	}
	return tags
}

// instPart is one distinct (module, parameter environment) of a
// characterization run.
type instPart struct {
	once sync.Once
	idx  int               // first-seen order, which names its wrapper
	inst *rtl.InstanceNode // the occurrence whose wrapper was synthesized
	err  error
	// passes are the rebuilds Optimize runs on the part (opt.Rebuilds).
	passes []partPass
	// piNames and poNames are the port names without the instance
	// prefix; rebuilds and the mapper keep them.
	piNames, poNames []string
	// maps[q*nK+x] is pass q mapped at the x-th distinct LUT size.
	maps []partMap
}

type partPass struct {
	n      *netlist.Netlist
	tags   []uint8
	starts [numGroups + 1]int32
}

type partMap struct {
	once   sync.Once
	ln     *techmap.LUTNetwork
	starts [numGroups + 1]int32
	err    error
}

// pass is the index of the part's rebuild numbered k (from 1); rebuilds
// past a fixed point repeat the last.
func (p *instPart) pass(k int) int { return min(k, len(p.passes)) - 1 }

// assembler builds the gate netlist and the LUT networks of a run's
// clusters from their instances' parts. Every method is safe for
// concurrent use; each part, cluster netlist and cluster network is
// built once, and no assembled netlist or network shares memory with a
// part.
type assembler struct {
	ctx      context.Context
	d        *rtl.Design
	opts     openfpga.Options
	clusters []Cluster
	kIdx     map[int]int   // LUT size -> dense index
	members  [][]*instPart // cluster i's parts, in instance order
	nets     []clusterNet  // per cluster
	luts     []clusterLUTs // [i*len(kIdx)+x]
}

type clusterNet struct {
	once sync.Once
	n    *netlist.Netlist
	k    int // the rebuild Optimize stops at
	err  error
}

type clusterLUTs struct {
	once sync.Once
	ln   *techmap.LUTNetwork
	err  error
}

// clusterName names cluster i's wrapper module and its netlists.
func clusterName(i int) string { return fmt.Sprintf("alice_cluster_%d", i) }

// newAssembler prepares the parts of clusters for the LUT sizes ks;
// nothing is synthesized until a cluster asks for it.
func newAssembler(ctx context.Context, d *rtl.Design, clusters []Cluster, ks []int, opts openfpga.Options) *assembler {
	a := &assembler{ctx: ctx, d: d, opts: opts, clusters: clusters, kIdx: make(map[int]int)}
	for _, k := range ks {
		if _, ok := a.kIdx[k]; !ok {
			a.kIdx[k] = len(a.kIdx)
		}
	}
	byKey := make(map[string]*instPart)
	a.members = make([][]*instPart, len(clusters))
	for i, c := range clusters {
		for _, inst := range c.Instances {
			key := instanceKey(inst)
			p, ok := byKey[key]
			if !ok {
				p = &instPart{idx: len(byKey), inst: inst}
				byKey[key] = p
			}
			a.members[i] = append(a.members[i], p)
		}
	}
	a.nets = make([]clusterNet, len(clusters))
	a.luts = make([]clusterLUTs, len(clusters)*len(a.kIdx))
	return a
}

// instanceKey identifies an instance's (module, parameter environment).
func instanceKey(inst *rtl.InstanceNode) string {
	var b strings.Builder
	b.WriteString(inst.Module.Name)
	for _, name := range slices.Sorted(maps.Keys(inst.Env)) {
		b.WriteString("\x00" + name + "=" + strconv.FormatInt(inst.Env[name], 10))
	}
	return b.String()
}

// part synthesizes and optimizes a part once, through a one-instance
// cluster wrapper.
func (a *assembler) part(p *instPart) error {
	p.once.Do(func() {
		name := fmt.Sprintf("alice_instance_%d", p.idx)
		wrapper := BuildClusterWrapper(&Cluster{Instances: []*rtl.InstanceNode{p.inst}}, name)
		ast := &verilog.Design{Modules: append(append([]*verilog.Module(nil), a.d.AST.Modules...), wrapper)}
		res, err := openfpga.SynthesizeRaw(a.ctx, ast, name, a.opts)
		if err != nil {
			p.err = err
			return
		}
		cut := len(wrapperPortName(p.inst, ""))
		for _, nm := range res.Netlist.PINames {
			p.piNames = append(p.piNames, nm[cut:])
		}
		for _, nm := range res.Netlist.PONames {
			p.poNames = append(p.poNames, nm[cut:])
		}
		for _, t := range opt.Rebuilds(opt.Tagged{N: res.Netlist, Tags: phaseTags(res)}) {
			starts, ok := groupStarts(len(t.N.Nodes), func(i int) int { return nodeGroup(t.N.Nodes[i].Op, t.Tags[i]) })
			if !ok {
				p.err = fmt.Errorf("core: %s: optimized nodes out of assembly order", p.inst.Path)
				return
			}
			p.passes = append(p.passes, partPass{n: t.N, tags: t.Tags, starts: starts})
		}
		p.maps = make([]partMap, len(p.passes)*len(a.kIdx))
	})
	return p.err
}

// mapped maps the part's rebuild numbered k at LUT size lut, once.
func (a *assembler) mapped(p *instPart, k, lut int) *partMap {
	q := p.pass(k)
	m := &p.maps[q*len(a.kIdx)+a.kIdx[lut]]
	m.once.Do(func() {
		pp := &p.passes[q]
		ln, src, err := techmap.MapKSources(pp.n, lut)
		if err != nil {
			m.err = err
			return
		}
		starts, ok := groupStarts(len(ln.Nodes), func(i int) int {
			s := src[i]
			return nodeGroup(pp.n.Nodes[s].Op, pp.tags[s])
		})
		if !ok {
			m.err = fmt.Errorf("core: %s: mapped nodes out of assembly order", p.inst.Path)
			return
		}
		m.ln, m.starts = ln, starts
	})
	return m
}

// netlist returns cluster i's optimized gate netlist, named as its
// wrapper. A member whose synthesis failed fails the cluster with that
// error.
func (a *assembler) netlist(i int) (*netlist.Netlist, error) {
	s := &a.nets[i]
	s.once.Do(func() {
		ps := a.members[i]
		for _, p := range ps {
			if s.err = a.part(p); s.err != nil {
				return
			}
		}
		s.k = opt.Stop(func(k int) int {
			c := 2
			for _, p := range ps {
				c += len(p.passes[p.pass(k)].n.Nodes) - 2
			}
			return c
		})
		s.n = a.assembleNetlist(i, s.k)
	})
	return s.n, s.err
}

// idName pairs an assembled node with a port name.
type idName struct {
	id   int32
	name string
}

// assembleNetlist lays out cluster i's members' rebuilds numbered k.
// Inputs and flip-flops keep node order, as a rebuild lists them.
func (a *assembler) assembleNetlist(i, k int) *netlist.Netlist {
	ps := a.members[i]
	parts := make([]*partPass, len(ps))
	size := 2
	for m, p := range ps {
		parts[m] = &p.passes[p.pass(k)]
		size += len(parts[m].n.Nodes) - 2
	}
	n := &netlist.Netlist{Name: clusterName(i), Nodes: make([]netlist.Node, 2, size)}
	copy(n.Nodes, parts[0].n.Nodes[:2])
	// nmap[m][x] is the assembled id of node x of member m.
	nmap := make([][]int32, len(ps))
	for m, pp := range parts {
		nmap[m] = make([]int32, len(pp.n.Nodes))
		nmap[m][1] = 1
	}
	for g := 1; g < numGroups; g++ {
		for m, pp := range parts {
			for x := pp.starts[g]; x < pp.starts[g+1]; x++ {
				nd := pp.n.Nodes[x]
				if nd.Op != netlist.DFF {
					// Combinational fan-ins precede their node in its part
					// and in the assembly.
					for j := 0; j < nd.Op.Arity(); j++ {
						nd.In[j] = nmap[m][nd.In[j]]
					}
				}
				nmap[m][x] = int32(len(n.Nodes))
				n.Nodes = append(n.Nodes, nd)
			}
		}
	}
	var pis []idName
	for m, pp := range parts {
		src, prefix := pp.n, wrapperPortName(a.clusters[i].Instances[m], "")
		for _, d := range src.DFFs {
			n.DFFs = append(n.DFFs, nmap[m][d])
			n.Nodes[nmap[m][d]].In[0] = nmap[m][src.Nodes[d].In[0]]
		}
		for j, pi := range src.PIs {
			pis = append(pis, idName{nmap[m][pi], prefix + ps[m].piNames[j]})
		}
		for j, po := range src.POs {
			n.POs = append(n.POs, nmap[m][po])
			n.PONames = append(n.PONames, prefix+ps[m].poNames[j])
		}
	}
	slices.SortFunc(pis, func(x, y idName) int { return cmp.Compare(x.id, y.id) })
	for _, p := range pis {
		n.PIs = append(n.PIs, p.id)
		n.PINames = append(n.PINames, p.name)
	}
	slices.Sort(n.DFFs)
	return n
}

// network returns cluster i's LUT network at LUT size lut, ready for
// fabric implementation.
func (a *assembler) network(i, lut int) (*techmap.LUTNetwork, error) {
	s := &a.luts[i*len(a.kIdx)+a.kIdx[lut]]
	s.once.Do(func() {
		if s.err = (fabric.Params{LUTSize: lut}).Validate(); s.err != nil {
			return
		}
		var n *netlist.Netlist
		if n, s.err = a.netlist(i); s.err != nil {
			return
		}
		ms := make([]*partMap, len(a.members[i]))
		for m, p := range a.members[i] {
			if ms[m] = a.mapped(p, a.nets[i].k, lut); ms[m].err != nil {
				s.err = ms[m].err
				return
			}
		}
		s.ln = assembleNetwork(n, lut, ms)
		openfpga.RewriteConstPOs(s.ln)
	})
	return s.ln, s.err
}

// assembleNetwork lays out the networks of the members of the cluster
// whose assembled netlist is n, mapped at lut. The mapper lists inputs
// and flip-flops in node order and keeps the netlist's port names.
func assembleNetwork(n *netlist.Netlist, lut int, ms []*partMap) *techmap.LUTNetwork {
	size, fanins := 2, 0
	for _, m := range ms {
		size += len(m.ln.Nodes) - 2
		for _, nd := range m.ln.Nodes {
			fanins += len(nd.In)
		}
	}
	ln := &techmap.LUTNetwork{
		Name:    n.Name,
		K:       lut,
		Nodes:   make([]techmap.LNode, 2, size),
		PINames: slices.Clone(n.PINames),
		PONames: slices.Clone(n.PONames),
	}
	ln.Nodes[0].Kind, ln.Nodes[1].Kind = techmap.LConst0, techmap.LConst1
	ins := make([]int32, 0, fanins) // every node's In, back to back
	lmap := make([][]int32, len(ms))
	for m, pm := range ms {
		lmap[m] = make([]int32, len(pm.ln.Nodes))
		lmap[m][1] = 1
	}
	for g := 1; g < numGroups; g++ {
		for m, pm := range ms {
			for x := pm.starts[g]; x < pm.starts[g+1]; x++ {
				nd := pm.ln.Nodes[x]
				from := len(ins)
				for _, in := range nd.In {
					if nd.Kind != techmap.LFF {
						in = lmap[m][in] // LUT inputs precede their LUT
					}
					ins = append(ins, in)
				}
				nd.In = ins[from:len(ins):len(ins)]
				lmap[m][x] = int32(len(ln.Nodes))
				ln.Nodes = append(ln.Nodes, nd)
			}
		}
	}
	for m, pm := range ms {
		src := pm.ln
		for _, ff := range src.FFs {
			ln.FFs = append(ln.FFs, lmap[m][ff])
			ln.Nodes[lmap[m][ff]].In[0] = lmap[m][src.Nodes[ff].In[0]]
		}
		for _, pi := range src.PIs {
			ln.PIs = append(ln.PIs, lmap[m][pi])
		}
		for _, po := range src.POs {
			ln.POs = append(ln.POs, lmap[m][po])
		}
	}
	slices.Sort(ln.PIs)
	slices.Sort(ln.FFs)
	return ln
}
