package opt

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"alice/internal/netlist"
	"alice/internal/techmap"
)

// The rule these tests check lets a caller optimize and map disjoint
// netlists separately and join the results: when netlists whose nodes
// carry non-decreasing phase tags are joined phase by phase, Optimize
// of the join equals the parts' tagged rebuilds joined section by
// section (inputs, flip-flops, gates) and phase by phase within each,
// with the stop taken from the parts' summed node counts; and MapK of
// that equals the parts' networks ordered by the joined position of
// each node's source.

// randomPhases tags n's nodes with random non-decreasing phases from 1
// to 4, as synthesis creates nodes phase by phase; the constants get 0.
func randomPhases(r *rand.Rand, n *netlist.Netlist) []uint8 {
	tags := make([]uint8, len(n.Nodes))
	ph := uint8(1)
	for i := 2; i < len(tags); i++ {
		if ph < 4 && r.Intn(6) == 0 {
			ph++
		}
		tags[i] = ph
	}
	return tags
}

// joinByKey joins netlists into one named name: nodes ordered by key(m,
// x) of node x of part m, then by part, then by x; port names prefixed
// with the part's index; outputs in part order. It returns the joined
// netlist and each part's node map.
func joinByKey(name string, parts []*netlist.Netlist, key func(m int, x int32) int) (*netlist.Netlist, [][]int32) {
	type ref struct {
		m int
		x int32
	}
	var order []ref
	for m, p := range parts {
		for x := int32(2); x < int32(len(p.Nodes)); x++ {
			order = append(order, ref{m, x})
		}
	}
	slices.SortStableFunc(order, func(a, b ref) int {
		return cmp.Or(cmp.Compare(key(a.m, a.x), key(b.m, b.x)), cmp.Compare(a.m, b.m))
	})
	nmap := make([][]int32, len(parts))
	for m, p := range parts {
		nmap[m] = make([]int32, len(p.Nodes))
		nmap[m][1] = 1
	}
	for j, r := range order {
		nmap[r.m][r.x] = int32(j + 2)
	}
	join := netlist.New(name)
	for _, r := range order {
		nd := parts[r.m].Nodes[r.x]
		for k := 0; k < nd.Op.Arity(); k++ {
			nd.In[k] = nmap[r.m][nd.In[k]]
		}
		join.Nodes = append(join.Nodes, nd)
	}
	type port struct {
		id   int32
		name string
	}
	var pis []port
	for m, p := range parts {
		prefix := fmt.Sprintf("p%d_", m)
		for j, pi := range p.PIs {
			pis = append(pis, port{nmap[m][pi], prefix + p.PINames[j]})
		}
		for _, d := range p.DFFs {
			join.DFFs = append(join.DFFs, nmap[m][d])
		}
		for j, po := range p.POs {
			join.POs = append(join.POs, nmap[m][po])
			join.PONames = append(join.PONames, prefix+p.PONames[j])
		}
	}
	slices.SortFunc(pis, func(a, b port) int { return cmp.Compare(a.id, b.id) })
	for _, p := range pis {
		join.PIs = append(join.PIs, p.id)
		join.PINames = append(join.PINames, p.name)
	}
	slices.Sort(join.DFFs)
	return join, nmap
}

// section is a rebuilt node's section: inputs, flip-flops, then gates.
func section(op netlist.Op) int {
	switch op {
	case netlist.Input:
		return 0
	case netlist.DFF:
		return 1
	}
	return 2
}

// joinNetworks joins LUT networks mapped from the parts of a joined
// netlist: nodes ordered by the joined position pos[m][src] of their
// source, ties in network order; ports as joinByKey names them.
func joinNetworks(name string, k int, lns []*techmap.LUTNetwork, srcs [][]int32, pos [][]int32) *techmap.LUTNetwork {
	type ref struct {
		m int
		x int32
	}
	var order []ref
	for m, ln := range lns {
		for x := int32(2); x < int32(len(ln.Nodes)); x++ {
			order = append(order, ref{m, x})
		}
	}
	slices.SortStableFunc(order, func(a, b ref) int {
		return cmp.Compare(pos[a.m][srcs[a.m][a.x]], pos[b.m][srcs[b.m][b.x]])
	})
	lmap := make([][]int32, len(lns))
	for m, ln := range lns {
		lmap[m] = make([]int32, len(ln.Nodes))
		lmap[m][1] = 1
	}
	for j, r := range order {
		lmap[r.m][r.x] = int32(j + 2)
	}
	out := &techmap.LUTNetwork{Name: name, K: k, Nodes: []techmap.LNode{{Kind: techmap.LConst0}, {Kind: techmap.LConst1}}}
	for _, r := range order {
		nd := lns[r.m].Nodes[r.x]
		var ins []int32
		for _, in := range nd.In {
			ins = append(ins, lmap[r.m][in])
		}
		nd.In = ins
		out.Nodes = append(out.Nodes, nd)
	}
	for m, ln := range lns {
		prefix := fmt.Sprintf("p%d_", m)
		for j, pi := range ln.PIs {
			out.PIs = append(out.PIs, lmap[m][pi])
			out.PINames = append(out.PINames, prefix+ln.PINames[j])
		}
		for _, ff := range ln.FFs {
			out.FFs = append(out.FFs, lmap[m][ff])
		}
		for j, po := range ln.POs {
			out.POs = append(out.POs, lmap[m][po])
			out.PONames = append(out.PONames, prefix+ln.PONames[j])
		}
	}
	// Inputs and flip-flops keep the order of their sources, which is
	// node order in both the join and each part.
	sortPorts(out.PIs, out.PINames)
	slices.Sort(out.FFs)
	return out
}

// sortPorts sorts ids ascending, keeping names beside them.
func sortPorts(ids []int32, names []string) {
	idx := make([]int, len(ids))
	for j := range idx {
		idx[j] = j
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
	ids2, names2 := slices.Clone(ids), slices.Clone(names)
	for j, x := range idx {
		ids[j], names[j] = ids2[x], names2[x]
	}
}

// sameNetlist reports whether two netlists are identical.
func sameNetlist(a, b *netlist.Netlist) bool {
	return a.Name == b.Name && slices.Equal(a.Nodes, b.Nodes) &&
		slices.Equal(a.PIs, b.PIs) && slices.Equal(a.PINames, b.PINames) &&
		slices.Equal(a.POs, b.POs) && slices.Equal(a.PONames, b.PONames) &&
		slices.Equal(a.DFFs, b.DFFs)
}

// sameNetwork reports whether two LUT networks are identical.
func sameNetwork(a, b *techmap.LUTNetwork) bool {
	eq := a.Name == b.Name && a.K == b.K && len(a.Nodes) == len(b.Nodes) &&
		slices.Equal(a.PIs, b.PIs) && slices.Equal(a.PINames, b.PINames) &&
		slices.Equal(a.POs, b.POs) && slices.Equal(a.PONames, b.PONames) &&
		slices.Equal(a.FFs, b.FFs)
	for x := 0; eq && x < len(a.Nodes); x++ {
		p, q := a.Nodes[x], b.Nodes[x]
		eq = p.Kind == q.Kind && p.Mask == q.Mask && slices.Equal(p.In, q.In)
	}
	return eq
}

// summedStopSeeds are seeds, found by search, whose join stops at a
// rebuild where some part is still changing: that part's own Optimize
// stops earlier, at a rebuild that keeps its count but not its nodes
// (seed 7976's first part counts 28, 19, 19, 15, 11 nodes).
var summedStopSeeds = []int64{7976, 19718, 173489, 184234}

// TestJoinRule checks the join rule above on pairs and triples of
// random raw netlists: Optimize of their phase-by-phase join against
// the join of their tagged rebuilds, and MapK of that at K=2..6 against
// the join of the parts' networks. Many joins have parts whose own
// Optimize stops at different rebuilds, and in the summedStopSeeds
// joins a part's own stop would give other nodes than the summed stop.
func TestJoinRule(t *testing.T) {
	seeds := summedStopSeeds
	for seed := int64(0); seed < 300; seed++ {
		seeds = append(seeds, seed)
	}
	differentStops, summedMatters := 0, 0
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		raws := make([]*netlist.Netlist, 2+r.Intn(2))
		tags := make([][]uint8, len(raws))
		for m := range raws {
			raws[m] = randomRawNetlist(r)
			tags[m] = randomPhases(r, raws[m])
		}
		raw, _ := joinByKey("join", raws, func(m int, x int32) int { return int(tags[m][x]) })
		want := Optimize(raw)

		chains := make([][]Tagged, len(raws))
		for m := range raws {
			chains[m] = Rebuilds(Tagged{N: raws[m], Tags: tags[m]})
		}
		k := Stop(func(k int) int {
			c := 2
			for _, ch := range chains {
				c += len(pass(ch, k).N.Nodes) - 2
			}
			return c
		})
		stops, matters := make(map[int]bool), false
		for _, ch := range chains {
			own := Stop(func(k int) int { return len(pass(ch, k).N.Nodes) })
			stops[own] = true
			matters = matters || !sameTagged(pass(ch, own), pass(ch, k))
		}
		if len(stops) > 1 {
			differentStops++
		}
		if matters {
			summedMatters++
		}
		parts := make([]*netlist.Netlist, len(raws))
		for m, ch := range chains {
			parts[m] = pass(ch, k).N
		}
		got, pos := joinByKey("join", parts, func(m int, x int32) int {
			return section(parts[m].Nodes[x].Op)*8 + int(pass(chains[m], k).Tags[x])
		})
		if !sameNetlist(got, want) {
			t.Fatalf("seed %d: joined rebuilds (stop %d) differ from Optimize of the join", seed, k)
		}

		for lut := techmap.MinK; lut <= techmap.MaxK; lut++ {
			wantLN, err := techmap.MapK(want, lut)
			if err != nil {
				t.Fatal(err)
			}
			lns := make([]*techmap.LUTNetwork, len(parts))
			srcs := make([][]int32, len(parts))
			for m, p := range parts {
				if lns[m], srcs[m], err = techmap.MapKSources(p, lut); err != nil {
					t.Fatal(err)
				}
			}
			if got := joinNetworks("join", lut, lns, srcs, pos); !sameNetwork(got, wantLN) {
				t.Fatalf("seed %d: joined K=%d networks differ from MapK of the join", seed, lut)
			}
		}
	}
	if differentStops < 100 || summedMatters < len(summedStopSeeds) {
		t.Errorf("of %d joins, %d have parts with different stops and %d depend on the summed stop; want 100 and %d",
			len(seeds), differentStops, summedMatters, len(summedStopSeeds))
	}
}

// pass returns rebuild k (from 1) of a Rebuilds chain; rebuilds past
// its end repeat the last.
func pass(chain []Tagged, k int) Tagged { return chain[min(k, len(chain))-1] }
