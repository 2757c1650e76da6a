// Package pack clusters a mapped LUT network into the BLEs and CLBs of
// an eFPGA fabric (VPack-style greedy packing): first LUT/FF pairs are
// fused into basic logic elements, then BLEs are grouped into CLBs
// under the cluster size and input-pin constraints, maximizing shared
// nets.
package pack

import (
	"fmt"
	"sort"

	"alice/internal/fabric"
	"alice/internal/techmap"
)

// BLE is one basic logic element: an optional LUT and an optional FF.
// Output semantics: if FF >= 0 the BLE output is the registered value;
// the unregistered LUT output remains available only when the FF input
// is that same LUT (fabric BLEs expose one output, selected by a config
// bit).
type BLE struct {
	LUT int32 // LUT node id in the LUTNetwork, or -1
	FF  int32 // FF node id, or -1
}

// Out returns the LUTNetwork node whose value this BLE outputs.
func (b BLE) Out() int32 {
	if b.FF >= 0 {
		return b.FF
	}
	return b.LUT
}

// CLB is a cluster of up to BLEsPerCLB BLEs.
type CLB struct {
	BLEs []BLE
	// Inputs are the LUTNetwork node ids feeding this CLB from outside.
	Inputs []int32
}

// Packing is the result of clustering a LUT network.
type Packing struct {
	Net  *techmap.LUTNetwork
	Arch fabric.Arch
	CLBs []CLB
	// Loc maps each BLE-output node id to its (clb, ble) position.
	Loc map[int32][2]int
}

// NumCLBs returns the number of occupied CLBs.
func (p *Packing) NumCLBs() int { return len(p.CLBs) }

// Pack clusters the LUT network for the given architecture. It fails if
// the network does not fit the fabric's CLB count or if a single BLE's
// connectivity cannot satisfy the CLB input bound.
func Pack(ln *techmap.LUTNetwork, arch fabric.Arch) (*Packing, error) {
	for i, nd := range ln.Nodes {
		if nd.Kind == techmap.LLUT && len(nd.In) > arch.LUTSize {
			return nil, fmt.Errorf("pack: %s: LUT %d has %d inputs but fabric %s LUTs have %d",
				ln.Name, i, len(nd.In), arch.Name(), arch.LUTSize)
		}
	}
	bles, err := buildBLEs(ln)
	if err != nil {
		return nil, err
	}
	clbs, err := clusterBLEs(ln, bles, arch)
	if err != nil {
		return nil, err
	}
	if len(clbs) > arch.CLBCount() {
		return nil, fmt.Errorf("pack: %s needs %d CLBs but fabric %s has %d",
			ln.Name, len(clbs), arch.Name(), arch.CLBCount())
	}
	p := &Packing{Net: ln, Arch: arch, CLBs: clbs, Loc: make(map[int32][2]int)}
	for ci := range clbs {
		for bi, b := range clbs[ci].BLEs {
			p.Loc[b.Out()] = [2]int{ci, bi}
		}
	}
	return p, nil
}

// buildBLEs fuses FFs with their driving LUTs where legal.
func buildBLEs(ln *techmap.LUTNetwork) ([]BLE, error) {
	fanout := make([]int, len(ln.Nodes))
	for _, n := range ln.Nodes {
		for _, in := range n.In {
			fanout[in]++
		}
	}
	for _, po := range ln.POs {
		fanout[po]++
	}
	usedLUT := make(map[int32]bool)
	var bles []BLE
	for _, f := range ln.FFs {
		d := ln.Nodes[f].In[0]
		if ln.Nodes[d].Kind == techmap.LLUT && fanout[d] == 1 && !usedLUT[d] {
			// Fuse: LUT feeds only this FF.
			usedLUT[d] = true
			bles = append(bles, BLE{LUT: d, FF: f})
		} else {
			bles = append(bles, BLE{LUT: -1, FF: f})
		}
	}
	for i, n := range ln.Nodes {
		if n.Kind == techmap.LLUT && !usedLUT[int32(i)] {
			bles = append(bles, BLE{LUT: int32(i), FF: -1})
		}
	}
	return bles, nil
}

// bleInputs returns the external nodes a BLE reads.
func bleInputs(ln *techmap.LUTNetwork, b BLE) []int32 {
	var ins []int32
	if b.LUT >= 0 {
		ins = append(ins, ln.Nodes[b.LUT].In...)
	}
	if b.FF >= 0 {
		d := ln.Nodes[b.FF].In[0]
		if d != b.LUT {
			ins = append(ins, d)
		}
	}
	return ins
}

// clusterBLEs groups BLEs into CLBs greedily by attraction (number of
// shared nets), respecting the cluster size and external-input bounds.
// Seeds go in order of descending input count; each free slot takes
// the feasible BLE with the highest gain, the earliest in that order
// among equals.
//
// Only BLEs that share a node with the growing cluster can score above
// zero: a BLE gains when it reads a node some member reads, reads a
// member's output, or produces a node some member reads. So when a BLE
// joins, the readers of its inputs and of its output and the producers
// of its inputs become touched, and only touched BLEs are scored. When
// no touched BLE fits, every feasible BLE scores zero and the slot
// takes the first one in seed order. The cluster's input/output sets
// and external-input count live in generation-stamped flat arrays and
// are updated incrementally, so scoring a candidate costs its fan-in.
// The CLBs equal those of scoring every unplaced BLE for every slot
// (clusterBLEsReference in the tests).
func clusterBLEs(ln *techmap.LUTNetwork, bles []BLE, arch fabric.Arch) ([]CLB, error) {
	n := len(bles)
	placed := make([]bool, n)
	// Precompute each BLE's raw input list (with repeats, for gain
	// scoring) and its deduplicated non-constant list (for external-
	// input accounting).
	rawIns := make([][]int32, n)
	dedupIns := make([][]int32, n)
	isConst := func(nd int32) bool {
		k := ln.Nodes[nd].Kind
		return k == techmap.LConst0 || k == techmap.LConst1
	}
	for i := range bles {
		raw := bleInputs(ln, bles[i])
		rawIns[i] = raw
		var ded []int32
		for _, in := range raw {
			if isConst(in) {
				continue
			}
			dup := false
			for _, o := range ded {
				if o == in {
					dup = true
					break
				}
			}
			if !dup {
				ded = append(ded, in)
			}
		}
		dedupIns[i] = ded
	}
	// Sort seeds by descending input count for better fills.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return len(rawIns[order[a]]) > len(rawIns[order[b]])
	})
	rank := make([]int, n)
	for r, b := range order {
		rank[b] = r
	}

	// readers[start[x]:start[x+1]] are the BLEs that read node x (a BLE
	// that reads x twice appears twice); producer[x] is the BLE that
	// outputs x, or -1.
	start := make([]int32, len(ln.Nodes)+1)
	for _, ins := range rawIns {
		for _, in := range ins {
			start[in+1]++
		}
	}
	for x := range ln.Nodes {
		start[x+1] += start[x]
	}
	readers := make([]int32, start[len(ln.Nodes)])
	fill := append([]int32(nil), start[:len(ln.Nodes)]...)
	for b, ins := range rawIns {
		for _, in := range ins {
			readers[fill[in]] = int32(b)
			fill[in]++
		}
	}
	producer := make([]int32, len(ln.Nodes))
	for x := range producer {
		producer[x] = -1
	}
	for b := range bles {
		producer[bles[b].Out()] = int32(b)
	}

	// Generation-stamped member sets: inMark marks nodes read by some
	// member (including constants, matching the gain score), outMark
	// marks member outputs. extNow counts the distinct non-constant
	// member inputs not produced inside the cluster.
	inMark := make([]uint32, len(ln.Nodes))
	outMark := make([]uint32, len(ln.Nodes))
	var gen uint32
	extNow := 0

	// join adds a BLE to the current cluster, updating the sets and the
	// external-input count.
	join := func(b int) {
		out := bles[b].Out()
		if inMark[out] == gen && outMark[out] != gen {
			extNow-- // an input some member read is now produced inside
		}
		outMark[out] = gen
		for _, in := range dedupIns[b] {
			if inMark[in] != gen && outMark[in] != gen {
				extNow++
			}
		}
		for _, in := range rawIns[b] {
			inMark[in] = gen
		}
	}
	// trialExt returns the cluster's external-input count if cand joined.
	trialExt := func(cand int) int {
		out := bles[cand].Out()
		delta := 0
		if inMark[out] == gen && outMark[out] != gen {
			delta--
		}
		for _, in := range dedupIns[cand] {
			if inMark[in] != gen && outMark[in] != gen && in != out {
				delta++
			}
		}
		return extNow + delta
	}
	// gainOf scores candidate-to-member attraction: shared inputs plus
	// direct producer-consumer adjacency.
	gainOf := func(cand int) int {
		gain := 0
		for _, in := range rawIns[cand] {
			if inMark[in] == gen {
				gain++
			}
			if outMark[in] == gen {
				gain += 2 // direct producer-consumer adjacency is best
			}
		}
		if inMark[bles[cand].Out()] == gen {
			gain += 2
		}
		return gain
	}

	// external recomputes a final cluster's distinct external inputs in
	// deterministic member order (this order defines the CLB pin
	// assignment downstream).
	external := func(members []int) []int32 {
		inside := make(map[int32]bool)
		for _, m := range members {
			inside[bles[m].Out()] = true
		}
		seen := make(map[int32]bool)
		var ext []int32
		for _, m := range members {
			for _, in := range rawIns[m] {
				if isConst(in) || inside[in] || seen[in] {
					continue
				}
				seen[in] = true
				ext = append(ext, in)
			}
		}
		return ext
	}

	// touched lists the BLEs that shared a node with the current cluster
	// while unplaced (the ones that since joined are skipped);
	// touchMark[b] == gen marks them.
	touchMark := make([]uint32, n)
	var touched []int
	touchOne := func(b int32) {
		if b >= 0 && !placed[b] && touchMark[b] != gen {
			touchMark[b] = gen
			touched = append(touched, int(b))
		}
	}
	// touch adds the BLEs whose gain may turn positive once b joins.
	touch := func(b int) {
		for _, in := range rawIns[b] {
			for _, r := range readers[start[in]:start[in+1]] {
				touchOne(r)
			}
			touchOne(producer[in])
		}
		out := bles[b].Out()
		for _, r := range readers[start[out]:start[out+1]] {
			touchOne(r)
		}
	}

	var clbs []CLB
	members := make([]int, 0, arch.BLEsPerCLB)
	next := 0 // order[:next] are all placed
	for _, seed := range order {
		if placed[seed] {
			continue
		}
		gen++
		extNow = 0
		touched = touched[:0]
		members = append(members[:0], seed)
		placed[seed] = true
		join(seed)
		touch(seed)
		if extNow > arch.CLBInputs {
			return nil, fmt.Errorf("pack: %s: a single BLE needs %d inputs, CLB offers %d",
				ln.Name, extNow, arch.CLBInputs)
		}
		for len(members) < arch.BLEsPerCLB {
			best, bestGain := -1, 0
			for _, cand := range touched {
				if placed[cand] || trialExt(cand) > arch.CLBInputs {
					continue
				}
				if gain := gainOf(cand); best == -1 || gain > bestGain || gain == bestGain && rank[cand] < rank[best] {
					bestGain, best = gain, cand
				}
			}
			if best == -1 {
				// Every feasible BLE scores zero: take the first.
				for next < n && placed[order[next]] {
					next++
				}
				for _, cand := range order[next:] {
					if !placed[cand] && trialExt(cand) <= arch.CLBInputs {
						best = cand
						break
					}
				}
			}
			if best == -1 {
				break
			}
			members = append(members, best)
			placed[best] = true
			join(best)
			touch(best)
		}
		clb := CLB{}
		for _, m := range members {
			clb.BLEs = append(clb.BLEs, bles[m])
		}
		clb.Inputs = external(members)
		clbs = append(clbs, clb)
	}
	return clbs, nil
}

// Validate checks packing invariants: every LUT/FF appears exactly once,
// cluster sizes and input bounds hold.
func (p *Packing) Validate() error {
	seen := make(map[int32]int)
	for ci, clb := range p.CLBs {
		if len(clb.BLEs) > p.Arch.BLEsPerCLB {
			return fmt.Errorf("pack: CLB %d has %d BLEs (max %d)", ci, len(clb.BLEs), p.Arch.BLEsPerCLB)
		}
		if len(clb.Inputs) > p.Arch.CLBInputs {
			return fmt.Errorf("pack: CLB %d has %d inputs (max %d)", ci, len(clb.Inputs), p.Arch.CLBInputs)
		}
		for _, b := range clb.BLEs {
			if b.LUT >= 0 {
				seen[b.LUT]++
			}
			if b.FF >= 0 {
				seen[b.FF]++
			}
		}
	}
	for i, n := range p.Net.Nodes {
		want := 0
		if n.Kind == techmap.LLUT || n.Kind == techmap.LFF {
			want = 1
		}
		if got := seen[int32(i)]; got != want {
			return fmt.Errorf("pack: node %d (%s) packed %d times, want %d", i, n.Kind, got, want)
		}
	}
	return nil
}
