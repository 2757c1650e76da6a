package pack

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/techmap"
)

func randomLUTNetwork(r *rand.Rand, k int) *techmap.LUTNetwork {
	bd := netlist.NewBuilder("r")
	var pool []int32
	for i := 0; i < 2+r.Intn(6); i++ {
		pool = append(pool, bd.Input(string(rune('a'+i))))
	}
	var dffs []int32
	for i := 0; i < r.Intn(5); i++ {
		d := bd.DFF()
		dffs = append(dffs, d)
		pool = append(pool, d)
	}
	pick := func() int32 { return pool[r.Intn(len(pool))] }
	for i := 0; i < 10+r.Intn(80); i++ {
		var id int32
		switch r.Intn(4) {
		case 0:
			id = bd.And(pick(), pick())
		case 1:
			id = bd.Or(pick(), pick())
		case 2:
			id = bd.Xor(pick(), pick())
		case 3:
			id = bd.Mux(pick(), pick(), pick())
		}
		pool = append(pool, id)
	}
	for _, d := range dffs {
		bd.SetD(d, pick())
	}
	for i := 0; i < 1+r.Intn(5); i++ {
		bd.Output("o", pick())
	}
	ln, err := techmap.MapK(opt.Optimize(bd.N), k)
	if err != nil {
		panic(err)
	}
	return ln
}

// Property: packing is a partition (every LUT/FF exactly once) under
// all constraints.
func TestQuickPackIsValidPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ln := randomLUTNetwork(r, techmap.DefaultK)
		arch := fabric.NewArch(8)
		p, err := Pack(ln, arch)
		if err != nil {
			t.Logf("pack failed: %v", err)
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPackRespectsCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ln := randomLUTNetwork(r, techmap.DefaultK)
	needed := ln.NumLUTs() + ln.NumFFs() // upper bound on BLEs
	// A fabric that's clearly too small must fail.
	tiny := fabric.NewArch(1)
	if needed > tiny.LUTCapacity() {
		if _, err := Pack(ln, tiny); err == nil {
			t.Error("packing into a too-small fabric should fail")
		}
	}
	// A big fabric succeeds.
	big := fabric.NewArch(10)
	p, err := Pack(ln, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPackFusesLUTFFPairs(t *testing.T) {
	bd := netlist.NewBuilder("fuse")
	a := bd.Input("a")
	b := bd.Input("b")
	x := bd.And(a, b)
	d := bd.DFF()
	bd.SetD(d, x)
	bd.Output("q", d)
	ln, err := techmap.Map(bd.N)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Pack(ln, fabric.NewArch(2))
	if err != nil {
		t.Fatal(err)
	}
	// One BLE: fused LUT+FF.
	total := 0
	for _, clb := range p.CLBs {
		for _, ble := range clb.BLEs {
			total++
			if ble.LUT < 0 || ble.FF < 0 {
				t.Errorf("expected fused BLE, got %+v", ble)
			}
		}
	}
	if total != 1 {
		t.Errorf("BLEs = %d, want 1", total)
	}
}

// clusterBLEsReference is the straightforward greedy packer that
// clusterBLEs must reproduce: for every CLB slot it scores every
// unplaced BLE in seed order and keeps the first feasible one with the
// highest gain, so its work grows with the square of the network.
// TestClusterBLEsMatchesReference compares the two.
func clusterBLEsReference(ln *techmap.LUTNetwork, bles []BLE, arch fabric.Arch) ([]CLB, error) {
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

	var clbs []CLB
	members := make([]int, 0, arch.BLEsPerCLB)
	for _, seed := range order {
		if placed[seed] {
			continue
		}
		gen++
		extNow = 0
		members = append(members[:0], seed)
		placed[seed] = true
		join(seed)
		if extNow > arch.CLBInputs {
			return nil, fmt.Errorf("pack: %s: a single BLE needs %d inputs, CLB offers %d",
				ln.Name, extNow, arch.CLBInputs)
		}
		for len(members) < arch.BLEsPerCLB {
			best, bestGain := -1, -1
			for _, cand := range order {
				if placed[cand] {
					continue
				}
				if trialExt(cand) > arch.CLBInputs {
					continue
				}
				if gain := gainOf(cand); gain > bestGain {
					bestGain, best = gain, cand
				}
			}
			if best == -1 {
				break
			}
			members = append(members, best)
			placed[best] = true
			join(best)
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

// TestClusterBLEsMatchesReference packs random networks under random
// fabric families (K 4-6, N 1-10, half of them with I between K, the
// tightest legal value, and K+5) and demands the CLBs and the error of
// the reference packer.
func TestClusterBLEsMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		k := 4 + r.Intn(3)
		fam := fabric.Params{LUTSize: k, BLEsPerCLB: 1 + r.Intn(10)}
		if seed%2 == 1 {
			fam.CLBInputs = k + r.Intn(6)
		}
		arch := fam.At(1)
		ln := randomLUTNetwork(r, k)
		bles, err := buildBLEs(ln)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := clusterBLEs(ln, bles, arch)
		want, wantErr := clusterBLEsReference(ln, bles, arch)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("seed %d %s: error %v, reference %v", seed, fam.Name(), gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d %s: CLBs differ from the reference packer\n got %v\nwant %v", seed, fam.Name(), got, want)
		}
	}
}
