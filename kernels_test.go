package alice_test

import (
	"context"
	"fmt"
	"testing"

	"alice"
	"alice/internal/openfpga"
)

// TestFullPnRAcrossBenchmarks is the post-optimization regression gate
// for the physical-implementation kernels: every benchmark whose flow
// finds a solution is upgraded to a full placement + routing +
// bitstream, the routing is validated (exclusive RR-node ownership,
// every sink reaches its source), and the programmed fabric is
// simulated against the mapped netlist.
func TestFullPnRAcrossBenchmarks(t *testing.T) {
	ctx := context.Background()
	for _, bm := range alice.Benchmarks() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			if testing.Short() && (bm.Name == "des3" || bm.Name == "sha256") {
				t.Skip("large fabric; skipped in -short")
			}
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = bm.SelectedOutputs
			eng := alice.NewEngine(alice.WithConfig(cfg))
			rep, err := eng.RunSource(ctx, bm.Source())
			if err != nil {
				t.Fatal(err)
			}
			if rep.Err != nil || rep.Solution == nil {
				t.Skipf("no solution under cfg1: %v", rep.Err)
			}
			if err := eng.Implement(ctx, rep.Solution); err != nil {
				t.Fatal(err)
			}
			for _, fc := range rep.Solution.Fabrics {
				f := fc.Fabric
				if f.Routing == nil || f.Bits == nil {
					t.Fatalf("fabric %s not fully implemented", f.Arch.Name())
				}
				if err := f.Routing.Validate(); err != nil {
					t.Errorf("fabric %s: %v", f.Arch.Name(), err)
				}
				if err := openfpga.VerifyBitstream(f, 64, 5); err != nil {
					t.Errorf("fabric %s: %v", f.Arch.Name(), err)
				}
			}
		})
	}
}

// TestFullPnRAcrossFamilies is the architecture-space acceptance gate:
// for K in {3, 5, 6} the full flow — synthesis through bitstream — must
// verify fabric + bitstream == original on every sequential benchmark
// that admits a solution (big designs skipped in -short, mirroring
// TestFullPnRAcrossBenchmarks).
func TestFullPnRAcrossFamilies(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{3, 5, 6} {
		k := k
		for _, bm := range alice.Benchmarks() {
			bm := bm
			t.Run(fmt.Sprintf("K%d/%s", k, bm.Name), func(t *testing.T) {
				if testing.Short() && (bm.Name == "des3" || bm.Name == "sha256" || bm.Name == "fir" || bm.Name == "iir") {
					t.Skip("large fabric; skipped in -short")
				}
				cfg := alice.Cfg1()
				cfg.SelectedOutputs = bm.SelectedOutputs
				cfg.ArchSpace = []alice.ArchParams{{LUTSize: k}}
				eng := alice.NewEngine(alice.WithConfig(cfg))
				rep, err := eng.RunSource(ctx, bm.Source())
				if err != nil {
					t.Fatal(err)
				}
				if rep.Err != nil || rep.Solution == nil {
					t.Skipf("no solution under cfg1 at K=%d: %v", k, rep.Err)
				}
				if err := eng.Implement(ctx, rep.Solution); err != nil {
					t.Fatal(err)
				}
				for _, fc := range rep.Solution.Fabrics {
					f := fc.Fabric
					if f.Arch.LUTSize != k {
						t.Fatalf("fabric %s has LUT size %d, want %d", f.Arch.FullName(), f.Arch.LUTSize, k)
					}
					if f.LUTs.K != k {
						t.Fatalf("fabric %s mapped at K=%d, want %d", f.Arch.FullName(), f.LUTs.K, k)
					}
					if err := f.Routing.Validate(); err != nil {
						t.Errorf("fabric %s: %v", f.Arch.FullName(), err)
					}
					if err := openfpga.VerifyBitstream(f, 64, 5); err != nil {
						t.Errorf("fabric %s: %v", f.Arch.FullName(), err)
					}
				}
			})
		}
	}
}

// TestImplementDeterministic verifies the same-seed contract of the
// physical-implementation kernels: packing, placing, routing, and
// programming the same mapped network twice yields identical placement
// costs, iteration counts, and bit-for-bit identical bitstreams,
// starting from one flow run's fabrics.
func TestImplementDeterministic(t *testing.T) {
	ctx := context.Background()
	bm, _ := alice.BenchmarkByName("gcd")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = bm.SelectedOutputs
	eng := alice.NewEngine(alice.WithConfig(cfg))
	rep, err := eng.RunSource(ctx, bm.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("flow: %v", rep.Err)
	}
	opts := openfpga.DefaultOptions()
	opts.FullPnR = true
	for i, fc := range rep.Solution.Fabrics {
		fa, err := openfpga.Recharacterize(ctx, fc.Fabric, opts)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := openfpga.Recharacterize(ctx, fc.Fabric, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fa.Arch.Name() != fb.Arch.Name() {
			t.Errorf("fabric %d: %s vs %s", i, fa.Arch.Name(), fb.Arch.Name())
		}
		if fa.Placement.Cost != fb.Placement.Cost {
			t.Errorf("fabric %d: placement cost %v vs %v", i, fa.Placement.Cost, fb.Placement.Cost)
		}
		if fa.Routing.Iterations != fb.Routing.Iterations {
			t.Errorf("fabric %d: route iterations %d vs %d", i, fa.Routing.Iterations, fb.Routing.Iterations)
		}
		if fa.Bits.N != fb.Bits.N {
			t.Errorf("fabric %d: config bits %d vs %d", i, fa.Bits.N, fb.Bits.N)
		}
		for j := range fa.Bits.B {
			if fa.Bits.B[j] != fb.Bits.B[j] {
				t.Errorf("fabric %d: bitstream differs at word %d", i, j)
				break
			}
		}
	}
}

// TestWholeFlowDeterministic gates bit-determinism of the entire flow —
// synthesis frontend included: two independent runs from Verilog source
// (engines, parsers, caches all separate) must select the same fabrics
// and, after implementation, produce bit-for-bit identical bitstreams.
// This extends TestImplementDeterministic's mapped-network-down gate to
// whole-flow runs, closing the ROADMAP's frontend-nondeterminism item;
// the multi-module cluster wrappers of gcd exercise the symbolic-
// execution merge paths that used to depend on map iteration order.
func TestWholeFlowDeterministic(t *testing.T) {
	ctx := context.Background()
	bm, _ := alice.BenchmarkByName("gcd")
	runOnce := func(space []alice.ArchParams) []*alice.FabricCandidate {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = bm.SelectedOutputs
		cfg.ArchSpace = space
		eng := alice.NewEngine(alice.WithConfig(cfg))
		rep, err := eng.RunSource(ctx, bm.Source())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatalf("flow: %v", rep.Err)
		}
		if err := eng.Implement(ctx, rep.Solution); err != nil {
			t.Fatal(err)
		}
		return rep.Solution.Fabrics
	}
	spaces := [][]alice.ArchParams{
		nil,                            // the paper's default family
		{alice.ArchParams{LUTSize: 5}}, // a non-default family
	}
	for _, space := range spaces {
		fa := runOnce(space)
		fb := runOnce(space)
		if len(fa) != len(fb) {
			t.Fatalf("space %v: %d vs %d fabrics", space, len(fa), len(fb))
		}
		for i := range fa {
			a, b := fa[i].Fabric, fb[i].Fabric
			if a.Arch != b.Arch {
				t.Errorf("space %v fabric %d: arch %s vs %s", space, i, a.Arch.FullName(), b.Arch.FullName())
				continue
			}
			if a.Bits.N != b.Bits.N {
				t.Errorf("space %v fabric %d: %d vs %d config bits", space, i, a.Bits.N, b.Bits.N)
				continue
			}
			for j := range a.Bits.B {
				if a.Bits.B[j] != b.Bits.B[j] {
					t.Errorf("space %v fabric %d: bitstreams differ at word %d", space, i, j)
					break
				}
			}
		}
	}
}
