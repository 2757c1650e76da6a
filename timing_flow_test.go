package alice

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// implFingerprint renders one implemented fabric as
// "design arch bits=N hash=… placecost=… " for the golden comparison.
func implFingerprint(design string, f *FabricCandidate) string {
	h := sha256.Sum256(f.Fabric.Bits.B)
	return fmt.Sprintf("%s %s bits=%d hash=%s placecost=%.4f routeiters=%d",
		design, f.Fabric.Arch.FullName(), f.Fabric.Bits.N, hex.EncodeToString(h[:8]),
		f.Fabric.Placement.Cost, f.Fabric.Routing.Iterations)
}

// TestDefaultModeImplementationGolden pins the default-mode (timing
// off) place & route output bit for bit against the pre-timing-flow
// baseline: identical bitstreams, placement costs, and PathFinder
// iteration counts. The timing subsystem must be a pure read in this
// mode — any deviation here means the flag gate leaked.
func TestDefaultModeImplementationGolden(t *testing.T) {
	golden := []string{
		"gcd 4x4 bits=6176 hash=460cbb8e58f1ddbf placecost=140.0000 routeiters=1",
		"gcd 3x3 bits=3272 hash=18628f5ecb8a3627 placecost=55.0000 routeiters=1",
		"usb_phy 5x5 bits=9906 hash=07d9f1dabb298f7d placecost=127.0000 routeiters=1",
		"usb_phy 5x5 bits=9906 hash=31d67e57803799f4 placecost=126.0000 routeiters=3",
		"sasc 8x8 bits=27840 hash=6d358f24888b609e placecost=574.0000 routeiters=2",
	}
	ctx := context.Background()
	var got []string
	for _, name := range []string{"gcd", "usb_phy", "sasc"} {
		b, ok := BenchmarkByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		cfg := Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		eng := NewEngine(WithConfig(cfg))
		r, err := eng.RunSource(ctx, b.Source())
		if err != nil || r.Err != nil {
			t.Fatalf("%s: %v / %v", name, err, r.Err)
		}
		if err := eng.Implement(ctx, r.Solution); err != nil {
			t.Fatalf("%s implement: %v", name, err)
		}
		for _, f := range r.Solution.Fabrics {
			got = append(got, implFingerprint(name, f))
		}
	}
	if strings.Join(got, "\n") != strings.Join(golden, "\n") {
		t.Fatalf("default-mode implementation deviated from the pre-timing baseline:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(golden, "\n"))
	}
}

// TestImplementationGoldenBothModes pins what the default-mode golden
// above leaves open: the timing-driven place & route path (the router's
// criticality blend, the placer's timing term) and the two largest
// cfg1 winners, fir at 7x7 and sha256 at 13x13, in both modes. Each
// design's fast-mode cfg1 solution is implemented once per mode from
// the same selection, as the implement_corpus benchmark does.
func TestImplementationGoldenBothModes(t *testing.T) {
	golden := []string{
		"gcd/timing 4x4 bits=6176 hash=4a6f8868d6e9e003 placecost=283.4675 routeiters=3",
		"gcd/timing 3x3 bits=3272 hash=b84aa4ac3a397a90 placecost=115.2966 routeiters=1",
		"usb_phy/timing 5x5 bits=9906 hash=9be31b7a6be07165 placecost=254.3791 routeiters=1",
		"usb_phy/timing 5x5 bits=9906 hash=3a5cf3d4c10ba701 placecost=286.9895 routeiters=1",
		"sasc/timing 8x8 bits=27840 hash=82061dd14daccd7e placecost=1211.9372 routeiters=3",
		"fir/default 7x7 bits=20642 hash=9c57f83396bfa21d placecost=423.0000 routeiters=3",
		"fir/timing 7x7 bits=20642 hash=cfb4dff34b0364b9 placecost=911.7905 routeiters=4",
		"sha256/default 13x13 bits=87868 hash=5b8ffa3c494cffba placecost=2561.0000 routeiters=5",
		"sha256/timing 13x13 bits=87868 hash=438d79006265558c placecost=5101.5024 routeiters=6",
	}
	ctx := context.Background()
	var got []string
	for _, c := range []struct {
		name  string
		modes []bool // TimingDriven per implementation
	}{
		{"gcd", []bool{true}},
		{"usb_phy", []bool{true}},
		{"sasc", []bool{true}},
		{"fir", []bool{false, true}},
		{"sha256", []bool{false, true}},
	} {
		b, ok := BenchmarkByName(c.name)
		if !ok {
			t.Fatalf("no benchmark %s", c.name)
		}
		cfg := Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		r, err := NewEngine(WithConfig(cfg)).RunSource(ctx, b.Source())
		if err != nil || r.Err != nil {
			t.Fatalf("%s: %v / %v", c.name, err, r.Err)
		}
		for _, td := range c.modes {
			mcfg := *cfg
			mcfg.TimingDriven = td
			label := c.name + "/default"
			if td {
				label = c.name + "/timing"
			}
			sol := &Solution{Score: r.Solution.Score}
			for _, f := range r.Solution.Fabrics {
				fc := *f // Implement replaces the fabric; keep the fast-mode one
				sol.Fabrics = append(sol.Fabrics, &fc)
			}
			if err := NewEngine(WithConfig(&mcfg)).Implement(ctx, sol); err != nil {
				t.Fatalf("%s implement: %v", label, err)
			}
			for _, f := range sol.Fabrics {
				got = append(got, implFingerprint(label, f))
			}
		}
	}
	if strings.Join(got, "\n") != strings.Join(golden, "\n") {
		t.Fatalf("implementation deviated from the pinned baseline:\ngot:\n%s\nwant:\n%s",
			strings.Join(got, "\n"), strings.Join(golden, "\n"))
	}
}

// TestTimingDrivenImprovesFmax is the headline acceptance check of the
// timing-driven flow: on usb_phy (and sasc), criticality-driven place &
// route strictly improves the exact routed Fmax over the default mode.
// (Not every design improves — gcd's placement is already wirelength-
// optimal and the static criticality profile costs it a few percent —
// which is why timing-driven mode is opt-in.)
func TestTimingDrivenImprovesFmax(t *testing.T) {
	ctx := context.Background()
	solutionFmax := func(name string, timingDriven bool) float64 {
		b, _ := BenchmarkByName(name)
		cfg := Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		cfg.TimingDriven = timingDriven
		eng := NewEngine(WithConfig(cfg))
		r, err := eng.RunSource(ctx, b.Source())
		if err != nil || r.Err != nil {
			t.Fatalf("%s: %v / %v", name, err, r.Err)
		}
		if err := eng.Implement(ctx, r.Solution); err != nil {
			t.Fatalf("%s implement: %v", name, err)
		}
		worst := 0.0
		for _, f := range r.Solution.Fabrics {
			if f.Fabric.Timing == nil || f.Fabric.Timing.Estimated {
				t.Fatalf("%s: implemented fabric lacks exact timing", name)
			}
			if cp := f.Fabric.Timing.CritPathNs; cp > worst {
				worst = cp
			}
		}
		return 1000 / worst
	}
	for _, name := range []string{"usb_phy", "sasc"} {
		def := solutionFmax(name, false)
		td := solutionFmax(name, true)
		if td <= def {
			t.Errorf("%s: timing-driven Fmax %.2f MHz does not beat default %.2f MHz", name, td, def)
		}
	}
}

// TestFmaxFloorFiltersCandidates: an unreachable floor yields a typed
// no-valid-eFPGA diagnostic; a permissive floor changes nothing.
func TestFmaxFloorFiltersCandidates(t *testing.T) {
	b, _ := BenchmarkByName("gcd")
	run := func(floor float64) *Report {
		cfg := Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		cfg.FmaxFloorMHz = floor
		r, err := NewEngine(WithConfig(cfg)).RunSource(context.Background(), b.Source())
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r := run(0); r.Err != nil {
		t.Fatalf("no floor: %v", r.Err)
	}
	if r := run(1); r.Err != nil {
		t.Fatalf("permissive floor: %v", r.Err)
	}
	r := run(1e9)
	if r.Err == nil {
		t.Fatal("impossible floor accepted")
	}
	if !errors.Is(r.Err, ErrBelowFmaxFloor) || !errors.Is(r.Err, ErrNoValidEFPGA) {
		t.Fatalf("flow diagnostic must wrap both sentinels, got: %v", r.Err)
	}
	found := false
	for _, c := range r.Selection.Candidates {
		if c.Fabric != nil && c.Err != nil {
			found = true
			if !errors.Is(c.Err, ErrBelowFmaxFloor) {
				t.Fatalf("unexpected rejection reason: %v", c.Err)
			}
		}
	}
	if !found {
		t.Fatal("no candidate carries the floor rejection")
	}
}

// TestSelectDoesNotPoisonCandidates: the documented Engine pattern —
// characterize once, select under several configurations — must
// survive a strict Fmax floor in between: the floor's per-candidate
// verdicts live on the SelectionResult's copy, never on the caller's
// slice.
func TestSelectDoesNotPoisonCandidates(t *testing.T) {
	ctx := context.Background()
	b, _ := BenchmarkByName("gcd")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	eng := NewEngine(WithConfig(cfg))
	ast, err := Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Elaborate(ctx, ast)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := eng.Filter(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := eng.Cluster(ctx, fr)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := eng.Characterize(ctx, d, clusters)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := eng.Select(ctx, cands)
	if err != nil {
		t.Fatalf("baseline select: %v", err)
	}
	// Strict floor rejects everything...
	cfg.FmaxFloorMHz = 1e9
	if _, err := eng.Select(ctx, cands); !errors.Is(err, ErrBelowFmaxFloor) {
		t.Fatalf("strict floor: want ErrBelowFmaxFloor, got %v", err)
	}
	// ...and a relaxed re-Select over the SAME slice must fully recover.
	cfg.FmaxFloorMHz = 0
	again, err := eng.Select(ctx, cands)
	if err != nil {
		t.Fatalf("re-select after strict floor: %v", err)
	}
	if again.ValidCount != baseline.ValidCount || again.Best.Score != baseline.Best.Score {
		t.Fatalf("selection changed after floor round trip: valid %d->%d score %v->%v",
			baseline.ValidCount, again.ValidCount, baseline.Best.Score, again.Best.Score)
	}
	for i := range cands {
		if cands[i].Err != nil && errors.Is(cands[i].Err, ErrBelowFmaxFloor) {
			t.Fatal("floor verdict leaked into the caller's candidate slice")
		}
	}
}

// TestFmaxFloorRecheckedAfterImplement: selection admits fabrics on
// fast-mode timing estimates, so a floor between the estimate and the
// (slower) routed reality must still fail — typed — when the winner is
// actually implemented, instead of silently shipping a fabric below
// the constraint. usb_phy is the known such case: ~346 MHz estimated,
// ~177 MHz routed in default mode.
func TestFmaxFloorRecheckedAfterImplement(t *testing.T) {
	b, _ := BenchmarkByName("usb_phy")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	cfg.FmaxFloorMHz = 300
	cfg.ImplementWinner = true
	r, err := NewEngine(WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if r.Err == nil {
		t.Fatal("routed fabrics below the floor were accepted")
	}
	if !errors.Is(r.Err, ErrBelowFmaxFloor) {
		t.Fatalf("want ErrBelowFmaxFloor from the implement stage, got: %v", r.Err)
	}
	var fe *FlowError
	if !errors.As(r.Err, &fe) || fe.Stage != StageImplement {
		t.Fatalf("want a StageImplement FlowError, got: %v", r.Err)
	}
}

// TestDelayWeightSteersSelection: with a large enough delay weight, the
// flow must never pick a solution slower than the default choice.
func TestDelayWeightSteersSelection(t *testing.T) {
	b, _ := BenchmarkByName("gcd")
	worstNs := func(weight float64) float64 {
		cfg := Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		cfg.DelayWeight = weight
		r, err := NewEngine(WithConfig(cfg)).RunSource(context.Background(), b.Source())
		if err != nil || r.Err != nil {
			t.Fatalf("%v / %v", err, r.Err)
		}
		w := 0.0
		for _, f := range r.Solution.Fabrics {
			if cp := f.Fabric.Timing.CritPathNs; cp > w {
				w = cp
			}
		}
		return w
	}
	if fast, def := worstNs(8), worstNs(0); fast > def+1e-9 {
		t.Fatalf("delay weight picked a slower solution: %.3f ns vs %.3f ns", fast, def)
	}
}
