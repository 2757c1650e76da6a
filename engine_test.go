package alice_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"alice"
)

// normalizedRow renders a report's Table-2 row with the (nondeterministic)
// stage durations zeroed, so two runs of the same flow compare
// byte-for-byte.
func normalizedRow(rep *alice.Report) string {
	c := *rep
	c.FilterTime, c.ClusterTime, c.CharacterizeTime, c.SelectTime = 0, 0, 0, 0
	return c.Row()
}

// redactedPaths lists the instance paths a solution redacts.
func redactedPaths(sol *alice.Solution) []string {
	if sol == nil {
		return nil
	}
	var out []string
	for _, in := range sol.RedactedInstances() {
		out = append(out, in.Path)
	}
	return out
}

// equivCfg returns the two paper configurations for one benchmark. The
// des3 pin budget is reduced (identically for every path under test) to
// keep the suite fast on the default `go test` run; the full-budget
// sweep lives in the Table-2 benchmarks.
func equivCfgs(benchName string) []*alice.Config {
	c1, c2 := alice.Cfg1(), alice.Cfg2()
	if benchName == "des3" {
		c1.MaxIOPins = 24
		c2.MaxIOPins = 24
	}
	return []*alice.Config{c1, c2}
}

// TestEngineMatchesLegacyRun checks the headline compatibility claim:
// the staged Engine pipeline at parallelism 4 produces the same Table-2
// row (modulo timing), the same fabrics, and the same redacted
// instances as the sequential one-shot run, for every paper benchmark
// under both configurations.
func TestEngineMatchesLegacyRun(t *testing.T) {
	ctx := context.Background()
	for _, bm := range alice.Benchmarks() {
		for ci, cfgEngine := range equivCfgs(bm.Name) {
			cfgLegacy := equivCfgs(bm.Name)[ci]
			cfgEngine.SelectedOutputs = bm.SelectedOutputs
			cfgLegacy.SelectedOutputs = bm.SelectedOutputs

			ast, err := alice.Parse(bm.Source())
			if err != nil {
				t.Fatalf("%s: %v", bm.Name, err)
			}
			legacy, err := alice.NewEngine(alice.WithConfig(cfgLegacy), alice.WithParallelism(1)).Run(ctx, ast)
			if err != nil {
				t.Fatalf("%s cfg%d legacy: %v", bm.Name, ci+1, err)
			}

			eng := alice.NewEngine(alice.WithConfig(cfgEngine), alice.WithParallelism(4))
			staged, err := eng.Run(ctx, ast)
			if err != nil {
				t.Fatalf("%s cfg%d engine: %v", bm.Name, ci+1, err)
			}

			if got, want := normalizedRow(staged), normalizedRow(legacy); got != want {
				t.Errorf("%s cfg%d: engine row\n  %q\nlegacy row\n  %q", bm.Name, ci+1, got, want)
			}
			if (staged.Err == nil) != (legacy.Err == nil) {
				t.Errorf("%s cfg%d: diagnostic mismatch: engine %v, legacy %v",
					bm.Name, ci+1, staged.Err, legacy.Err)
			}
			if gp, lp := redactedPaths(staged.Solution), redactedPaths(legacy.Solution); strings.Join(gp, ",") != strings.Join(lp, ",") {
				t.Errorf("%s cfg%d: redacted instances differ: engine %v, legacy %v",
					bm.Name, ci+1, gp, lp)
			}
		}
	}
}

// TestParallelCharacterizationEquivalence proves the worker pool is
// purely a speedup: parallel and sequential characterization select the
// same solutions with the same scores.
func TestParallelCharacterizationEquivalence(t *testing.T) {
	b, _ := alice.BenchmarkByName("gcd")
	ctx := context.Background()

	var reports []*alice.Report
	for _, par := range []int{1, 8} {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(par))
		rep, err := eng.RunSource(ctx, b.Source())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if rep.Err != nil {
			t.Fatalf("parallelism %d: %v", par, rep.Err)
		}
		reports = append(reports, rep)
	}
	seq, par := reports[0], reports[1]
	if a, b := normalizedRow(seq), normalizedRow(par); a != b {
		t.Errorf("rows differ:\n  seq %q\n  par %q", a, b)
	}
	if seq.Solution.Score != par.Solution.Score {
		t.Errorf("scores differ: seq %v, par %v", seq.Solution.Score, par.Solution.Score)
	}
	if a, b := redactedPaths(seq.Solution), redactedPaths(par.Solution); strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("redacted instances differ: seq %v, par %v", a, b)
	}
	if seq.FabricSizes != par.FabricSizes {
		t.Errorf("fabrics differ: seq %s, par %s", seq.FabricSizes, par.FabricSizes)
	}
}

// TestTypedStageErrors checks that flow diagnostics are stage-attributed
// and dispatchable with errors.Is / errors.As.
func TestTypedStageErrors(t *testing.T) {
	ctx := context.Background()

	// IIR under cfg1: the 68-pin filter stage leaves R empty (the
	// paper's "(n.a.)" row).
	b, _ := alice.BenchmarkByName("iir")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(ctx, b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil {
		t.Fatal("iir cfg1 must stop with a diagnostic")
	}
	if !errors.Is(rep.Err, alice.ErrNoCandidates) {
		t.Errorf("errors.Is(ErrNoCandidates) = false for %v", rep.Err)
	}
	var fe *alice.FlowError
	if !errors.As(rep.Err, &fe) {
		t.Fatalf("diagnostic %T is not a *FlowError", rep.Err)
	}
	if fe.Stage != alice.StageFilter {
		t.Errorf("stage = %s, want %s", fe.Stage, alice.StageFilter)
	}
	if fe.Design == "" {
		t.Error("FlowError.Design is empty")
	}

	// SASC with a 1x1-only fabric range: the lone cluster's pins exceed
	// the 16-pin I/O capacity, so selection reports no valid eFPGA.
	g, _ := alice.BenchmarkByName("sasc")
	cfg2 := alice.Cfg1()
	cfg2.SelectedOutputs = g.SelectedOutputs
	cfg2.MinFabric, cfg2.MaxFabric = 1, 1
	rep2, err := alice.NewEngine(alice.WithConfig(cfg2)).RunSource(ctx, g.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rep2.Err, alice.ErrNoValidEFPGA) {
		t.Errorf("errors.Is(ErrNoValidEFPGA) = false for %v", rep2.Err)
	}
	if !errors.As(rep2.Err, &fe) || fe.Stage != alice.StageSelect {
		t.Errorf("no-valid-eFPGA diagnostic not attributed to the select stage: %v", rep2.Err)
	}
}

// TestContextCancellation proves runs are cancellable: an already-
// cancelled context aborts immediately, and a short deadline stops a
// run that would otherwise take tens of seconds (DES3's full
// characterization sweep) promptly.
func TestContextCancellation(t *testing.T) {
	b, _ := alice.BenchmarkByName("gcd")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	eng := alice.NewEngine(alice.WithConfig(cfg))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunSource(ctx, b.Source()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled run returned %v, want context.Canceled", err)
	}

	// DES3 under the full cfg1 budget characterizes 218 clusters and
	// runs for tens of seconds; a 150ms deadline must stop it orders of
	// magnitude sooner.
	d3, _ := alice.BenchmarkByName("des3")
	cfg3 := alice.Cfg1()
	cfg3.SelectedOutputs = d3.SelectedOutputs
	eng3 := alice.NewEngine(alice.WithConfig(cfg3))
	dctx, dcancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer dcancel()
	start := time.Now()
	_, err := eng3.RunSource(dctx, d3.Source())
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline run returned %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the flow is not checking its context", elapsed)
	}
}

// TestRunBatch drives several designs concurrently and checks each
// result matches its individual run, including a design whose flow
// stops with a diagnostic.
func TestRunBatch(t *testing.T) {
	ctx := context.Background()
	names := []string{"gcd", "sasc", "iir", "usb_phy"}
	var jobs []alice.BatchJob
	for _, n := range names {
		b, ok := alice.BenchmarkByName(n)
		if !ok {
			t.Fatalf("benchmark %s missing", n)
		}
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		jobs = append(jobs, alice.BatchJob{Name: n, Source: b.Source(), Config: cfg})
	}
	eng := alice.NewEngine(alice.WithParallelism(4))
	results := eng.RunBatch(ctx, jobs)
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Name != names[i] {
			t.Errorf("result %d name = %s, want %s (order must match jobs)", i, r.Name, names[i])
		}
		if r.Err != nil {
			t.Errorf("%s: hard error %v", r.Name, r.Err)
			continue
		}
		b, _ := alice.BenchmarkByName(r.Name)
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		solo, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(ctx, b.Source())
		if err != nil {
			t.Fatalf("%s solo: %v", r.Name, err)
		}
		if got, want := normalizedRow(r.Report), normalizedRow(solo); got != want {
			t.Errorf("%s: batch row %q != solo row %q", r.Name, got, want)
		}
	}
	// IIR's no-candidate outcome is a flow diagnostic, not a batch error.
	if results[2].Report == nil || results[2].Report.Err == nil {
		t.Error("iir batch result should carry the flow diagnostic in Report.Err")
	}
}

// TestObserverEvents checks the per-stage event stream: ordered
// start/end pairs, characterization progress reaching the cluster
// count, and stage-end counts matching the report.
func TestObserverEvents(t *testing.T) {
	b, _ := alice.BenchmarkByName("gcd")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs

	var events []alice.Event
	eng := alice.NewEngine(
		alice.WithConfig(cfg),
		alice.WithParallelism(4),
		alice.WithObserver(func(ev alice.Event) { events = append(events, ev) }),
	)
	rep, err := eng.RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}

	endCount := map[alice.Stage]int{}
	var stageOrder []alice.Stage
	progress, lastDone := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case alice.EventStageEnd:
			endCount[ev.Stage] = ev.Count
			stageOrder = append(stageOrder, ev.Stage)
		case alice.EventProgress:
			progress++
			if ev.Done < lastDone {
				t.Errorf("progress went backwards: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
			if ev.Total != rep.C {
				t.Errorf("progress total = %d, want |C| = %d", ev.Total, rep.C)
			}
		}
		if ev.Design != rep.Design {
			t.Errorf("event design = %q, want %q", ev.Design, rep.Design)
		}
	}
	wantOrder := []alice.Stage{alice.StageFilter, alice.StageCluster,
		alice.StageCharacterize, alice.StageSelect, alice.StageRedact}
	if len(stageOrder) != len(wantOrder) {
		t.Fatalf("stage ends %v, want %v", stageOrder, wantOrder)
	}
	for i := range wantOrder {
		if stageOrder[i] != wantOrder[i] {
			t.Fatalf("stage ends %v, want %v", stageOrder, wantOrder)
		}
	}
	if endCount[alice.StageFilter] != rep.R {
		t.Errorf("filter count = %d, want %d", endCount[alice.StageFilter], rep.R)
	}
	if endCount[alice.StageCluster] != rep.C {
		t.Errorf("cluster count = %d, want %d", endCount[alice.StageCluster], rep.C)
	}
	if progress != rep.C {
		t.Errorf("progress events = %d, want one per cluster (%d)", progress, rep.C)
	}
}

// TestCharacterizationCache checks the characterize-once / select-twice
// story: a shared cache serves the second configuration from the first
// configuration's characterizations without changing any result.
func TestCharacterizationCache(t *testing.T) {
	b, _ := alice.BenchmarkByName("gcd")
	ctx := context.Background()
	cache := alice.NewCharacterizationCache()

	run := func(cfg *alice.Config, withCache bool) *alice.Report {
		t.Helper()
		cfg.SelectedOutputs = b.SelectedOutputs
		opts := []alice.Option{alice.WithConfig(cfg)}
		if withCache {
			opts = append(opts, alice.WithCache(cache))
		}
		rep, err := alice.NewEngine(opts...).RunSource(ctx, b.Source())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatal(rep.Err)
		}
		return rep
	}

	first := run(alice.Cfg1(), true)
	hits0, misses0, entries0 := cache.Stats()
	if hits0 != 0 || misses0 != first.C || entries0 != first.C {
		t.Errorf("after first run: hits=%d misses=%d entries=%d, want 0/%d/%d",
			hits0, misses0, entries0, first.C, first.C)
	}

	// Same design, same config: every cluster hits.
	second := run(alice.Cfg1(), true)
	hits1, _, _ := cache.Stats()
	if hits1 != second.C {
		t.Errorf("second run hits = %d, want %d", hits1, second.C)
	}
	if normalizedRow(first) != normalizedRow(second) {
		t.Errorf("cached run changed the result:\n  %q\n  %q", normalizedRow(first), normalizedRow(second))
	}

	// cfg2 shares every cluster within its larger pin budget; results
	// must match an uncached cfg2 run exactly.
	cached2 := run(alice.Cfg2(), true)
	fresh2 := run(alice.Cfg2(), false)
	if normalizedRow(cached2) != normalizedRow(fresh2) {
		t.Errorf("cfg2 cached vs fresh rows differ:\n  %q\n  %q",
			normalizedRow(cached2), normalizedRow(fresh2))
	}
	hits2, _, _ := cache.Stats()
	if hits2 <= hits1 {
		t.Errorf("cfg2 run gained no cache hits (hits %d -> %d)", hits1, hits2)
	}
}

// TestReportJSON sanity-checks the machine-readable report.
func TestReportJSON(t *testing.T) {
	b, _ := alice.BenchmarkByName("sasc")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	out, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"design"`, `"solution"`, `"fabrics"`, `"config_bits"`} {
		if !strings.Contains(string(out), want) {
			t.Errorf("JSON report missing %s:\n%s", want, out)
		}
	}

	// A diagnostic run carries the stage attribution.
	i, _ := alice.BenchmarkByName("iir")
	icfg := alice.Cfg1()
	icfg.SelectedOutputs = i.SelectedOutputs
	irep, err := alice.NewEngine(alice.WithConfig(icfg)).RunSource(context.Background(), i.Source())
	if err != nil {
		t.Fatal(err)
	}
	iout, err := irep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(iout), `"error_stage": "filter"`) {
		t.Errorf("diagnostic JSON missing stage attribution:\n%s", iout)
	}
}

// TestArchSpaceEngine drives the engine across an architecture space:
// the candidate grid is cluster-major/family-minor, families select
// different winning fabrics than the default space, and a cache shared
// across two different sweeps serves each (cluster, family) pair its
// own entry (no aliasing).
func TestArchSpaceEngine(t *testing.T) {
	ctx := context.Background()
	bm, _ := alice.BenchmarkByName("gcd")

	run := func(space []alice.ArchParams, cache *alice.CharacterizationCache) *alice.Report {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = bm.SelectedOutputs
		opts := []alice.Option{alice.WithConfig(cfg), alice.WithArchSpace(space...)}
		if cache != nil {
			opts = append(opts, alice.WithCache(cache))
		}
		eng := alice.NewEngine(opts...)
		rep, err := eng.RunSource(ctx, bm.Source())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Err != nil {
			t.Fatalf("flow: %v", rep.Err)
		}
		return rep
	}

	repDefault := run(nil, nil)
	spaceK35 := []alice.ArchParams{{LUTSize: 3}, {LUTSize: 5}}
	repK35 := run(spaceK35, nil)

	// Grid shape: clusters x families, cluster-major.
	if got, want := len(repK35.Selection.Candidates), repK35.C*2; got != want {
		t.Fatalf("candidate grid has %d entries, want %d", got, want)
	}
	for i, c := range repK35.Selection.Candidates {
		wantK := spaceK35[i%2].LUTSize
		if c.Family.LUTSize != wantK {
			t.Fatalf("candidate %d characterized at K=%d, want %d", i, c.Family.LUTSize, wantK)
		}
	}

	// Different spaces must be able to pick different winners.
	if repDefault.FabricSizes == repK35.FabricSizes {
		t.Errorf("default and K{3,5} spaces picked the same fabrics %q", repDefault.FabricSizes)
	}

	// A shared cache across two different sweeps: the second sweep of a
	// superset space hits the overlapping families and still matches the
	// uncached result exactly.
	cache := alice.NewCharacterizationCache()
	first := run(spaceK35, cache)
	_, misses0, _ := cache.Stats()
	superset := []alice.ArchParams{{LUTSize: 3}, {LUTSize: 5}, {LUTSize: 6}}
	second := run(superset, cache)
	hits, misses, _ := cache.Stats()
	if hits == 0 {
		t.Error("superset sweep never hit the cache for overlapping families")
	}
	if newMisses := misses - misses0; newMisses != second.C {
		t.Errorf("superset sweep missed %d times, want %d (one per cluster for the new family)", newMisses, second.C)
	}
	uncached := run(superset, nil)
	if uncached.FabricSizes != second.FabricSizes || uncached.S != second.S {
		t.Errorf("cached sweep selected %q (|S|=%d), uncached %q (|S|=%d)",
			second.FabricSizes, second.S, uncached.FabricSizes, uncached.S)
	}
	if first.FabricSizes != repK35.FabricSizes {
		t.Errorf("cached K{3,5} sweep selected %q, uncached %q", first.FabricSizes, repK35.FabricSizes)
	}
}
