package alice_test

import (
	"context"
	"errors"
	"fmt"
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

// checkParallelMatchesSequential runs every paper benchmark under both
// configurations at parallelism 1 and par, and fails unless the parallel
// run reproduces the sequential run's Table-2 row (modulo timing),
// diagnostic, score, fabrics and redacted instances.
func checkParallelMatchesSequential(t *testing.T, par int) {
	t.Helper()
	ctx := context.Background()
	for _, bm := range alice.Benchmarks() {
		ast, err := alice.Parse(bm.Source())
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		for ci := range equivCfgs(bm.Name) {
			run := func(n int) *alice.Report {
				cfg := equivCfgs(bm.Name)[ci]
				cfg.SelectedOutputs = bm.SelectedOutputs
				rep, err := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(n)).Run(ctx, ast)
				if err != nil {
					t.Fatalf("%s cfg%d parallelism %d: %v", bm.Name, ci+1, n, err)
				}
				return rep
			}
			seq := run(1)
			if bm.Name == "gcd" && seq.Err != nil {
				// gcd has a solution under both configurations, so the
				// score comparison below is never vacuous.
				t.Fatalf("gcd cfg%d: %v", ci+1, seq.Err)
			}
			rep := run(par)
			if got, want := normalizedRow(rep), normalizedRow(seq); got != want {
				t.Errorf("%s cfg%d parallelism %d: row\n  %q\nsequential row\n  %q", bm.Name, ci+1, par, got, want)
			}
			if fmt.Sprint(rep.Err) != fmt.Sprint(seq.Err) {
				t.Errorf("%s cfg%d parallelism %d: diagnostic %v, sequential %v", bm.Name, ci+1, par, rep.Err, seq.Err)
			}
			if (rep.Solution == nil) != (seq.Solution == nil) {
				t.Fatalf("%s cfg%d parallelism %d: solution %v, sequential %v", bm.Name, ci+1, par, rep.Solution, seq.Solution)
			}
			if seq.Solution != nil && rep.Solution.Score != seq.Solution.Score {
				t.Errorf("%s cfg%d parallelism %d: score %v, sequential %v", bm.Name, ci+1, par, rep.Solution.Score, seq.Solution.Score)
			}
			if rep.FabricSizes != seq.FabricSizes {
				t.Errorf("%s cfg%d parallelism %d: fabrics %s, sequential %s", bm.Name, ci+1, par, rep.FabricSizes, seq.FabricSizes)
			}
			if got, want := redactedPaths(rep.Solution), redactedPaths(seq.Solution); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("%s cfg%d parallelism %d: redacted instances %v, sequential %v", bm.Name, ci+1, par, got, want)
			}
		}
	}
}

// TestEngineMatchesLegacyRun checks that the Engine at parallelism 4
// reproduces the sequential run, the reference the one-shot pipeline
// the Engine replaced used to provide.
func TestEngineMatchesLegacyRun(t *testing.T) {
	checkParallelMatchesSequential(t, 4)
}

// TestParallelCharacterizationEquivalence proves the worker pool is
// purely a speedup: at parallelism 8 every paper benchmark gets the
// sequential run's results.
func TestParallelCharacterizationEquivalence(t *testing.T) {
	checkParallelMatchesSequential(t, 8)
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
// cancelled context aborts immediately, and a short deadline stops the
// corpus's longest run (DES3's full characterization sweep and
// selection) promptly.
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
	// enumerates 3 151 solutions, about 0.6 s on two cores; a 50ms
	// deadline must stop it.
	d3, _ := alice.BenchmarkByName("des3")
	cfg3 := alice.Cfg1()
	cfg3.SelectedOutputs = d3.SelectedOutputs
	eng3 := alice.NewEngine(alice.WithConfig(cfg3))
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
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

	// Each stage reads the clock once: its end event's Duration is its
	// Report field, and SelectTime adds the select stage to
	// characterization (the paper's phase-3 accounting).
	took := map[alice.Stage]time.Duration{}
	for _, ev := range events {
		if ev.Kind == alice.EventStageEnd {
			took[ev.Stage] = ev.Duration
		}
	}
	for _, c := range []struct {
		stage alice.Stage
		field time.Duration
	}{
		{alice.StageFilter, rep.FilterTime},
		{alice.StageCluster, rep.ClusterTime},
		{alice.StageCharacterize, rep.CharacterizeTime},
		{alice.StageSelect, rep.SelectTime - rep.CharacterizeTime},
	} {
		if took[c.stage] != c.field {
			t.Errorf("%s end event lasted %v, report field %v", c.stage, took[c.stage], c.field)
		}
	}
	if rep.SelectTime != rep.CharacterizeTime+took[alice.StageSelect] {
		t.Errorf("SelectTime %v != CharacterizeTime %v + select %v", rep.SelectTime, rep.CharacterizeTime, took[alice.StageSelect])
	}

	// Characterize called on its own reports progress too: one event
	// per (cluster, family) slot, and nothing else.
	cfg.ArchSpace = []alice.ArchParams{{LUTSize: 3}, {LUTSize: 4}}
	ctx := context.Background()
	ast, err := alice.Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Elaborate(ctx, ast)
	if err != nil {
		t.Fatal(err)
	}
	events = nil
	cands, err := eng.Characterize(ctx, d, rep.Clusters)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * rep.C; len(cands) != want {
		t.Fatalf("characterized %d slots, want %d", len(cands), want)
	}
	for i, ev := range events {
		if ev.Kind != alice.EventProgress || ev.Stage != alice.StageCharacterize || ev.Design != rep.Design ||
			ev.Done != i+1 || ev.Total != len(cands) {
			t.Errorf("standalone characterization event %d = %+v", i, ev)
		}
	}
	if len(events) != len(cands) {
		t.Errorf("standalone characterization sent %d events, want one per slot (%d)", len(events), len(cands))
	}
}

// TestRunBatchObserver runs a batch under an observer that appends to
// an unlocked slice, so the race detector fails it unless event
// delivery is serialized across the batch's concurrent designs. Each
// design's events, durations aside, must be its solo run's.
func TestRunBatchObserver(t *testing.T) {
	ctx := context.Background()
	var events []alice.Event
	record := alice.WithObserver(func(ev alice.Event) { events = append(events, ev) })
	// of lists one design's events in order, without durations.
	of := func(design string) []string {
		var out []string
		for _, ev := range events {
			if ev.Design == design {
				out = append(out, fmt.Sprintf("%d %s count=%d done=%d/%d err=%v",
					ev.Kind, ev.Stage, ev.Count, ev.Done, ev.Total, ev.Err))
			}
		}
		return out
	}

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
	results := alice.NewEngine(alice.WithParallelism(4), record).RunBatch(ctx, jobs)
	batch := map[string][]string{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: hard error %v", names[i], r.Err)
		}
		batch[r.Report.Design] = of(r.Report.Design)
	}

	for i, job := range jobs {
		events = nil
		solo, err := alice.NewEngine(alice.WithConfig(job.Config), record).RunSource(ctx, job.Source)
		if err != nil {
			t.Fatalf("%s solo: %v", names[i], err)
		}
		want := of(solo.Design)
		got := batch[solo.Design]
		if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: batch events\n  %s\nsolo events\n  %s", names[i],
				strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
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
		cfg.ArchSpace = space
		opts := []alice.Option{alice.WithConfig(cfg)}
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
