package main

import (
	"context"
	"fmt"

	"alice"
	"alice/internal/core"
	"alice/internal/fabric"
	"alice/internal/openfpga"
	"alice/internal/structural"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// flowParallelism is the engine's characterization pool width in timed
// flow runs: the two cores the benchmark is calibrated on.
const flowParallelism = 2

// redactionSteps is the co-simulation length (64 random patterns per
// step) of each solution's functional-redaction check.
const redactionSteps = 100

// outcome is the Table-2 row of one flow run.
type outcome struct {
	R, C, Valid, S int
	Fabrics        string
	Redacted       int
	NA             bool // no admissible solution: the paper's "(n.a.)"
}

func (o outcome) String() string {
	if o.NA {
		return fmt.Sprintf("R=%d C=%d valid=%d S=%d (n.a.)", o.R, o.C, o.Valid, o.S)
	}
	return fmt.Sprintf("R=%d C=%d valid=%d S=%d fabrics=[%s] redacted=%d", o.R, o.C, o.Valid, o.S, o.Fabrics, o.Redacted)
}

func outcomeOf(rep *alice.Report) outcome {
	return outcome{R: rep.R, C: rep.C, Valid: rep.ValidEFPGAs, S: rep.S,
		Fabrics: rep.FabricSizes, Redacted: rep.Redacted, NA: rep.Solution == nil}
}

// flowCase is one (design, paper configuration) pair of the corpus with
// its Table-2 outcome, pinned from the BENCH.json sweep.
type flowCase struct {
	design string
	cfg    int
	want   outcome
}

// flowCorpus is every paper design but des3 under cfg1 and cfg2. A des3
// flow takes 3-5 s on two cores, so a run could time it only two or
// three times and its median would not repeat; gcd cfg2, with 164
// clusters, keeps characterization the dominant stage.
var flowCorpus = []flowCase{
	{"fir", 1, outcome{1, 1, 1, 1, "7x7", 1, false}},
	{"iir", 1, outcome{NA: true}},
	{"sha256", 1, outcome{1, 1, 1, 1, "13x13", 1, false}},
	{"sasc", 1, outcome{1, 1, 1, 1, "8x8", 1, false}},
	{"usb_phy", 1, outcome{2, 3, 3, 4, "5x5, 5x5", 2, false}},
	{"gcd", 1, outcome{9, 54, 54, 664, "4x4, 3x3", 4, false}},
	{"fir", 2, outcome{3, 3, 3, 3, "7x7", 1, false}},
	{"iir", 2, outcome{2, 2, 2, 2, "8x8", 1, false}},
	{"sha256", 2, outcome{1, 1, 1, 1, "13x13", 1, false}},
	{"sasc", 2, outcome{1, 1, 1, 1, "8x8", 1, false}},
	{"usb_phy", 2, outcome{2, 3, 3, 3, "7x7", 2, false}},
	{"gcd", 2, outcome{10, 164, 164, 164, "5x5", 2, false}},
}

func (fc flowCase) name() string { return fmt.Sprintf("%s/cfg%d", fc.design, fc.cfg) }

// paperConfig is the paper's configuration cfg (1 or 2) with the
// benchmark's protected outputs.
func paperConfig(b alice.Benchmark, cfg int) *alice.Config {
	c := alice.Cfg1()
	if cfg == 2 {
		c = alice.Cfg2()
	}
	c.SelectedOutputs = b.SelectedOutputs
	return c
}

// winningSolution runs the fast-mode cfg1 flow of design and returns the
// chosen solution with the configuration it ran under.
func winningSolution(ctx context.Context, design string) (*alice.Solution, *alice.Config, error) {
	b, ok := alice.BenchmarkByName(design)
	if !ok {
		return nil, nil, fmt.Errorf("unknown design %s", design)
	}
	cfg := paperConfig(b, 1)
	rep, err := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(flowParallelism)).RunSource(ctx, b.Source())
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", design, err)
	}
	if rep.Solution == nil {
		return nil, nil, fmt.Errorf("%s: no solution: %v", design, rep.Err)
	}
	return rep.Solution, cfg, nil
}

func checkOutcome(got, want outcome) error {
	if got != want {
		return fmt.Errorf("Table-2 outcome %v, want %v", got, want)
	}
	return nil
}

// runFlow is the flow_corpus workload. Set-up parses and elaborates
// each design (the Table-1 front end) and warms up with one untimed
// flow per item; each item is one fresh-engine flow with no
// characterization cache.
func runFlow(ctx context.Context, r *run) error {
	var items []item
	for _, fc := range flowCorpus {
		b, ok := alice.BenchmarkByName(fc.design)
		if !ok {
			return fmt.Errorf("unknown design %s", fc.design)
		}
		items = append(items, flowItem(fc, b))
	}
	if err := r.timeSetup(func() error {
		for _, fc := range flowCorpus {
			b, _ := alice.BenchmarkByName(fc.design)
			if _, err := alice.Characterize(b.Source()); err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
		}
		for _, it := range items {
			if err := it.run(ctx); err != nil {
				return fmt.Errorf("%s: %w", it.name, err)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.runItems(ctx, items)
	return nil
}

func flowItem(fc flowCase, b alice.Benchmark) item {
	src := b.Source()
	cfg := paperConfig(b, fc.cfg)
	var last *alice.Report
	return item{
		name: fc.name(),
		run: func(ctx context.Context) error {
			eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(flowParallelism))
			rep, err := eng.RunSource(ctx, src)
			if err != nil {
				return err
			}
			last = rep
			return checkOutcome(outcomeOf(rep), fc.want)
		},
		trace: func(ctx context.Context, tr *tracer) error {
			return traceFlow(ctx, tr, fc.name(), src, cfg, fc.want)
		},
		verify: func(ctx context.Context) error {
			// The solution's functional redaction, with programmed-fabric
			// models, must co-simulate equal to the original design.
			if last == nil || last.Solution == nil {
				return nil
			}
			red, err := alice.GenerateRedactedDesign(src, last.Solution, true)
			if err != nil {
				return err
			}
			return alice.VerifyRedaction(src, red, redactionSteps, 1)
		},
	}
}

// traceFlow runs one flow stage by stage through the Engine at
// parallelism 1, under an item span, then replays characterization and
// selection through their kernels.
func traceFlow(ctx context.Context, tr *tracer, name, src string, cfg *alice.Config, want outcome) error {
	eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(1))
	a0 := tr.allocMB()
	it := tr.begin(nil, "flow.item")
	it.Cover = true
	var got outcome
	stage := func(name string, f func() error) error {
		sp := tr.begin(it, name)
		err := f()
		tr.end(sp)
		return err
	}

	var ast *verilog.Design
	var d *alice.ElaboratedDesign
	var fr *alice.FilterResult
	var clusters []alice.Cluster
	var cands []alice.FabricCandidate
	var sel *alice.SelectionResult
	err := stage("verilog.parse", func() (err error) { ast, err = alice.Parse(src); return })
	if err == nil {
		err = stage("rtl.elaborate", func() (err error) { d, err = eng.Elaborate(ctx, ast); return })
	}
	if err != nil {
		tr.end(it, "item", name)
		return err
	}
	// As in the pipeline, a filter, cluster or select error is the flow's
	// diagnostic (an "n.a." row), not a failure of the run.
	var chSpan, selSpan *span
	if stage("core.filter", func() (err error) { fr, err = eng.Filter(ctx, d); return }) == nil && len(fr.Candidates) > 0 {
		got.R = len(fr.Candidates)
		sp := tr.begin(it, "core.cluster")
		clusters, err = eng.Cluster(ctx, fr)
		tr.end(sp, "clusters", len(clusters))
		if err == nil && len(clusters) > 0 {
			got.C = len(clusters)
			chSpan = tr.begin(it, "core.characterize")
			chSpan.Cover = true
			cands, err = eng.Characterize(ctx, d, clusters)
			tr.end(chSpan, "characterizations", len(cands))
			if err != nil {
				tr.end(it, "item", name)
				return err
			}
			selSpan = tr.begin(it, "core.select")
			sel, err = eng.Select(ctx, cands)
			if sel != nil {
				got.Valid, got.S = sel.ValidCount, sel.SolutionCount
			}
			tr.end(selSpan, "solutions", got.S)
			if err == nil {
				got.Fabrics = sel.Best.FabricSizes()
				got.Redacted = len(sel.Best.RedactedInstances())
				err = stage("core.redact", func() error { _, err := eng.Redact(ctx, d, sel.Best, false); return err })
				if err != nil {
					tr.end(it, "item", name)
					return err
				}
			}
		}
	}
	got.NA = sel == nil || sel.Best == nil
	tr.endItem(it, name, a0)

	if chSpan != nil {
		if err := replayCharacterize(ctx, tr, chSpan, d, clusters, eng.Config(), cands); err != nil {
			return err
		}
	}
	if sel != nil {
		replaySelect(tr, selSpan, sel.Candidates, eng.Config())
	}
	return checkOutcome(got, want)
}

// replayCharacterize re-runs characterization through the kernels the
// library uses, in its order — wrapper, synthesis, technology mapping,
// fabric-size search — one cluster at a time, and compares each fabric
// with the stage's.
func replayCharacterize(ctx context.Context, tr *tracer, parent *span, d *alice.ElaboratedDesign,
	clusters []alice.Cluster, cfg *alice.Config, got []alice.FabricCandidate) error {
	fam := fabric.DefaultParams()
	opts := openfpga.Options{
		MinW: cfg.MinFabric, MaxW: cfg.MaxFabric, FullPnR: cfg.FullPnR, Seed: cfg.Seed,
		RouteIters: 24, UnifyClocks: true, TimingDriven: cfg.TimingDriven, Params: fam,
	}
	if len(got) != len(clusters) {
		return fmt.Errorf("characterize returned %d candidates for %d clusters", len(got), len(clusters))
	}
	for i := range clusters {
		c := clusters[i]
		top := fmt.Sprintf("alice_cluster_%d", i)
		sp := tr.begin(parent, "core.wrapper")
		w := core.BuildClusterWrapper(&c, top)
		ast := &verilog.Design{Modules: append(append([]*verilog.Module(nil), d.AST.Modules...), w)}
		tr.end(sp)

		sp = tr.begin(parent, "openfpga.synthesize")
		n, err := openfpga.Synthesize(ctx, ast, top, opts)
		tr.end(sp)
		var fab *openfpga.Fabric
		if err == nil {
			var ln *techmap.LUTNetwork
			sp = tr.begin(parent, "techmap.map")
			ln, err = openfpga.MapNetlist(n, fabric.Params{LUTSize: fam.LUTSize})
			if err == nil {
				tr.end(sp, "luts", ln.NumLUTs())
				sp = tr.begin(parent, "openfpga.size_search")
				fab, err = openfpga.CharacterizeLUTs(ctx, n, ln, c.Pins, opts)
			}
			tr.end(sp)
		}
		switch want := got[i].Fabric; {
		case (want == nil) != (fab == nil):
			tr.mismatch("%s cluster %d: stage fabric %v, kernel fabric %v (%v)", parent.Name, i, want != nil, fab != nil, err)
		case fab != nil && (fab.Arch.W != want.Arch.W || fab.Packing.NumCLBs() != want.Packing.NumCLBs()):
			tr.mismatch("%s cluster %d: stage %s/%d CLBs, kernel %s/%d CLBs", parent.Name, i,
				want.Arch.Name(), want.Packing.NumCLBs(), fab.Arch.Name(), fab.Packing.NumCLBs())
		}
	}
	return nil
}

// replaySelect re-runs the structural analysis selection performs on
// every characterized candidate. The rest of selection (Eq. 1 ranking
// and the branch-and-bound enumeration) has no public kernel, so select
// spans are not coverage-checked.
func replaySelect(tr *tracer, parent *span, cands []alice.FabricCandidate, cfg *alice.Config) {
	for i, c := range cands {
		if c.Fabric == nil {
			continue
		}
		sp := tr.begin(parent, "structural.analyze")
		rep, err := structural.Analyze(c.Fabric.LUTs, structural.Options{Seed: cfg.Seed})
		if err != nil {
			tr.end(sp)
			tr.mismatch("select candidate %d: structural analysis failed: %v", i, err)
			continue
		}
		tr.end(sp, "effective_bits", rep.EffectiveKeyBits)
		if s := c.Structural; s == nil || s.EffectiveKeyBits != rep.EffectiveKeyBits {
			tr.mismatch("select candidate %d: effective key bits differ from the stage's", i)
		}
	}
}
