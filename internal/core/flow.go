package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"alice/internal/openfpga"
	"alice/internal/rtl"
	"alice/internal/verilog"
)

// Report is the outcome of one full ALICE run: the Table-2 row of the
// paper plus the artifacts behind it.
type Report struct {
	Design    string
	Instances int // redactable instances in the design

	// Phase metrics (Table 2 columns). SelectTime covers phase 3 of the
	// paper's accounting — characterization plus selection — so Row()
	// matches the legacy output; CharacterizeTime is the
	// characterization share of it.
	FilterTime       time.Duration
	R                int // candidate redaction modules
	ClusterTime      time.Duration
	C                int // candidate module clusters
	CharacterizeTime time.Duration
	SelectTime       time.Duration
	ValidEFPGAs      int
	S                int // admissible solutions
	FabricSizes      string
	Redacted         int // redacted module instances

	// Artifacts.
	Filter    *FilterResult
	Clusters  []Cluster
	Selection *SelectionResult
	Solution  *Solution
	Redaction *Redaction

	// Err is the flow's terminal diagnostic when no solution exists
	// (e.g. IIR under cfg1 in the paper). It is a *FlowError wrapping
	// one of the stage sentinels (ErrNoCandidates, ErrNoCluster,
	// ErrNoValidEFPGA, ErrNoSolution, ...), so callers can dispatch with
	// errors.Is / errors.As.
	Err error
}

// Row renders the report as a Table-2-style line.
func (r *Report) Row() string {
	if r.Err != nil && r.Solution == nil {
		return fmt.Sprintf("%-10s %4d | %8.2fs %3d | %8.2fs %4s | %8s %7s %6s | %-12s %s",
			r.Design, r.Instances, r.FilterTime.Seconds(), r.R,
			r.ClusterTime.Seconds(), dash(r.R > 0, r.C),
			"-", "-", "-", "-", "(n.a.)")
	}
	return fmt.Sprintf("%-10s %4d | %8.2fs %3d | %8.2fs %4d | %8.2fs %7d %6d | %-12s %d",
		r.Design, r.Instances, r.FilterTime.Seconds(), r.R,
		r.ClusterTime.Seconds(), r.C,
		r.SelectTime.Seconds(), r.ValidEFPGAs, r.S,
		r.FabricSizes, r.Redacted)
}

func dash(ok bool, v int) string {
	if ok {
		return fmt.Sprint(v)
	}
	return "-"
}

// EventKind distinguishes observer notifications.
type EventKind int

const (
	// EventStageStart fires when a pipeline stage begins.
	EventStageStart EventKind = iota
	// EventStageEnd fires when a stage completes (Duration and Count
	// are set; Err carries the stage diagnostic, if any).
	EventStageEnd
	// EventProgress fires during characterization after each cluster
	// (Done/Total are set).
	EventProgress
)

// Event is one observer notification from a pipeline run.
type Event struct {
	Kind     EventKind
	Stage    Stage
	Design   string
	Duration time.Duration // stage end
	Count    int           // stage result cardinality (|R|, |C|, valid, ...)
	Done     int           // progress
	Total    int           // progress
	Err      error         // stage diagnostic
}

// Observer receives pipeline events. The runner serializes calls, so an
// observer needs no locking of its own even under parallel
// characterization or RunBatch.
type Observer func(Event)

// RunOptions tunes a pipeline run beyond the flow Config.
type RunOptions struct {
	// Parallelism bounds the characterization worker pool, the fabrics
	// implemented at once (and the concurrent designs of a batch run).
	// Values below 1 mean sequential.
	Parallelism int
	// Observer receives per-stage progress events.
	Observer Observer
	// Cache memoizes cluster characterizations across runs.
	Cache Cache
}

// RunPipeline executes the staged flow: Elaborate → Filter → Cluster →
// Characterize → Select → Implement → Redact. Flow diagnostics (no
// candidates, no cluster, no solution) land in Report.Err as stage-
// attributed errors; hard failures (bad config, elaboration errors,
// context cancellation) are returned as the error.
func RunPipeline(ctx context.Context, ast *verilog.Design, cfg *Config, opts RunOptions) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	obs := serializeObserver(opts.Observer)

	d, err := rtl.Elaborate(ast, cfg.Top)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Design:    d.Top.Name,
		Instances: len(d.NonRootInstances()),
	}
	design := rep.Design
	stageStart := func(s Stage) { obs(Event{Kind: EventStageStart, Stage: s, Design: design}) }
	stageEnd := func(s Stage, t0 time.Time, count int, err error) {
		obs(Event{Kind: EventStageEnd, Stage: s, Design: design,
			Duration: time.Since(t0), Count: count, Err: err})
	}

	// Phase 1: module filtering (includes dataflow analysis, as in the
	// paper's time accounting).
	stageStart(StageFilter)
	t0 := time.Now()
	df, err := rtl.NewDataflow(ctx, d)
	if err != nil {
		return nil, err
	}
	fr, err := FilterModules(ctx, d, df, cfg)
	rep.FilterTime = time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.Err = stageErr(StageFilter, design, err)
		stageEnd(StageFilter, t0, 0, rep.Err)
		return rep, nil
	}
	rep.Filter = fr
	rep.R = len(fr.Candidates)
	stageEnd(StageFilter, t0, rep.R, nil)
	if rep.R == 0 {
		rep.Err = stageErr(StageFilter, design, ErrNoCandidates)
		return rep, nil
	}

	// Phase 2: cluster identification.
	stageStart(StageCluster)
	t1 := time.Now()
	clusters, err := IdentifyClusters(ctx, fr.Candidates, cfg)
	rep.ClusterTime = time.Since(t1)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.Err = stageErr(StageCluster, design, err)
		stageEnd(StageCluster, t1, 0, rep.Err)
		return rep, nil
	}
	rep.Clusters = clusters
	rep.C = len(clusters)
	stageEnd(StageCluster, t1, rep.C, nil)
	if rep.C == 0 {
		rep.Err = stageErr(StageCluster, design, ErrNoCluster)
		return rep, nil
	}

	// Phase 3: eFPGA characterization + selection (one phase in the
	// paper's time accounting, hence the shared SelectTime).
	stageStart(StageCharacterize)
	t2 := time.Now()
	cands, err := CharacterizeClusters(ctx, d, clusters, cfg, CharacterizeOptions{
		Parallelism: opts.Parallelism,
		Cache:       opts.Cache,
		Progress: func(done, total int) {
			obs(Event{Kind: EventProgress, Stage: StageCharacterize, Design: design,
				Done: done, Total: total})
		},
	})
	rep.CharacterizeTime = time.Since(t2)
	if err != nil {
		return nil, err // characterization only fails on cancellation
	}
	stageEnd(StageCharacterize, t2, len(cands), nil)

	stageStart(StageSelect)
	tSel := time.Now()
	sel, err := SelectEFPGAs(ctx, cands, cfg)
	// SelectTime spans characterization + selection (the paper's phase-3
	// accounting); the stage event reports selection alone.
	rep.SelectTime = time.Since(t2)
	rep.Selection = sel
	if sel != nil {
		rep.ValidEFPGAs = sel.ValidCount
		rep.S = sel.SolutionCount
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rep.Err = stageErr(StageSelect, design, err)
		stageEnd(StageSelect, tSel, 0, rep.Err)
		return rep, nil
	}
	rep.Solution = sel.Best
	rep.FabricSizes = sel.Best.FabricSizes()
	rep.Redacted = len(sel.Best.RedactedInstances())
	stageEnd(StageSelect, tSel, rep.S, nil)

	if cfg.ImplementWinner {
		stageStart(StageImplement)
		t3 := time.Now()
		if err := ImplementSolution(ctx, sel.Best, cfg, opts.Parallelism); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			rep.Err = stageErr(StageImplement, design, err)
			stageEnd(StageImplement, t3, 0, rep.Err)
			return rep, nil
		}
		stageEnd(StageImplement, t3, len(sel.Best.Fabrics), nil)
	}

	stageStart(StageRedact)
	t4 := time.Now()
	red, err := GenerateRedactedDesign(d, sel.Best, false)
	if err != nil {
		rep.Err = stageErr(StageRedact, design, err)
		stageEnd(StageRedact, t4, 0, rep.Err)
		return rep, nil
	}
	rep.Redaction = red
	stageEnd(StageRedact, t4, rep.Redacted, nil)
	return rep, nil
}

// serializeObserver wraps an observer so events arriving from parallel
// workers are delivered one at a time; a nil observer becomes a no-op.
func serializeObserver(o Observer) Observer {
	if o == nil {
		return func(Event) {}
	}
	var mu sync.Mutex
	return func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		o(ev)
	}
}

// ImplementSolution upgrades every fast-mode fabric of a solution to a
// fully placed, routed, and programmed one, growing fabrics if routing
// requires. The fabrics are independent, so up to parallelism of them
// are implemented at once; values below 1 mean sequential. It returns
// only after every implementation has returned, and applies results
// in fabric order as a sequential run would: the first failing fabric
// is reported, and no later fabric is upgraded past it.
//
// A configured Fmax floor is re-checked against the exact routed
// timing: selection admitted the fabric on an estimate, and an
// implementation that misses the floor anyway is a typed failure, not
// a silent constraint violation.
func ImplementSolution(ctx context.Context, sol *Solution, cfg *Config, parallelism int) error {
	impl := make([]*openfpga.Fabric, len(sol.Fabrics))
	errs := make([]error, len(sol.Fabrics))
	ParallelFor(len(sol.Fabrics), parallelism, func(i int) {
		if f := sol.Fabrics[i].Fabric; f.Bits == nil {
			impl[i], errs[i] = implementFabric(ctx, f, cfg)
		}
	})
	for i, fc := range sol.Fabrics {
		if err := errs[i]; err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			return fmt.Errorf("implementing winning fabric: %w", err)
		}
		if impl[i] != nil {
			fc.Fabric = impl[i]
		}
		if cfg.FmaxFloorMHz > 0 {
			if t := fc.Fabric.Timing; t != nil && !t.Estimated && t.FmaxMHz < cfg.FmaxFloorMHz {
				return fmt.Errorf("implemented fabric %s: routed %.1f MHz < floor %.1f MHz: %w",
					fc.Fabric.Arch.FullName(), t.FmaxMHz, cfg.FmaxFloorMHz, ErrBelowFmaxFloor)
			}
		}
	}
	return nil
}

// implementFabric places, routes and programs a fast-mode fabric,
// growing it if routing requires.
func implementFabric(ctx context.Context, f *openfpga.Fabric, cfg *Config) (*openfpga.Fabric, error) {
	return openfpga.Recharacterize(ctx, f, openfpga.Options{
		MinW:         f.Arch.W,
		MaxW:         cfg.MaxFabric,
		FullPnR:      true,
		Seed:         cfg.Seed,
		RouteIters:   32,
		UnifyClocks:  true,
		TimingDriven: cfg.TimingDriven,
	})
}

// ParallelFor calls f(i) for every i in [0, n), handing the indices out
// in ascending order to up to workers goroutines, and returns once
// every call has returned. With one worker it runs in the caller's
// goroutine. It is the flow's one worker pool: characterization,
// implementation and batch runs all fan out through it. The caller
// feeds the indices through an unbuffered channel: workers claiming
// them from an atomic counter instead measured a higher and more
// erratic peak RSS on the benchmark's flow_corpus.
func ParallelFor(n, workers int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// Summary renders a multi-line human-readable report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s: %d redactable instances\n", r.Design, r.Instances)
	fmt.Fprintf(&b, "  filtering: %v, |R| = %d\n", r.FilterTime, r.R)
	if r.Filter != nil {
		for _, c := range r.Filter.Candidates {
			fmt.Fprintf(&b, "    candidate %-16s score=%d pins=%d instances=%d\n",
				c.Module.Name, c.Score, c.Pins, len(c.Instances))
		}
	}
	fmt.Fprintf(&b, "  clustering: %v, |C| = %d\n", r.ClusterTime, r.C)
	fmt.Fprintf(&b, "  selection: %v, valid eFPGAs = %d, |S| = %d\n", r.SelectTime, r.ValidEFPGAs, r.S)
	if r.Solution != nil {
		fmt.Fprintf(&b, "  solution: fabrics [%s], score %.4f, %d redacted instances\n",
			r.FabricSizes, r.Solution.Score, r.Redacted)
		for _, f := range r.Solution.Fabrics {
			fmt.Fprintf(&b, "    %s: %s pins=%d IOUtil=%.2f CLBUtil=%.2f key=%d bits",
				f.Fabric.Arch.FullName(), f.Cluster.String(), f.Cluster.Pins,
				f.Fabric.IOUtil, f.Fabric.CLBUtil, f.Fabric.ConfigBits())
			if t := f.Fabric.Timing; t != nil {
				est := ""
				if t.Estimated {
					est = " (est)"
				}
				fmt.Fprintf(&b, " critpath=%.2fns fmax=%.0fMHz%s", t.CritPathNs, t.FmaxMHz, est)
			}
			if s := f.Structural; s != nil {
				fmt.Fprintf(&b, " effkey=%d (leaked=%d dead=%d)", s.EffectiveKeyBits, s.LeakedBits, s.DeadBits)
			}
			b.WriteByte('\n')
		}
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "  flow stopped: %v\n", r.Err)
	}
	return b.String()
}
