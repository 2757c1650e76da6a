package alice

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"alice/internal/core"
	"alice/internal/rtl"
	"alice/internal/verilog"
)

// Engine is the staged entry point of the ALICE flow. It owns a
// configuration plus run-wide resources (worker-pool width, observer,
// characterization cache) and exposes both one-shot runs (Run,
// RunSource, RunBatch) and the individual pipeline stages
// (Filter → Cluster → Characterize → Select → Implement → Redact) with
// inspectable inputs and outputs, so callers can run partial flows and
// reuse intermediates across configurations.
//
//	eng := alice.NewEngine(
//		alice.WithConfig(cfg),
//		alice.WithParallelism(8),
//		alice.WithCache(alice.NewCharacterizationCache()),
//	)
//	report, err := eng.RunSource(ctx, verilogText)
//
// An Engine is safe for concurrent use: each run only reads the
// configuration and shares the (internally locked) cache.
type Engine struct {
	cfg         *Config
	parallelism int
	observer    Observer
	cache       Cache
}

// Option configures an Engine.
type Option func(*Engine)

// WithConfig sets the flow configuration (defaults to DefaultConfig).
// The Engine keeps the pointer, so later field edits are visible to
// subsequent runs.
func WithConfig(cfg *Config) Option {
	return func(e *Engine) {
		if cfg != nil {
			e.cfg = cfg
		}
	}
}

// WithParallelism bounds the characterization worker pool, the number
// of fabrics Implement (and the pipeline's implement stage) places and
// routes at once, and the number of designs RunBatch drives
// concurrently. Values below 1 mean sequential. The default is
// runtime.GOMAXPROCS(0); parallel and sequential runs select and
// implement identical solutions.
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n < 1 {
			n = 1
		}
		e.parallelism = n
	}
}

// WithObserver registers a callback for per-stage progress events.
// Event delivery is serialized, so the observer needs no locking even
// under parallel characterization or RunBatch.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.observer = o }
}

// WithCache attaches a characterization cache, so repeated runs over
// the same design (e.g. selection under cfg1 and cfg2, or a fabric-
// parameter sweep) characterize each cluster once. Any Cache
// implementation works: the in-memory CharacterizationCache, or a
// read-through tier over a disk store (see alice/serve), which makes
// characterizations survive process restarts without the Engine
// knowing.
func WithCache(c Cache) Option {
	return func(e *Engine) { e.cache = c }
}

// NewEngine builds an Engine from options.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		cfg:         DefaultConfig(),
		parallelism: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(e)
	}
	if e.observer != nil {
		// The one serialization point: characterization workers and
		// RunBatch's engine copies all deliver through it.
		var mu sync.Mutex
		inner := e.observer
		e.observer = func(ev Event) {
			mu.Lock()
			defer mu.Unlock()
			inner(ev)
		}
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() *Config { return e.cfg }

// Run executes the complete flow on a parsed design. It validates the
// configuration, then calls the stage methods in order: Elaborate,
// Filter, Cluster, Characterize, Select, Implement (when
// Config.ImplementWinner is set) and Redact. Flow diagnostics (no
// candidates, no admissible solution, ...) land in Report.Err as
// stage-attributed errors; hard failures — bad configuration,
// elaboration and dataflow errors, context cancellation — are returned
// as the error.
func (e *Engine) Run(ctx context.Context, ast *verilog.Design) (*Report, error) {
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	d, err := e.Elaborate(ctx, ast)
	if err != nil {
		return nil, err
	}
	rep := &Report{Design: d.Top.Name, Instances: len(d.NonRootInstances())}
	if err := e.runStages(ctx, d, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// runStages runs the stages after elaboration, filling rep. It returns
// only hard failures: a stage diagnostic lands in rep.Err and ends the
// flow with a nil error.
func (e *Engine) runStages(ctx context.Context, d *ElaboratedDesign, rep *Report) error {
	// Phase 1: module filtering, the dataflow analysis included (the
	// paper's time accounting).
	var fr *FilterResult
	var err error
	rep.FilterTime, err = e.stage(ctx, rep, StageFilter, func() (n int, err error) {
		if fr, err = e.Filter(ctx, d); err != nil {
			return 0, err
		}
		return len(fr.Candidates), nil
	})
	if err != nil || rep.Err != nil {
		return err
	}
	rep.Filter, rep.R = fr, len(fr.Candidates)
	if rep.R == 0 {
		rep.Err = stageErr(StageFilter, rep.Design, ErrNoCandidates)
		return nil
	}

	// Phase 2: cluster identification.
	var clusters []Cluster
	rep.ClusterTime, err = e.stage(ctx, rep, StageCluster, func() (n int, err error) {
		clusters, err = e.Cluster(ctx, fr)
		return len(clusters), err
	})
	if err != nil || rep.Err != nil {
		return err
	}
	rep.Clusters, rep.C = clusters, len(clusters)
	if rep.C == 0 {
		rep.Err = stageErr(StageCluster, rep.Design, ErrNoCluster)
		return nil
	}

	// Phase 3: eFPGA characterization plus selection, one phase in the
	// paper's time accounting, so SelectTime covers both.
	var cands []FabricCandidate
	rep.CharacterizeTime, err = e.stage(ctx, rep, StageCharacterize, func() (n int, err error) {
		cands, err = e.Characterize(ctx, d, clusters)
		return len(cands), err
	})
	if err != nil || rep.Err != nil {
		return err
	}
	var sel *SelectionResult
	selectTime, err := e.stage(ctx, rep, StageSelect, func() (n int, err error) {
		if sel, err = e.Select(ctx, cands); sel != nil {
			n = sel.SolutionCount
		}
		return n, err
	})
	rep.SelectTime = rep.CharacterizeTime + selectTime
	rep.Selection = sel
	if sel != nil {
		rep.ValidEFPGAs, rep.S = sel.ValidCount, sel.SolutionCount
	}
	if err != nil || rep.Err != nil {
		return err
	}
	rep.Solution = sel.Best
	rep.FabricSizes = sel.Best.FabricSizes()
	rep.Redacted = len(sel.Best.RedactedInstances())

	if e.cfg.ImplementWinner {
		_, err = e.stage(ctx, rep, StageImplement, func() (int, error) {
			err := e.Implement(ctx, sel.Best)
			return len(sel.Best.Fabrics), err
		})
		if err != nil || rep.Err != nil {
			return err
		}
	}

	_, err = e.stage(ctx, rep, StageRedact, func() (int, error) {
		red, err := e.Redact(ctx, d, sel.Best, false)
		if err != nil {
			return 0, err
		}
		rep.Redaction = red
		return rep.Redacted, nil
	})
	return err
}

// stage runs f, one stage method, between the stage's start and end
// events and returns its duration. The clock is read once, so the end
// event's Duration and the Report field that stores the result hold
// the same number. f returns the stage's result count. A failure under
// a cancelled context returns the context's error, and one marked
// hardError returns its cause, both without an end event; any other
// failure becomes the report's stage-attributed diagnostic and rides
// on the end event with a zero count.
func (e *Engine) stage(ctx context.Context, rep *Report, s Stage, f func() (int, error)) (time.Duration, error) {
	e.emit(Event{Kind: EventStageStart, Stage: s, Design: rep.Design})
	t0 := time.Now()
	n, err := f()
	took := time.Since(t0)
	if err != nil {
		if ctx.Err() != nil {
			return took, ctx.Err()
		}
		var h hardError
		if errors.As(err, &h) {
			return took, h.error
		}
		rep.Err = stageErr(s, rep.Design, err)
		n = 0
	}
	e.emit(Event{Kind: EventStageEnd, Stage: s, Design: rep.Design, Duration: took, Count: n, Err: rep.Err})
	return took, nil
}

// emit delivers one event to the observer, if there is one.
func (e *Engine) emit(ev Event) {
	if e.observer != nil {
		e.observer(ev)
	}
}

// hardError marks a stage method's failure that is not the stage's
// diagnostic: Run returns its cause as the run's error.
type hardError struct{ error }

func (h hardError) Unwrap() error { return h.error }

// stageErr wraps err with stage/design attribution, passing nil through
// and leaving an existing *FlowError of the same stage untouched.
func stageErr(stage Stage, design string, err error) error {
	if err == nil {
		return nil
	}
	var fe *FlowError
	if errors.As(err, &fe) {
		return err
	}
	return &FlowError{Stage: stage, Design: design, Err: err}
}

// RunSource parses Verilog text and executes the complete flow.
func (e *Engine) RunSource(ctx context.Context, src string) (*Report, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, ast)
}

// Elaborate resolves a parsed design against the engine's configured
// top module — the input to the stage methods below.
func (e *Engine) Elaborate(ctx context.Context, ast *verilog.Design) (*ElaboratedDesign, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rtl.Elaborate(ast, e.cfg.Top)
}

// Filter runs module filtering (Algorithm 1), including the dataflow
// analysis that scores modules by the selected outputs they affect. A
// failed dataflow analysis is not a filtering diagnostic: Run returns
// it as a hard error.
func (e *Engine) Filter(ctx context.Context, d *ElaboratedDesign) (*FilterResult, error) {
	df, err := rtl.NewDataflow(ctx, d)
	if err != nil {
		return nil, hardError{err}
	}
	return core.FilterModules(ctx, d, df, e.cfg)
}

// Cluster runs cluster identification (Algorithm 2) on the filtered
// candidates.
func (e *Engine) Cluster(ctx context.Context, fr *FilterResult) ([]Cluster, error) {
	return core.IdentifyClusters(ctx, fr.Candidates, e.cfg)
}

// Characterize runs the eFPGA oracle on every cluster, against every
// family of the configuration's architecture space, in parallel up to
// the engine's parallelism and through its cache when one is attached.
// The result is cluster-major, family-minor. The observer gets one
// progress event per (cluster, family) slot.
func (e *Engine) Characterize(ctx context.Context, d *ElaboratedDesign, clusters []Cluster) ([]FabricCandidate, error) {
	co := core.CharacterizeOptions{Parallelism: e.parallelism, Cache: e.cache}
	if e.observer != nil {
		co.Progress = func(done, total int) {
			e.observer(Event{Kind: EventProgress, Stage: StageCharacterize, Design: d.Top.Name,
				Done: done, Total: total})
		}
	}
	return core.CharacterizeClusters(ctx, d, clusters, e.cfg, co)
}

// Select ranks the characterized fabrics with Eq. 1 and enumerates
// admissible solutions (Algorithm 3). Characterize once, then Select
// under several configurations to explore budgets cheaply. Select
// reuses the structural report each fabric got at characterization,
// seeded with the characterizing configuration's Seed; the seed moves
// only the report's removal candidates, never a bit's class or the
// effective key length that selection prices.
func (e *Engine) Select(ctx context.Context, cands []FabricCandidate) (*SelectionResult, error) {
	return core.SelectEFPGAs(ctx, cands, e.cfg)
}

// Implement upgrades every fast-mode fabric of a solution to a fully
// placed, routed, and programmed implementation, up to the engine's
// parallelism fabrics at once. The result does not depend on the
// parallelism; a cancelled context makes it return the context's error
// once every fabric in flight has stopped.
func (e *Engine) Implement(ctx context.Context, sol *Solution) error {
	return core.ImplementSolution(ctx, sol, e.cfg, e.parallelism)
}

// Redact regenerates the design with the solution's clusters replaced
// by eFPGA instances. With functional=true the eFPGA modules carry a
// behavioural model of the programmed fabric (for simulation); with
// false they model the unprogrammed fabric the foundry sees.
func (e *Engine) Redact(ctx context.Context, d *ElaboratedDesign, sol *Solution, functional bool) (*Redaction, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return core.GenerateRedactedDesign(d, sol, functional)
}

// BatchJob is one design of a batch run. Source is parsed unless AST is
// set; a nil Config inherits the engine's configuration.
type BatchJob struct {
	Name   string
	Source string
	AST    *verilog.Design
	Config *Config
}

// BatchResult pairs a job with its outcome. Err carries hard failures
// (parse/elaboration errors, cancellation); flow diagnostics stay in
// Report.Err as usual.
type BatchResult struct {
	Name   string
	Report *Report
	Err    error
}

// RunBatch drives many designs through the flow concurrently — up to
// the engine's parallelism — and returns one result per job, in job
// order. Jobs share the engine's observer and cache. A cancelled
// context stops unstarted jobs; their results carry ctx.Err().
func (e *Engine) RunBatch(ctx context.Context, jobs []BatchJob) []BatchResult {
	results := make([]BatchResult, len(jobs))
	core.ParallelFor(len(jobs), e.parallelism, func(i int) {
		job := jobs[i]
		results[i].Name = job.Name
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			return
		}
		ast := job.AST
		if ast == nil {
			var err error
			if ast, err = verilog.Parse(job.Source); err != nil {
				results[i].Err = err
				return
			}
		}
		// The batch already fans out across designs, so each design
		// runs through a sequential copy of the engine.
		eng := *e
		eng.parallelism = 1
		if job.Config != nil {
			eng.cfg = job.Config
		}
		results[i].Report, results[i].Err = eng.Run(ctx, ast)
	})
	return results
}
