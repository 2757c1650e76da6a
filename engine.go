package alice

import (
	"context"
	"runtime"
	"sync"

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
	cfg          *Config
	parallelism  int
	observer     Observer
	cache        Cache
	archSpace    []ArchParams
	archSpaceSet bool
}

// effectiveConfig returns the configuration runs actually use: the
// engine's config, with WithArchSpace (when given) overlaid on a copy
// so the caller's Config is never mutated.
func (e *Engine) effectiveConfig() *Config {
	if !e.archSpaceSet {
		return e.cfg
	}
	c := *e.cfg
	c.ArchSpace = e.archSpace
	return &c
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

// WithArchSpace sets the engine's architecture space: every cluster is
// characterized against each family (on top of the width sweep) and
// selection picks across the whole (arch, W) grid. The families are
// stored on the engine and overlaid on the configuration at run time,
// so the option composes in any order with WithConfig and never
// mutates the caller's Config. No families means the configuration's
// own ArchSpace (or the paper's single default family).
func WithArchSpace(families ...ArchParams) Option {
	return func(e *Engine) {
		if len(families) == 0 {
			return // keep the configuration's own ArchSpace, as documented
		}
		e.archSpace = append([]ArchParams(nil), families...)
		e.archSpaceSet = true
	}
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
		// Serialize here, at the engine level, so the no-locking
		// guarantee also holds across the concurrent runs of RunBatch
		// (each pipeline run only serializes its own events).
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

func (e *Engine) runOptions() core.RunOptions {
	return core.RunOptions{
		Parallelism: e.parallelism,
		Observer:    e.observer,
		Cache:       e.cache,
	}
}

// Run executes the complete flow on a parsed design. Flow diagnostics
// (no candidates, no admissible solution, ...) land in Report.Err as
// stage-attributed errors; hard failures — bad configuration,
// elaboration errors, context cancellation — are returned as the error.
func (e *Engine) Run(ctx context.Context, ast *verilog.Design) (*Report, error) {
	return core.RunPipeline(ctx, ast, e.effectiveConfig(), e.runOptions())
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
// analysis that scores modules by the selected outputs they affect.
func (e *Engine) Filter(ctx context.Context, d *ElaboratedDesign) (*FilterResult, error) {
	df, err := rtl.NewDataflow(ctx, d)
	if err != nil {
		return nil, err
	}
	return core.FilterModules(ctx, d, df, e.cfg)
}

// Cluster runs cluster identification (Algorithm 2) on the filtered
// candidates.
func (e *Engine) Cluster(ctx context.Context, fr *FilterResult) ([]Cluster, error) {
	return core.IdentifyClusters(ctx, fr.Candidates, e.cfg)
}

// Characterize runs the eFPGA oracle on every cluster, in parallel up
// to the engine's parallelism and through its cache when one is
// attached. The result order matches the cluster order.
func (e *Engine) Characterize(ctx context.Context, d *ElaboratedDesign, clusters []Cluster) ([]FabricCandidate, error) {
	return core.CharacterizeClusters(ctx, d, clusters, e.effectiveConfig(), core.CharacterizeOptions{
		Parallelism: e.parallelism,
		Cache:       e.cache,
	})
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
		cfg := job.Config
		if cfg == nil {
			cfg = e.effectiveConfig()
		}
		ast := job.AST
		if ast == nil {
			var err error
			ast, err = verilog.Parse(job.Source)
			if err != nil {
				results[i].Err = err
				return
			}
		}
		opts := e.runOptions()
		// The batch already fans out across designs; keep each
		// design's characterization and implementation sequential to
		// avoid oversubscribing the pool.
		opts.Parallelism = 1
		rep, err := core.RunPipeline(ctx, ast, cfg, opts)
		results[i].Report = rep
		results[i].Err = err
	})
	return results
}
