// Package alice is the public API of the ALICE eFPGA-redaction flow
// (Muscari Tomajoli et al., "ALICE: An Automatic Design Flow for eFPGA
// Redaction", DAC 2022), reimplemented in pure Go together with every
// substrate it needs: a Verilog front end, RTL elaboration and dataflow
// analysis, logic synthesis, LUT technology mapping, an eFPGA fabric
// model with packing/placement/routing and bitstream generation, a SAT
// solver for the threat-model evaluation, and an area model for the
// physical comparison of Fig. 4.
//
// # The staged Engine API
//
// The flow is a pipeline of six typed stages —
// Filter → Cluster → Characterize → Select → Implement → Redact —
// driven by an Engine configured with functional options:
//
//	cfg := alice.Cfg1()                      // 64 I/O pins, <=2 eFPGAs
//	cfg.SelectedOutputs = []string{"result"} // outputs to protect
//	eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(8))
//	report, err := eng.RunSource(ctx, verilogText)
//
// Every stage is also callable on its own, with inspectable inputs and
// outputs, so partial flows and intermediate reuse are first-class:
// characterize a design's clusters once (the dominant cost; the Engine
// fans it out over a worker pool and can memoize it in a
// CharacterizationCache), then Select under several configurations.
// Context cancellation and deadlines are honoured throughout the hot
// loops — dataflow analysis, cluster enumeration, the place-and-route
// annealer, and branch-and-bound selection. Flow diagnostics are typed
// and stage-attributed: Report.Err wraps sentinels such as
// ErrNoCandidates or ErrNoSolution in a *FlowError, for errors.Is /
// errors.As dispatch. Engine.RunBatch drives many designs
// concurrently.
//
// The report carries the Table-2 style metrics (candidate modules,
// clusters, valid fabrics, admissible solutions), the chosen solution
// with per-fabric utilizations and bitstream sizes, and the regenerated
// redacted design. GenerateRedactedDesign remains as a one-shot shim
// over the Engine.
package alice

import (
	"context"

	"alice/internal/bench"
	"alice/internal/core"
	"alice/internal/fabric"
	"alice/internal/rtl"
	"alice/internal/structural"
	"alice/internal/timing"
	"alice/internal/verilog"
)

// Config is the flow configuration (see core.Config for field docs).
type Config = core.Config

// Report is the outcome of one flow run.
type Report = core.Report

// Solution is an admissible set of eFPGA implementations.
type Solution = core.Solution

// Redaction is a regenerated redacted design.
type Redaction = core.Redaction

// Benchmark is one reconstructed paper benchmark.
type Benchmark = bench.Benchmark

// ElaboratedDesign is a design after RTL elaboration — the working
// representation the pipeline stages operate on.
type ElaboratedDesign = rtl.Design

// FilterResult carries the outcome of the module-filtering stage.
type FilterResult = core.FilterResult

// Cluster is a set of independent module instances meant to share one
// eFPGA.
type Cluster = core.Cluster

// FabricCandidate couples a (cluster, fabric family) pair with its
// characterization outcome.
type FabricCandidate = core.FabricCandidate

// ArchParams is the width-independent description of a fabric family
// (LUT size, BLEs per CLB, CLB inputs, channel-width policy). The zero
// value is the paper's 4-LUT, 4-BLE family; sweep it with
// Config.ArchSpace to trade SAT-attack resilience against area, as in
// "Not All Fabrics Are Created Equal".
type ArchParams = fabric.Params

// Arch is one concrete fabric configuration (a family instantiated at
// a grid width).
type Arch = fabric.Arch

// StructuralReport is the oracle-free structural analysis of a
// programmed fabric: every key bit classified as leaked, dead, or
// opaque with per-bit provenance, plus removal-attack candidates and
// the surviving effective key length. Characterization computes one per
// fabric and caches it with the fabric; every candidate carries it
// (FabricCandidate.Structural), and selection prices the
// effective key length into ranking when Config.KeyWeight is set;
// Config.MinEffectiveKeyBits turns it into a hard floor
// (ErrBelowKeyFloor).
type StructuralReport = structural.Report

// TimingReport is the static timing analysis of one fabric
// implementation: critical-path delay, Fmax, and the critical path
// itself. Every characterized fabric carries one (estimated in fast
// mode, exact after Implement).
type TimingReport = timing.Report

// DelayModel holds the nanosecond-scale intrinsic delays of a fabric
// configuration (LUT reads, FF timing, mux and wire delays), scaled by
// the family's LUT size and channel width.
type DelayModel = fabric.DelayModel

// DefaultArchParams returns the paper's fabric family (4-LUT, 4-BLE
// CLBs, 8-GPIO tiles, width-derived channel width).
func DefaultArchParams() ArchParams { return fabric.DefaultParams() }

// SelectionResult is the output of the eFPGA-selection stage.
type SelectionResult = core.SelectionResult

// Stage identifies one pipeline stage in errors and observer events.
type Stage = core.Stage

// Pipeline stages, in execution order.
const (
	StageElaborate    = core.StageElaborate
	StageFilter       = core.StageFilter
	StageCluster      = core.StageCluster
	StageCharacterize = core.StageCharacterize
	StageSelect       = core.StageSelect
	StageImplement    = core.StageImplement
	StageRedact       = core.StageRedact
	StageVerify       = core.StageVerify
)

// Event is one observer notification from a pipeline run.
type Event = core.Event

// EventKind distinguishes observer notifications.
type EventKind = core.EventKind

// Observer event kinds.
const (
	EventStageStart = core.EventStageStart
	EventStageEnd   = core.EventStageEnd
	EventProgress   = core.EventProgress
)

// Observer receives pipeline events (delivery is serialized).
type Observer = core.Observer

// FlowError is a stage-attributed flow diagnostic; Report.Err is one.
type FlowError = core.FlowError

// Typed flow diagnostics, wrapped in *FlowError on Report.Err; test
// with errors.Is.
var (
	ErrNoCandidates   = core.ErrNoCandidates
	ErrNoCluster      = core.ErrNoCluster
	ErrNoValidEFPGA   = core.ErrNoValidEFPGA
	ErrNoSolution     = core.ErrNoSolution
	ErrClusterBudget  = core.ErrClusterBudget
	ErrBelowFmaxFloor = core.ErrBelowFmaxFloor
	ErrBelowKeyFloor  = core.ErrBelowKeyFloor
)

// Cache is the characterization-cache contract WithCache accepts: the
// in-memory CharacterizationCache, or any custom backend (the service
// layer tiers it over a disk store so results survive restarts).
type Cache = core.Cache

// CharacterizationCache memoizes per-cluster characterizations across
// runs and configurations; attach one with WithCache.
type CharacterizationCache = core.CharacterizationCache

// NewCharacterizationCache returns an empty characterization cache.
func NewCharacterizationCache() *CharacterizationCache {
	return core.NewCharacterizationCache()
}

// Score directions for eFPGA ranking: Eq. 1 read as a utilization
// reward to maximize (the default), or as printed, a slack to minimize.
const (
	ScoreMaximize = core.ScoreMaximize
	ScoreMinimize = core.ScoreMinimize
)

// DefaultConfig returns the paper's default setup (cfg1).
func DefaultConfig() *Config { return core.DefaultConfig() }

// Cfg1 returns the paper's first configuration: max 64 I/O pins per
// eFPGA and up to two eFPGA instances.
func Cfg1() *Config { return core.Cfg1() }

// Cfg2 returns the paper's second configuration: max 96 I/O pins per
// eFPGA and a single eFPGA instance.
func Cfg2() *Config { return core.Cfg2() }

// LoadConfig parses a YAML flow configuration.
func LoadConfig(src string) (*Config, error) { return core.LoadConfig(src) }

// Parse parses Verilog source text.
func Parse(src string) (*verilog.Design, error) { return verilog.Parse(src) }

// Characteristics summarizes a design like Table 1 of the paper.
type Characteristics = rtl.Characteristics

// Characterize computes Table-1 statistics for Verilog source text.
func Characterize(src string) (Characteristics, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return Characteristics{}, err
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		return Characteristics{}, err
	}
	return rtl.Characterize(d), nil
}

// Benchmarks returns the reconstructed benchmark suite of Table 1.
func Benchmarks() []Benchmark { return bench.All() }

// BenchmarkByName returns one reconstructed benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return bench.ByName(name) }

// GenerateRedactedDesign regenerates the redacted design for a solution
// — a shim over elaboration + Engine.Redact. It elaborates the top of
// the design the solution was made for: the root of its instance tree
// (a solution without fabrics leaves the top to inference). With
// functional=true the eFPGA modules carry a behavioural model of the
// programmed fabric (for simulation); with false they model the
// unprogrammed fabric the foundry sees (outputs stuck at 0).
func GenerateRedactedDesign(src string, sol *Solution, functional bool) (*Redaction, error) {
	ast, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	d, err := rtl.Elaborate(ast, solutionTop(sol))
	if err != nil {
		return nil, err
	}
	return NewEngine().Redact(context.Background(), d, sol, functional)
}

// solutionTop names the module at the root of the instance tree the
// solution's clusters belong to, or "" when it has no cluster instance.
func solutionTop(sol *Solution) string {
	for _, fc := range sol.Fabrics {
		for _, in := range fc.Cluster.Instances {
			for in.Parent != nil {
				in = in.Parent
			}
			return in.Module.Name
		}
	}
	return ""
}

// VerifyRedaction co-simulates the original design, elaborated with the
// redaction's top, against a functional redaction over random stimulus.
func VerifyRedaction(src string, red *Redaction, steps int, seed int64) error {
	ast, err := verilog.Parse(src)
	if err != nil {
		return err
	}
	d, err := rtl.Elaborate(ast, red.Top)
	if err != nil {
		return err
	}
	return core.VerifyRedaction(d, red, steps, seed)
}
