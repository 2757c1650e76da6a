package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"alice"
	"alice/internal/attack"
	"alice/internal/structural"
	"alice/internal/techmap"
)

// The BENCH.json sweep is decomposed into independently runnable work
// units — one per (design, cfg) flow run, per implemented design, per
// attack-corpus target, per fabric-attack design, and per
// structural-analysis row (corpus targets and implemented designs).
// Both -json and -shard run them as lease-owned units whose done
// markers carry their rows (see worker.go): -json over a temporary
// directory, -shard over a shared one, so a killed sweep resumes where
// it stopped and any number of worker processes can cooperate on one
// data directory. The merged report is assembled from the committed
// per-unit rows in deterministic grid order (merging a complete sweep
// twice is byte-identical).

// sweepUnit is one independently runnable cell of the sweep grid. Its
// id names the unit's lease and done marker.
type sweepUnit struct {
	// Kind is flow | impl | attack | fabattack | structural.
	Kind string
	// Design selects the benchmark (flow/impl/fabattack units).
	Design string
	// Cfg is the paper configuration of a flow unit ("cfg1"/"cfg2").
	Cfg string
	// Target selects the attack-corpus design (attack units).
	Target string
}

// id is the unit's stable identity across runs.
func (u sweepUnit) id() string {
	parts := []string{u.Kind}
	if u.Design != "" {
		parts = append(parts, u.Design)
	}
	if u.Cfg != "" {
		parts = append(parts, u.Cfg)
	}
	if u.Target != "" {
		parts = append(parts, u.Target)
	}
	return strings.Join(parts, ":")
}

// unitResult carries the BENCH rows one unit produced; the merged
// report is the concatenation of these in grid order.
type unitResult struct {
	Designs       []designBench       `json:"designs,omitempty"`
	Implement     []implBench         `json:"implement,omitempty"`
	Attacks       []attackBench       `json:"attacks,omitempty"`
	FabricAttacks []fabricAttackBench `json:"fabric_attacks,omitempty"`
	Structural    []structuralBench   `json:"structural,omitempty"`
}

// sweepGrid enumerates the full sweep in its canonical (merge) order:
// flows across both paper configurations, implementations, the attack
// corpus, the fabric attacks, and the structural-analysis rows.
func sweepGrid() []sweepUnit {
	var grid []sweepUnit
	for _, cfg := range []string{"cfg1", "cfg2"} {
		for _, b := range alice.Benchmarks() {
			grid = append(grid, sweepUnit{Kind: "flow", Design: b.Name, Cfg: cfg})
		}
	}
	for _, d := range implDesigns {
		grid = append(grid, sweepUnit{Kind: "impl", Design: d})
	}
	for _, tgt := range attackTargets {
		grid = append(grid, sweepUnit{Kind: "attack", Target: tgt.name})
	}
	for _, d := range implDesigns {
		grid = append(grid, sweepUnit{Kind: "fabattack", Design: d})
	}
	// Structural rows: corpus targets (with the seeded/unseeded attack
	// pair), then the per-fabric rows of the implemented designs.
	for _, tgt := range attackTargets {
		grid = append(grid, sweepUnit{Kind: "structural", Target: tgt.name})
	}
	for _, d := range implDesigns {
		grid = append(grid, sweepUnit{Kind: "structural", Design: d})
	}
	return grid
}

// filterGrid keeps the units whose id starts with one of the
// comma-separated prefixes (empty selector keeps everything).
func filterGrid(grid []sweepUnit, selector string) []sweepUnit {
	if selector == "" {
		return grid
	}
	var prefixes []string
	for _, p := range strings.Split(selector, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	var out []sweepUnit
	for _, u := range grid {
		for _, p := range prefixes {
			if strings.HasPrefix(u.id(), p) {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// runUnit executes one sweep cell and returns its rows.
func runUnit(ctx context.Context, u sweepUnit) (unitResult, error) {
	switch u.Kind {
	case "flow":
		return runFlowUnit(ctx, u.Design, u.Cfg)
	case "impl":
		return runImplUnit(ctx, u.Design)
	case "attack":
		return runAttackUnit(ctx, u.Target)
	case "fabattack":
		return runFabricAttackUnit(ctx, u.Design)
	case "structural":
		if u.Target != "" {
			return runStructuralTargetUnit(ctx, u.Target)
		}
		return runStructuralFlowUnit(ctx, u.Design)
	default:
		return unitResult{}, fmt.Errorf("unknown sweep unit kind %q", u.Kind)
	}
}

func benchConfig(design, cfgName string) (*alice.Config, alice.Benchmark, error) {
	b, ok := alice.BenchmarkByName(design)
	if !ok {
		return nil, b, fmt.Errorf("unknown benchmark %q", design)
	}
	var cfg *alice.Config
	if cfgName == "cfg2" {
		cfg = alice.Cfg2()
	} else {
		cfg = alice.Cfg1()
	}
	cfg.SelectedOutputs = b.SelectedOutputs
	return cfg, b, nil
}

// runFlowUnit is one fast-mode flow run (a Table-2 row).
func runFlowUnit(ctx context.Context, design, cfgName string) (unitResult, error) {
	cfg, b, err := benchConfig(design, cfgName)
	if err != nil {
		return unitResult{}, err
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	r, err := eng.RunSource(ctx, b.Source())
	if err != nil {
		return unitResult{}, err
	}
	db := designBench{
		Design:      b.Name,
		Cfg:         cfgName,
		Candidates:  r.R,
		Clusters:    r.C,
		ValidEFPGAs: r.ValidEFPGAs,
		Solutions:   r.S,
		Redacted:    r.Redacted,
		Fabrics:     r.FabricSizes,
	}
	if r.Solution != nil {
		// The design's clock is bounded by its slowest fabric.
		for _, f := range r.Solution.Fabrics {
			if t := f.Fabric.Timing; t != nil && t.CritPathNs > db.CritPathNs {
				db.CritPathNs = t.CritPathNs
			}
		}
		if db.CritPathNs > 0 {
			db.FmaxMHz = 1000 / db.CritPathNs
		}
	}
	if r.Err != nil {
		db.Error = r.Err.Error()
	}
	return unitResult{Designs: []designBench{db}}, nil
}

// runImplUnit fully places and routes the winning solution of one
// design (cfg1) and records each fabric's routed results.
func runImplUnit(ctx context.Context, design string) (unitResult, error) {
	cfg, b, err := benchConfig(design, "cfg1")
	if err != nil {
		return unitResult{}, err
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	r, err := eng.RunSource(ctx, b.Source())
	if err != nil {
		return unitResult{}, err
	}
	if r.Err != nil || r.Solution == nil {
		return unitResult{}, nil
	}
	if err := eng.Implement(ctx, r.Solution); err != nil {
		return unitResult{}, err
	}
	var res unitResult
	for _, f := range r.Solution.Fabrics {
		ib := implBench{
			Design:     b.Name,
			Cfg:        "cfg1",
			Fabric:     f.Fabric.Arch.Name(),
			ConfigBits: f.Fabric.ConfigBits(),
		}
		if f.Fabric.Routing != nil {
			ib.RouteIterations = f.Fabric.Routing.Iterations
		}
		if f.Fabric.Placement != nil {
			ib.PlaceCost = f.Fabric.Placement.Cost
		}
		if t := f.Fabric.Timing; t != nil && !t.Estimated {
			ib.CritPathNs = t.CritPathNs
			ib.FmaxMHz = t.FmaxMHz
		}
		res.Implement = append(res.Implement, ib)
	}
	return res, nil
}

// runAttackUnit attacks one synthetic corpus target.
func runAttackUnit(ctx context.Context, target string) (unitResult, error) {
	ln, err := targetNetwork(target)
	if err != nil {
		return unitResult{}, err
	}
	v, err := attack.Evaluate(ctx, ln, attack.Options{
		MaxIters: attackBudget, Seed: 1, MaxConflicts: attack.DefaultMaxConflicts,
	})
	if err != nil {
		return unitResult{}, fmt.Errorf("attack on %s: %w", target, err)
	}
	return unitResult{Attacks: []attackBench{{
		Target:          target,
		KeyBits:         v.KeyBits,
		DIPs:            v.DIPs,
		Conflicts:       v.Conflicts,
		Propagations:    v.Propagations,
		BudgetExhausted: !v.Cracked,
	}}}, nil
}

// runFabricAttackUnit attacks the functional configurations of one
// design's winning fabrics (the key sizes the paper's security
// argument is actually about). The fabrics come from the fast-mode
// flow: the attack needs only the mapped LUT networks, not the routed
// implementation.
func runFabricAttackUnit(ctx context.Context, design string) (unitResult, error) {
	cfg, b, err := benchConfig(design, "cfg1")
	if err != nil {
		return unitResult{}, err
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	r, err := eng.RunSource(ctx, b.Source())
	if err != nil {
		return unitResult{}, err
	}
	if r.Err != nil || r.Solution == nil {
		return unitResult{}, nil
	}
	var res unitResult
	for _, f := range r.Solution.Fabrics {
		row, err := attackFabric(ctx, design, f.Fabric.Arch.Name(), f.Fabric.LUTs)
		if err != nil {
			return unitResult{}, err
		}
		res.FabricAttacks = append(res.FabricAttacks, row)
	}
	return res, nil
}

// runStructuralTargetUnit classifies one corpus target's key bits with
// the oracle-free structural analysis, then attacks the network twice
// — cold and seeded with the structurally known bits — to price the
// DIP saving the leak buys an attacker. Both attacks run without
// warm-up so the counts isolate the seeding effect.
func runStructuralTargetUnit(ctx context.Context, target string) (unitResult, error) {
	ln, err := targetNetwork(target)
	if err != nil {
		return unitResult{}, err
	}
	rep, err := structural.Analyze(ln, structural.Options{Seed: 1})
	if err != nil {
		return unitResult{}, err
	}
	cold := attack.Options{
		MaxIters: attackBudget, MaxConflicts: attack.DefaultMaxConflicts, Seed: 1, NoWarmup: true,
	}
	cv, err := attack.Evaluate(ctx, ln, cold)
	if err != nil {
		return unitResult{}, fmt.Errorf("structural %s cold attack: %w", target, err)
	}
	seeded := cold
	seeded.FixedKey = rep.FixedKey()
	sv, err := attack.Evaluate(ctx, ln, seeded)
	if err != nil {
		return unitResult{}, fmt.Errorf("structural %s seeded attack: %w", target, err)
	}
	return unitResult{Structural: []structuralBench{{
		Design:            target,
		KeyBits:           rep.KeyBits,
		EffectiveKeyBits:  rep.EffectiveKeyBits,
		LeakedBits:        rep.LeakedBits,
		DeadBits:          rep.DeadBits,
		RemovalCandidates: len(rep.Removals),
		Attacked:          true,
		DIPs:              cv.DIPs,
		SeededDIPs:        sv.DIPs,
		BudgetExhausted:   !cv.Cracked || !sv.Cracked,
	}}}, nil
}

// runStructuralFlowUnit reports the structural analysis of each winning
// fabric of one design's cfg1 solution — the per-fabric structural
// column of the attack matrix. The reports are the ones selection
// priced: characterization analyzed each fabric with the flow's seed.
func runStructuralFlowUnit(ctx context.Context, design string) (unitResult, error) {
	cfg, b, err := benchConfig(design, "cfg1")
	if err != nil {
		return unitResult{}, err
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	r, err := eng.RunSource(ctx, b.Source())
	if err != nil {
		return unitResult{}, err
	}
	if r.Err != nil || r.Solution == nil {
		return unitResult{}, nil
	}
	var res unitResult
	for _, f := range r.Solution.Fabrics {
		s := f.Structural
		if s == nil {
			return unitResult{}, fmt.Errorf("%s: fabric %s has no structural report", design, f.Fabric.Arch.Name())
		}
		res.Structural = append(res.Structural, structuralBench{
			Design:            design,
			Fabric:            f.Fabric.Arch.Name(),
			KeyBits:           s.KeyBits,
			EffectiveKeyBits:  s.EffectiveKeyBits,
			LeakedBits:        s.LeakedBits,
			DeadBits:          s.DeadBits,
			RemovalCandidates: len(s.Removals),
		})
	}
	return res, nil
}

// mergeUnits assembles the report from per-unit rows in grid order.
// The merge is deterministic and byte-stable: the same stored unit
// results always produce the same report bytes.
func mergeUnits(results []unitResult) *benchReport {
	rep := &benchReport{
		SchemaVersion: benchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
	}
	for _, r := range results {
		rep.Designs = append(rep.Designs, r.Designs...)
		rep.Implement = append(rep.Implement, r.Implement...)
		rep.Attacks = append(rep.Attacks, r.Attacks...)
		rep.FabricAttacks = append(rep.FabricAttacks, r.FabricAttacks...)
		rep.Structural = append(rep.Structural, r.Structural...)
	}
	return rep
}

// writeReport marshals the report to its canonical byte form.
func writeReport(rep *benchReport, outPath string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(outPath, data, 0o644)
}

// attackFabric prices one fabric's functional configuration against
// the oracle-guided attack.
func attackFabric(ctx context.Context, design, fabric string, luts *techmap.LUTNetwork) (fabricAttackBench, error) {
	v, err := attack.Evaluate(ctx, luts, attack.Options{
		MaxIters: attackBudget, Seed: 1, MaxConflicts: fabricConflictBudget,
	})
	if err != nil {
		return fabricAttackBench{}, fmt.Errorf("fabric attack on %s/%s: %w", design, fabric, err)
	}
	return fabricAttackBench{
		Design:          design,
		Fabric:          fabric,
		KeyBits:         v.KeyBits,
		DIPs:            v.DIPs,
		Conflicts:       v.Conflicts,
		BudgetExhausted: !v.Cracked,
	}, nil
}
