package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"alice"
	"alice/internal/attack"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/structural"
	"alice/internal/synth"
	"alice/internal/techmap"
)

// The BENCH.json sweep is decomposed into independently runnable work
// units — one per (design, cfg) flow run, per implemented design, per
// attack-corpus target, per fabric-attack design, per sim-throughput
// design, and per structural-analysis row (corpus targets and
// implemented designs). Both -json and -shard run them as lease-owned
// units whose done markers carry their rows (see worker.go): -json over
// a temporary directory, -shard over a shared one, so a killed sweep
// resumes where it stopped and any number of worker processes can
// cooperate on one data directory. The merged report is assembled from
// the committed per-unit rows in deterministic grid order (merging a
// complete sweep twice is byte-identical).

// sweepUnit is one independently runnable cell of the sweep grid. Its
// id names the unit's lease and done marker.
type sweepUnit struct {
	// Kind is flow | impl | attack | fabattack | sim | structural.
	Kind string
	// Design selects the benchmark (flow/impl/fabattack/sim units).
	Design string
	// Cfg is the paper configuration of a flow unit ("cfg1"/"cfg2").
	Cfg string
	// Target selects the attack-corpus design (attack units).
	Target string
	// NoWarmup disables the attack warm-up (pure SAT cost). It is part
	// of the unit id: warm and cold runs of the same cell are distinct
	// results and never share a done marker.
	NoWarmup bool
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
	if u.NoWarmup {
		parts = append(parts, "nowarmup")
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
	Sims          []simBench          `json:"sims,omitempty"`
	Structural    []structuralBench   `json:"structural,omitempty"`
}

// sweepGrid enumerates the full sweep in its canonical (merge) order:
// flows across both paper configurations, implementations, the attack
// corpus, the fabric attacks, the sim-throughput rows, and the
// structural-analysis rows.
func sweepGrid(noWarmup bool) []sweepUnit {
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
		grid = append(grid, sweepUnit{Kind: "attack", Target: tgt.name, NoWarmup: noWarmup})
	}
	for _, d := range implDesigns {
		grid = append(grid, sweepUnit{Kind: "fabattack", Design: d, NoWarmup: noWarmup})
	}
	for _, d := range implDesigns {
		grid = append(grid, sweepUnit{Kind: "sim", Design: d})
	}
	// Structural rows: corpus targets (with the seeded/unseeded attack
	// pair; always warm-up-free, so no NoWarmup split), then the
	// per-fabric rows of the implemented designs.
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
		return runAttackUnit(u.Target, u.NoWarmup)
	case "fabattack":
		return runFabricAttackUnit(ctx, u.Design, u.NoWarmup)
	case "sim":
		return runSimUnit(u.Design)
	case "structural":
		if u.Target != "" {
			return runStructuralTargetUnit(u.Target)
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

// runFlowUnit is one fast-mode flow run (a Table-2 row with timing).
func runFlowUnit(ctx context.Context, design, cfgName string) (unitResult, error) {
	cfg, b, err := benchConfig(design, cfgName)
	if err != nil {
		return unitResult{}, err
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	start := time.Now()
	r, err := eng.RunSource(ctx, b.Source())
	if err != nil {
		return unitResult{}, err
	}
	db := designBench{
		Design:      b.Name,
		Cfg:         cfgName,
		WallSeconds: time.Since(start).Seconds(),
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
// design (cfg1): the annealer and PathFinder hot paths, with the
// routed STA results recorded per fabric. Each fabric is implemented on
// its own, so its row times only its own place and route.
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
	var res unitResult
	for _, f := range r.Solution.Fabrics {
		start := time.Now()
		if err := eng.Implement(ctx, &alice.Solution{Fabrics: []*alice.FabricCandidate{f}}); err != nil {
			return unitResult{}, err
		}
		ib := implBench{
			Design:      b.Name,
			Cfg:         "cfg1",
			Fabric:      f.Fabric.Arch.Name(),
			ConfigBits:  f.Fabric.ConfigBits(),
			WallSeconds: time.Since(start).Seconds(),
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
func runAttackUnit(target string, noWarmup bool) (unitResult, error) {
	ln, err := targetNetwork(target)
	if err != nil {
		return unitResult{}, err
	}
	start := time.Now()
	v, err := attack.Evaluate(ln, attack.Options{
		MaxIters: attackBudget, Seed: 1, MaxConflicts: attack.DefaultMaxConflicts, NoWarmup: noWarmup,
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
		WallSeconds:     time.Since(start).Seconds(),
	}}}, nil
}

// runFabricAttackUnit attacks the functional configurations of one
// design's winning fabrics (the key sizes the paper's security
// argument is actually about). The fabrics come from the fast-mode
// flow: the attack needs only the mapped LUT networks, not the routed
// implementation.
func runFabricAttackUnit(ctx context.Context, design string, noWarmup bool) (unitResult, error) {
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
		row, err := attackFabric(design, f.Fabric.Arch.Name(), f.Fabric.LUTs, noWarmup)
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
func runStructuralTargetUnit(target string) (unitResult, error) {
	ln, err := targetNetwork(target)
	if err != nil {
		return unitResult{}, err
	}
	start := time.Now()
	rep, err := structural.Analyze(ln, structural.Options{Seed: 1})
	if err != nil {
		return unitResult{}, err
	}
	cold := attack.Options{
		MaxIters: attackBudget, MaxConflicts: attack.DefaultMaxConflicts, Seed: 1, NoWarmup: true,
	}
	cv, err := attack.Evaluate(ln, cold)
	if err != nil {
		return unitResult{}, fmt.Errorf("structural %s cold attack: %w", target, err)
	}
	seeded := cold
	seeded.FixedKey = rep.FixedKey()
	sv, err := attack.Evaluate(ln, seeded)
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
		WallSeconds:       time.Since(start).Seconds(),
	}}}, nil
}

// runStructuralFlowUnit classifies each winning fabric of one design's
// cfg1 solution — the per-fabric structural column of the attack
// matrix. Each row times its own fabric's analysis, run with the seed
// selection used, so its verdicts are the ones selection priced.
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
		start := time.Now()
		s, err := structural.Analyze(f.Fabric.LUTs, structural.Options{Seed: cfg.Seed})
		if err != nil {
			return unitResult{}, err
		}
		wall := time.Since(start).Seconds()
		res.Structural = append(res.Structural, structuralBench{
			Design:            design,
			Fabric:            f.Fabric.Arch.Name(),
			KeyBits:           s.KeyBits,
			EffectiveKeyBits:  s.EffectiveKeyBits,
			LeakedBits:        s.LeakedBits,
			DeadBits:          s.DeadBits,
			RemovalCandidates: len(s.Removals),
			WallSeconds:       wall,
		})
	}
	return res, nil
}

// simPatterns fixes the per-row stimulus volume of the sim-throughput
// units: enough patterns for a stable wall measurement, small enough
// that the rows stay a fraction of the sweep.
const simPatterns = 1 << 16

// runSimUnit measures simulation throughput on one benchmark's
// optimized gate netlist: the scalar single-pattern Simulator against
// the 64-lane WordSim, both over simPatterns random patterns. The
// recorded values are seconds per million patterns — lower is better,
// so -compare gates them exactly like wall times (machine-speed
// normalized); Speedup is the headline bit-parallel factor.
func runSimUnit(design string) (unitResult, error) {
	cfg, b, err := benchConfig(design, "cfg1")
	if err != nil {
		return unitResult{}, err
	}
	ast, err := alice.Parse(b.Source())
	if err != nil {
		return unitResult{}, err
	}
	d, err := rtl.Elaborate(ast, cfg.Top)
	if err != nil {
		return unitResult{}, err
	}
	sr, err := synth.Synthesize(d)
	if err != nil {
		return unitResult{}, err
	}
	n := opt.Optimize(sr.Netlist)

	start := time.Now()
	ss := netlist.NewSimulator(n)
	in := make([]bool, len(n.PIs))
	for i := range in {
		in[i] = i%3 == 1
	}
	for p := 0; p < simPatterns; p++ {
		ss.Step(in)
	}
	scalarWall := time.Since(start).Seconds()

	wstart := time.Now()
	ws := netlist.NewWordSim(n)
	win := make([]uint64, len(n.PIs))
	for i := range win {
		win[i] = 0x5a5a_a5a5_5a5a_a5a5 >> uint(i%7)
	}
	words := simPatterns / 64
	for p := 0; p < words; p++ {
		ws.Step(win)
	}
	wordWall := time.Since(wstart).Seconds()

	row := simBench{
		Design:        design,
		Nodes:         len(n.Nodes),
		ScalarSecPerM: scalarWall / simPatterns * 1e6,
		WordSecPerM:   wordWall / float64(words*64) * 1e6,
		WallSeconds:   scalarWall + wordWall,
	}
	if row.WordSecPerM > 0 {
		row.Speedup = row.ScalarSecPerM / row.WordSecPerM
	}
	return unitResult{Sims: []simBench{row}}, nil
}

// mergeUnits assembles the report from per-unit rows in grid order.
// The merge is deterministic and byte-stable: the same stored unit
// results always produce the same report bytes (TotalSeconds is the
// sum of the recorded per-row walls, not a fresh wall-clock reading).
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
		rep.Sims = append(rep.Sims, r.Sims...)
		rep.Structural = append(rep.Structural, r.Structural...)
	}
	for _, d := range rep.Designs {
		rep.TotalSeconds += d.WallSeconds
	}
	for _, d := range rep.Implement {
		rep.TotalSeconds += d.WallSeconds
	}
	for _, d := range rep.Attacks {
		rep.TotalSeconds += d.WallSeconds
	}
	for _, d := range rep.FabricAttacks {
		rep.TotalSeconds += d.WallSeconds
	}
	for _, d := range rep.Sims {
		rep.TotalSeconds += d.WallSeconds
	}
	for _, d := range rep.Structural {
		rep.TotalSeconds += d.WallSeconds
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
func attackFabric(design, fabric string, luts *techmap.LUTNetwork, noWarmup bool) (fabricAttackBench, error) {
	start := time.Now()
	v, err := attack.Evaluate(luts, attack.Options{
		MaxIters: attackBudget, Seed: 1, MaxConflicts: fabricConflictBudget, NoWarmup: noWarmup,
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
		WallSeconds:     time.Since(start).Seconds(),
	}, nil
}
