// Package core implements the ALICE flow itself: module filtering
// (Algorithm 1), cluster identification (Algorithm 2), eFPGA selection
// with the utilization score of Eq. 1 and branch-and-bound solution
// enumeration (Algorithm 3), and regeneration of the redacted top-level
// design.
package core

import (
	"fmt"

	"alice/internal/fabric"
	"alice/internal/techmap"
	"alice/internal/yamlcfg"
)

// ScoreDirection selects how Eq. 1 is interpreted during ranking.
type ScoreDirection int

const (
	// ScoreMaximize (default) ranks by the summed utilization reward
	// alpha*IOUtil/Max + beta*CLBUtil/Max, highest wins. This matches
	// the paper's prose ("the one with the highest score is the best"),
	// its security argument (high utilization resists attacks), and its
	// reported selections (two fabrics chosen when the budget allows).
	ScoreMaximize ScoreDirection = iota
	// ScoreMinimize takes Eq. 1 literally as printed (a slack from the
	// best utilizations) and minimizes its sum; kept for the ablation
	// bench. ScoreMaximize above says why it is not the default.
	ScoreMinimize
)

// Config is the flow configuration, normally loaded from the custom
// YAML file described in Sec. 3 of the paper.
type Config struct {
	// Top optionally names the top module (inferred when empty).
	Top string
	// SelectedOutputs lists the top-level outputs to protect; modules
	// affecting them get functional-filter credit. Empty means "protect
	// everything" (all modules score equally).
	SelectedOutputs []string
	// MaxIOPins is the maximum aggregated I/O pin count per eFPGA
	// (e.g. 64 in cfg1 and 96 in cfg2 of the paper).
	MaxIOPins int
	// MaxEFPGAs bounds the number of eFPGA instances (2 in cfg1, 1 in
	// cfg2).
	MaxEFPGAs int
	// Alpha and Beta weight the I/O and CLB utilization terms of Eq. 1
	// (the paper uses alpha = beta = 1).
	Alpha float64
	Beta  float64
	// MinFabric and MaxFabric bound permitted fabric widths.
	MinFabric int
	MaxFabric int
	// TopScoreOnly keeps only modules with the maximum functional score
	// (the paper's RankAndSelect); when false, every module with a
	// non-zero score survives the functional filter.
	TopScoreOnly bool
	// FullPnR runs placement/routing/bitstream on candidate fabrics
	// during characterization instead of the fast capacity/packing mode.
	FullPnR bool
	// ImplementWinner always fully implements the fabrics of the final
	// solution (even when FullPnR is off).
	ImplementWinner bool
	// Direction controls Eq. 1 ranking (see ScoreDirection).
	Direction ScoreDirection
	// Seed feeds the placement annealer and the random signatures of
	// the structural analysis's removal pass. The characterization
	// cache keys on it, so a cached fabric's structural report always
	// carries this seed.
	Seed int64
	// MaxClusters aborts cluster identification beyond this many
	// candidate clusters, singletons included (safety valve; 0 =
	// unlimited).
	MaxClusters int
	// ArchSpace lists the fabric families characterization explores:
	// every cluster is characterized against each family (and the
	// [MinFabric, MaxFabric] width range within it), and selection picks
	// across the whole (arch, W) grid. Empty means the paper's single
	// 4-LUT, 4-BLE family.
	ArchSpace []fabric.Params
	// TimingDriven steers placement and routing by connection
	// criticality from static timing analysis. Off (the default), the
	// implementation is bit-identical to the classic flow; timing is
	// still analyzed and reported.
	TimingDriven bool
	// DelayWeight (gamma) weights the delay term of selection: each
	// candidate's score gains gamma * Fmax/MaxFmax alongside the Eq. 1
	// utilization terms, so faster fabrics win ties (and more, as gamma
	// grows). 0 disables the term, reproducing the paper's ranking.
	DelayWeight float64
	// FmaxFloorMHz rejects candidate fabrics whose analyzed Fmax falls
	// below this floor (0 = no floor). This is the frequency-constrained
	// redaction workload: only fabrics meeting timing are admissible.
	// Selection applies the floor to whatever timing the candidates
	// carry (fast-mode estimates unless FullPnR is on), and
	// ImplementSolution re-checks it against the exact routed timing.
	FmaxFloorMHz float64
	// KeyWeight weights the security term of selection: each candidate's
	// score gains KeyWeight * EffectiveKeyBits/MaxEffectiveKeyBits, where
	// the effective key length comes from the oracle-free structural
	// analysis (internal/structural) of the redacted fabric — leaked and
	// dead configuration bits don't count. 0 disables the term,
	// reproducing the paper's ranking.
	KeyWeight float64
	// MinEffectiveKeyBits rejects candidate fabrics whose structural
	// effective key length falls below this floor (0 = no floor). This is
	// the security-constrained redaction workload: a fabric whose key
	// leaks down to a weak residue is inadmissible no matter how cheap,
	// mirroring FmaxFloorMHz for timing. Rejections carry
	// ErrBelowKeyFloor.
	MinEffectiveKeyBits int
}

// archSpace returns the normalized architecture space (defaulting to
// the paper's single family).
func (c *Config) archSpace() []fabric.Params {
	if len(c.ArchSpace) == 0 {
		return []fabric.Params{fabric.DefaultParams()}
	}
	out := make([]fabric.Params, len(c.ArchSpace))
	for i, p := range c.ArchSpace {
		out[i] = p.Normalized()
	}
	return out
}

// DefaultConfig mirrors the paper's experimental setup (cfg1).
func DefaultConfig() *Config {
	return &Config{
		MaxIOPins:       64,
		MaxEFPGAs:       2,
		Alpha:           1,
		Beta:            1,
		MinFabric:       2,
		MaxFabric:       20,
		TopScoreOnly:    true,
		ImplementWinner: false,
		Seed:            1,
		MaxClusters:     100000,
	}
}

// Cfg1 returns the paper's first configuration: 64 I/O pins, up to two
// eFPGAs.
func Cfg1() *Config { return DefaultConfig() }

// Cfg2 returns the paper's second configuration: 96 I/O pins, one eFPGA.
func Cfg2() *Config {
	c := DefaultConfig()
	c.MaxIOPins = 96
	c.MaxEFPGAs = 1
	return c
}

// LoadConfig parses a YAML flow configuration. Recognized keys:
//
//	top: <module>
//	selected_outputs: [list]
//	efpga:
//	  max_io_pins: 64
//	  max_instances: 2
//	  min_fabric: 2
//	  max_fabric: 20
//	score:
//	  alpha: 1.0
//	  beta: 1.0
//	  direction: minimize | maximize
//	flow:
//	  top_score_only: true
//	  full_pnr: false
//	  implement_winner: true
//	  seed: 1
//	timing:
//	  driven: true             # criticality-driven place & route
//	  delay_weight: 0.5        # gamma: Fmax term weight in selection
//	  fmax_floor_mhz: 250      # reject fabrics slower than this
//	security:
//	  key_weight: 0.5          # effective-key term weight in selection
//	  min_effective_key_bits: 64  # reject fabrics leaking below this
//	arch_space:
//	  lut_sizes: [4, 5]        # K values to explore
//	  bles_per_clb: [4, 8]     # N values to explore (cartesian with K)
//	  clb_inputs: auto         # auto = ceil(K*(N+1)/2), or a fixed integer
//	  channel_width: auto      # auto = width-derived, or a fixed integer
func LoadConfig(src string) (*Config, error) {
	v, err := yamlcfg.Parse(src)
	if err != nil {
		return nil, err
	}
	m, ok := yamlcfg.GetMap(v)
	if !ok {
		return nil, fmt.Errorf("core: config root must be a mapping")
	}
	cfg := DefaultConfig()
	cfg.Top = yamlcfg.GetString(m, "top", "")
	cfg.SelectedOutputs = yamlcfg.GetStringList(m, "selected_outputs")
	if e, ok := yamlcfg.GetMap(m["efpga"]); ok {
		cfg.MaxIOPins = yamlcfg.GetInt(e, "max_io_pins", cfg.MaxIOPins)
		cfg.MaxEFPGAs = yamlcfg.GetInt(e, "max_instances", cfg.MaxEFPGAs)
		cfg.MinFabric = yamlcfg.GetInt(e, "min_fabric", cfg.MinFabric)
		cfg.MaxFabric = yamlcfg.GetInt(e, "max_fabric", cfg.MaxFabric)
	}
	if s, ok := yamlcfg.GetMap(m["score"]); ok {
		cfg.Alpha = yamlcfg.GetFloat(s, "alpha", cfg.Alpha)
		cfg.Beta = yamlcfg.GetFloat(s, "beta", cfg.Beta)
		// The absent-key default must match DefaultConfig (maximize): a
		// score: section with only alpha/beta must not flip the ranking.
		switch yamlcfg.GetString(s, "direction", "maximize") {
		case "minimize":
			cfg.Direction = ScoreMinimize
		case "maximize":
			cfg.Direction = ScoreMaximize
		default:
			return nil, fmt.Errorf("core: score.direction must be minimize or maximize")
		}
	}
	if f, ok := yamlcfg.GetMap(m["flow"]); ok {
		cfg.TopScoreOnly = yamlcfg.GetBool(f, "top_score_only", cfg.TopScoreOnly)
		cfg.FullPnR = yamlcfg.GetBool(f, "full_pnr", cfg.FullPnR)
		cfg.ImplementWinner = yamlcfg.GetBool(f, "implement_winner", cfg.ImplementWinner)
		cfg.Seed = int64(yamlcfg.GetInt(f, "seed", int(cfg.Seed)))
	}
	if t, ok := yamlcfg.GetMap(m["timing"]); ok {
		cfg.TimingDriven = yamlcfg.GetBool(t, "driven", cfg.TimingDriven)
		cfg.DelayWeight = yamlcfg.GetFloat(t, "delay_weight", cfg.DelayWeight)
		cfg.FmaxFloorMHz = yamlcfg.GetFloat(t, "fmax_floor_mhz", cfg.FmaxFloorMHz)
	}
	if sec, ok := yamlcfg.GetMap(m["security"]); ok {
		cfg.KeyWeight = yamlcfg.GetFloat(sec, "key_weight", cfg.KeyWeight)
		cfg.MinEffectiveKeyBits = yamlcfg.GetInt(sec, "min_effective_key_bits", cfg.MinEffectiveKeyBits)
	}
	if a, ok := yamlcfg.GetMap(m["arch_space"]); ok {
		space, err := parseArchSpace(a)
		if err != nil {
			return nil, err
		}
		cfg.ArchSpace = space
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// parseArchSpace expands an arch_space block into the cartesian product
// of its lut_sizes and bles_per_clb lists.
func parseArchSpace(a map[string]yamlcfg.Value) ([]fabric.Params, error) {
	luts, err := strictIntList(a, "lut_sizes", 4)
	if err != nil {
		return nil, err
	}
	bles, err := strictIntList(a, "bles_per_clb", 4)
	if err != nil {
		return nil, err
	}
	// Field-level range checks up front, so a bad value is rejected at
	// config-load time with the offending YAML field named — not hours
	// later from deep inside characterization.
	for _, k := range luts {
		if k < techmap.MinK || k > techmap.MaxK {
			return nil, fmt.Errorf("core: arch_space.lut_sizes: %d out of supported range [%d,%d]",
				k, techmap.MinK, techmap.MaxK)
		}
	}
	for _, n := range bles {
		if n < 1 || n > 16 {
			return nil, fmt.Errorf("core: arch_space.bles_per_clb: %d out of supported range [1,16]", n)
		}
	}
	// clb_inputs / channel_width are policies: "auto" (or absent) means
	// derived, otherwise a positive integer. An explicit 0 or a negative
	// value is rejected rather than silently treated as auto.
	intPolicy := func(key string) (int, error) {
		switch v := a[key].(type) {
		case nil:
			return 0, nil
		case int64:
			if v <= 0 {
				return 0, fmt.Errorf("core: arch_space.%s must be positive (got %d); use auto for the derived policy", key, v)
			}
			return int(v), nil
		case string:
			if v == "auto" {
				return 0, nil
			}
		}
		return 0, fmt.Errorf("core: arch_space.%s must be auto or a positive integer", key)
	}
	clbIn, err := intPolicy("clb_inputs")
	if err != nil {
		return nil, err
	}
	cw, err := intPolicy("channel_width")
	if err != nil {
		return nil, err
	}
	var space []fabric.Params
	for _, k := range luts {
		for _, n := range bles {
			p := fabric.Params{LUTSize: k, BLEsPerCLB: n, CLBInputs: clbIn, ChannelWidth: cw}
			if err := p.Validate(); err != nil {
				// Cross-field constraints (e.g. clb_inputs too small for
				// the LUT size) still carry the block name.
				return nil, fmt.Errorf("core: arch_space: %w", err)
			}
			space = append(space, p.Normalized())
		}
	}
	return space, nil
}

// strictIntList reads an integer list, rejecting malformed entries
// instead of silently falling back to the default: a user who wrote
// lut_sizes: ["5"] asked for a K=5 sweep and must not quietly get the
// K=4 family.
func strictIntList(m map[string]yamlcfg.Value, key string, def int) ([]int, error) {
	raw, present := m[key]
	if !present || raw == nil {
		return []int{def}, nil
	}
	out := yamlcfg.GetIntList(m, key)
	want := 1
	if l, ok := raw.([]yamlcfg.Value); ok {
		want = len(l)
	}
	if len(out) != want || want == 0 {
		return nil, fmt.Errorf("core: arch_space.%s must be a non-empty list of integers", key)
	}
	for _, v := range out {
		// An explicit 0 must not silently normalize to the default
		// family: the user typed a value, so it must be a real one.
		if v <= 0 {
			return nil, fmt.Errorf("core: arch_space.%s values must be positive, got %d", key, v)
		}
	}
	return out, nil
}

// Key returns a canonical fingerprint of the whole configuration. It is
// rendered by reflection over every field (%+v), so a newly added field
// is covered automatically and two configs differing only in it can
// never alias — the bug class TestConfigKeyCoversAllFields guards.
func (c *Config) Key() string { return fmt.Sprintf("%+v", *c) }

// characterizationFingerprint keys the configuration fields that affect
// per-cluster characterization (and nothing else), so cached fabrics
// are shared across configs that differ only in selection budgets.
// Fields are appended per family by CharacterizeClusters, so two
// different arch-space sweeps never alias in the cache.
func (c *Config) characterizationFingerprint() string {
	// TimingDriven changes the characterized fabric only when place &
	// route actually runs during characterization (FullPnR); in fast
	// mode the flag is keyed out so timing-on and timing-off sweeps
	// share cached fabrics. DelayWeight, FmaxFloorMHz, KeyWeight and
	// MinEffectiveKeyBits only affect selection and deliberately stay
	// out of the key.
	return fmt.Sprintf("w[%d,%d]|pnr=%t|seed=%d|timing=%t",
		c.MinFabric, c.MaxFabric, c.FullPnR, c.Seed, c.FullPnR && c.TimingDriven)
}

// Validate sanity-checks a configuration.
func (c *Config) Validate() error {
	if c.MaxIOPins <= 0 {
		return fmt.Errorf("core: max_io_pins must be positive")
	}
	if c.MaxEFPGAs <= 0 {
		return fmt.Errorf("core: max_instances must be positive")
	}
	if c.MinFabric < 1 || c.MaxFabric < c.MinFabric {
		return fmt.Errorf("core: invalid fabric range [%d,%d]", c.MinFabric, c.MaxFabric)
	}
	if c.Alpha < 0 || c.Beta < 0 || c.Alpha+c.Beta == 0 {
		return fmt.Errorf("core: alpha/beta must be non-negative and not both zero")
	}
	if c.DelayWeight < 0 {
		return fmt.Errorf("core: timing.delay_weight must be non-negative (got %g)", c.DelayWeight)
	}
	if c.FmaxFloorMHz < 0 {
		return fmt.Errorf("core: timing.fmax_floor_mhz must be non-negative (got %g)", c.FmaxFloorMHz)
	}
	if c.KeyWeight < 0 {
		return fmt.Errorf("core: security.key_weight must be non-negative (got %g)", c.KeyWeight)
	}
	if c.MinEffectiveKeyBits < 0 {
		return fmt.Errorf("core: security.min_effective_key_bits must be non-negative (got %d)", c.MinEffectiveKeyBits)
	}
	for _, p := range c.ArchSpace {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}
