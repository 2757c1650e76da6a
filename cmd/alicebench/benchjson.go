package main

import (
	"fmt"
	"runtime"
	"time"
)

// benchSchemaVersion is the BENCH.json schema. Version 4 adds the
// sim-throughput rows and re-baselines the attack rows under the
// default-on random-simulation warm-up (the corpus DIP counts dropped
// roughly tenfold, and the -compare DIP gates are exact). Version 5
// adds the structural rows (oracle-free key-bit classification, with
// seeded-vs-unseeded attack DIP counts on the corpus targets) and the
// inv8 corpus target, re-baselining the attack rows.
const benchSchemaVersion = 5

// benchReport is the machine-readable performance trajectory written by
// `alicebench -json`: per-benchmark wall times for the flow under both
// paper configurations, full place&route metrics (routed PathFinder
// iterations, placement cost, bitstream bits) for the small designs,
// SAT-attack statistics (conflicts, propagations), simulation
// throughput, and allocator totals. Future PRs compare their
// BENCH.json against the committed history to keep the perf story
// honest.
type benchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`

	Designs       []designBench       `json:"designs"`
	Implement     []implBench         `json:"implement"`
	Attacks       []attackBench       `json:"attacks"`
	FabricAttacks []fabricAttackBench `json:"fabric_attacks,omitempty"`
	Sims          []simBench          `json:"sims,omitempty"`
	Structural    []structuralBench   `json:"structural,omitempty"`

	TotalSeconds float64 `json:"total_seconds"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	Mallocs      uint64  `json:"mallocs,omitempty"`
}

// designBench is one fast-mode flow run (a Table-2 row with timing).
// CritPathNs is the slowest fabric's estimated critical path — a
// deterministic model value (not wall time), tracked by -compare so a
// delay-model or mapper regression shows up in CI.
type designBench struct {
	Design      string  `json:"design"`
	Cfg         string  `json:"cfg"`
	WallSeconds float64 `json:"wall_seconds"`
	Candidates  int     `json:"candidates"`
	Clusters    int     `json:"clusters"`
	ValidEFPGAs int     `json:"valid_efpgas"`
	Solutions   int     `json:"solutions"`
	Redacted    int     `json:"redacted_instances"`
	Fabrics     string  `json:"fabrics,omitempty"`
	CritPathNs  float64 `json:"crit_path_ns,omitempty"`
	FmaxMHz     float64 `json:"fmax_mhz,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// implBench is one full place&route implementation of a winning fabric.
// CritPathNs/FmaxMHz are the exact routed STA results (deterministic
// model values, tracked by -compare alongside the wall times).
type implBench struct {
	Design          string  `json:"design"`
	Cfg             string  `json:"cfg"`
	Fabric          string  `json:"fabric"`
	RouteIterations int     `json:"route_iterations"`
	PlaceCost       float64 `json:"place_cost"`
	ConfigBits      int     `json:"config_bits"`
	CritPathNs      float64 `json:"crit_path_ns,omitempty"`
	FmaxMHz         float64 `json:"fmax_mhz,omitempty"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// attackBench is one oracle-guided SAT-attack run on the synthetic
// corpus. DIPs and Conflicts are deterministic engine outputs (the
// solver is seed-deterministic), so -compare gates them exactly like
// the modeled delays; WallSeconds is machine-dependent and gated with
// the speed-normalized 2x rule. BudgetExhausted rows record designs
// that survived the attack budget — a security data point, not an
// error (DIPs then holds the exhausted budget).
type attackBench struct {
	Target          string  `json:"target"`
	KeyBits         int     `json:"key_bits"`
	DIPs            int     `json:"dips"`
	Conflicts       int     `json:"conflicts"`
	Propagations    int     `json:"propagations"`
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// fabricAttackBench is one oracle-guided SAT attack against the
// functional configuration of a winning fabric from the real flow —
// the attack the redaction is meant to resist, priced per design.
type fabricAttackBench struct {
	Design          string  `json:"design"`
	Fabric          string  `json:"fabric"`
	KeyBits         int     `json:"key_bits"`
	DIPs            int     `json:"dips"`
	Conflicts       int     `json:"conflicts"`
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// simBench is one simulation-throughput measurement: the scalar
// reference Simulator against the 64-lane bit-parallel WordSim on the
// same optimized benchmark netlist. The per-million-pattern costs are
// wall-derived (lower is better), so -compare gates them with the
// speed-normalized 2x rule like every other wall entry; Speedup is the
// headline bit-parallel factor and is informational.
type simBench struct {
	Design        string  `json:"design"`
	Nodes         int     `json:"nodes"`
	ScalarSecPerM float64 `json:"scalar_sec_per_mpat"`
	WordSecPerM   float64 `json:"word_sec_per_mpat"`
	Speedup       float64 `json:"speedup"`
	WallSeconds   float64 `json:"wall_seconds"`
}

// structuralBench is one oracle-free structural-analysis row: the
// key-bit classification of a programmed LUT network. Corpus-target
// rows (Fabric empty) additionally attack the network twice — cold
// and seeded with the structurally known bits — so the DIP saving the
// leak buys an attacker is a tracked number (inv8 leaks its whole key
// and drops to zero DIPs). Flow rows (Fabric set) classify each
// winning fabric of the design's cfg1 solution, the per-fabric column
// of the attack matrix. All counts are deterministic engine outputs,
// gated exactly by -compare; WallSeconds is machine-dependent.
type structuralBench struct {
	Design            string `json:"design"`
	Fabric            string `json:"fabric,omitempty"`
	KeyBits           int    `json:"key_bits"`
	EffectiveKeyBits  int    `json:"effective_key_bits"`
	LeakedBits        int    `json:"leaked_bits"`
	DeadBits          int    `json:"dead_bits"`
	RemovalCandidates int    `json:"removal_candidates"`
	// Attacked marks rows carrying the DIP pair; both attacks run
	// without warm-up so the counts isolate the seeding effect.
	Attacked        bool    `json:"attacked,omitempty"`
	DIPs            int     `json:"dips"`
	SeededDIPs      int     `json:"seeded_dips"`
	BudgetExhausted bool    `json:"budget_exhausted,omitempty"`
	WallSeconds     float64 `json:"wall_seconds"`
}

// implDesigns are the designs whose winning solutions are fully placed
// and routed for the JSON report; kept to the small fabrics so the
// sweep stays fast enough for CI. The fabric-attack and sim-throughput
// units cover the same designs.
var implDesigns = []string{"gcd", "usb_phy", "sasc"}

// benchJSON runs the full sweep on this process: the sharded runner's
// slot pool over a temporary directory, merged in grid order. With
// noWarmup the attack units measure pure SAT cost.
func benchJSON(outPath string, noWarmup bool) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()

	rep, err := sweepLocal(sweepGrid(noWarmup))
	check(err)
	rep.TotalSeconds = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	rep.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	rep.Mallocs = m1.Mallocs - m0.Mallocs

	check(writeReport(rep, outPath))
	fmt.Printf("wrote %s: %d flow runs, %d implementations, %d attacks, %d sim rows, %d structural rows in %.1fs\n",
		outPath, len(rep.Designs), len(rep.Implement), len(rep.Attacks), len(rep.Sims), len(rep.Structural), rep.TotalSeconds)
}
