package main

import "fmt"

// benchSchemaVersion is the BENCH.json schema. Version 4 re-baselined
// the attack rows under the default-on random-simulation warm-up.
// Version 5 added the structural rows (oracle-free key-bit
// classification, with seeded-vs-unseeded attack DIP counts on the
// corpus targets) and the inv8 corpus target. Version 6 keeps only
// deterministic engine outputs: the wall times, the allocator totals
// and the sim-throughput rows are gone, and -compare checks every
// remaining field exactly.
const benchSchemaVersion = 6

// benchReport is the machine-readable record written by `alicebench
// -json`: the Table-2 outcome and modeled delay of every flow under both
// paper configurations, full place&route results (routed PathFinder
// iterations, placement cost, bitstream bits, routed delay) for the
// small designs, and the attack and structural-analysis counts. Every
// field is a deterministic engine output, so a change that moves one
// shows up in `alicebench -compare`; timing is the benchmark module's
// job. GoVersion, GOOS and GOARCH record where the report was made and
// are not compared.
type benchReport struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`

	Designs       []designBench       `json:"designs"`
	Implement     []implBench         `json:"implement"`
	Attacks       []attackBench       `json:"attacks"`
	FabricAttacks []fabricAttackBench `json:"fabric_attacks,omitempty"`
	Structural    []structuralBench   `json:"structural,omitempty"`
}

// designBench is one fast-mode flow run: a Table-2 row. CritPathNs is
// the slowest fabric's estimated critical path, a model value.
type designBench struct {
	Design      string  `json:"design"`
	Cfg         string  `json:"cfg"`
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
// CritPathNs/FmaxMHz are the exact routed STA results.
type implBench struct {
	Design          string  `json:"design"`
	Cfg             string  `json:"cfg"`
	Fabric          string  `json:"fabric"`
	RouteIterations int     `json:"route_iterations"`
	PlaceCost       float64 `json:"place_cost"`
	ConfigBits      int     `json:"config_bits"`
	CritPathNs      float64 `json:"crit_path_ns,omitempty"`
	FmaxMHz         float64 `json:"fmax_mhz,omitempty"`
}

// attackBench is one oracle-guided SAT-attack run on the synthetic
// corpus; the solver is seed-deterministic, so every count repeats.
// BudgetExhausted rows record designs that survived the attack budget
// — a security data point, not an error (DIPs then holds the exhausted
// budget).
type attackBench struct {
	Target          string `json:"target"`
	KeyBits         int    `json:"key_bits"`
	DIPs            int    `json:"dips"`
	Conflicts       int    `json:"conflicts"`
	Propagations    int    `json:"propagations"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
}

// fabricAttackBench is one oracle-guided SAT attack against the
// functional configuration of a winning fabric from the real flow —
// the attack the redaction is meant to resist, priced per design.
type fabricAttackBench struct {
	Design          string `json:"design"`
	Fabric          string `json:"fabric"`
	KeyBits         int    `json:"key_bits"`
	DIPs            int    `json:"dips"`
	Conflicts       int    `json:"conflicts"`
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
}

// structuralBench is one oracle-free structural-analysis row: the
// key-bit classification of a programmed LUT network. Corpus-target
// rows (Fabric empty) additionally attack the network twice — cold
// and seeded with the structurally known bits — so the DIP saving the
// leak buys an attacker is a tracked number (inv8 leaks its whole key
// and drops to zero DIPs). Flow rows (Fabric set) classify each
// winning fabric of the design's cfg1 solution, the per-fabric column
// of the attack matrix.
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
	Attacked        bool `json:"attacked,omitempty"`
	DIPs            int  `json:"dips"`
	SeededDIPs      int  `json:"seeded_dips"`
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// implDesigns are the designs whose winning solutions are fully placed
// and routed for the JSON report; kept to the small fabrics so the
// sweep stays fast enough for CI. The fabric-attack and structural
// units cover the same designs.
var implDesigns = []string{"gcd", "usb_phy", "sasc"}

// benchJSON runs the full sweep on this process — the sharded runner's
// slot pool over a temporary directory, merged in grid order — writes
// it to outPath and returns it.
func benchJSON(outPath string) *benchReport {
	rep, err := sweepLocal(sweepGrid())
	check(err)
	check(writeReport(rep, outPath))
	fmt.Printf("wrote %s: %d flow runs, %d implementations, %d attacks, %d fabric attacks, %d structural rows\n",
		outPath, len(rep.Designs), len(rep.Implement), len(rep.Attacks), len(rep.FabricAttacks), len(rep.Structural))
	return rep
}
