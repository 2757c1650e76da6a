package serve

import (
	"encoding/json"
	"time"

	"alice/internal/jobq"
	"alice/internal/store"
)

// JobRequest is the body of POST /v1/jobs: one design to redact, with
// an optional SAT-attack evaluation of the chosen fabrics.
type JobRequest struct {
	// Name labels the job for humans (listings, logs).
	Name string `json:"name,omitempty"`

	// Exactly one of Source / Bench selects the design: inline Verilog
	// text, or a built-in paper benchmark (gcd, sha256, fir, ...).
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`

	// ConfigYAML is a YAML flow configuration (alice.LoadConfig). When
	// empty, Cfg picks a paper configuration: 1 (64 I/O pins, <=2
	// eFPGAs, the default) or 2 (96 I/O pins, 1 eFPGA). Bench requests
	// inherit the benchmark's protected outputs unless the
	// configuration names its own.
	ConfigYAML string `json:"config_yaml,omitempty"`
	Cfg        int    `json:"cfg,omitempty"`

	// TimeoutMS bounds this job's run (0 = the server default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Attack, when set, runs the SAT attack against every fabric of
	// the chosen solution and reports per-fabric verdicts.
	Attack *AttackRequest `json:"attack,omitempty"`

	// Structural, when true, reports the oracle-free structural
	// analysis of every solution fabric (key-bit classification and
	// effective key length). When an attack stage is also requested,
	// the structurally leaked and dead bits seed the SAT attack as
	// fixed key assignments, the way a real attacker would combine the
	// two. It is part of the memoization key.
	Structural bool `json:"structural,omitempty"`

	// Fresh bypasses the memoized-result store: the flow (and attack)
	// run even if an identical request has a stored result. The store
	// record is refreshed afterwards.
	Fresh bool `json:"fresh,omitempty"`
}

// AttackRequest configures the optional SAT-attack stage.
type AttackRequest struct {
	// MaxIters bounds the distinguishing-input count; 0 applies the
	// server default (DefaultAttackIters).
	MaxIters int `json:"max_iters,omitempty"`
	// MaxConflicts bounds total solver conflicts; 0 applies the server
	// default (DefaultAttackConflicts) — an unbounded attack on an
	// uncrackable fabric would hang a worker forever.
	MaxConflicts int `json:"max_conflicts,omitempty"`
	// Seed drives the attack's distinguishing-input tie-breaking; it
	// is part of the memoization key, so different seeds are distinct
	// results.
	Seed int64 `json:"seed,omitempty"`
	// WarmupPatterns sets the random-simulation warm-up budget; 0
	// applies the engine default (attack.DefaultWarmupPatterns). The
	// resolved count is part of the memoization key.
	WarmupPatterns int `json:"warmup_patterns,omitempty"`
	// NoWarmup disables the warm-up entirely (pure SAT-attack cost),
	// overriding WarmupPatterns.
	NoWarmup bool `json:"no_warmup,omitempty"`
}

// AttackVerdict is the outcome of one fabric's SAT-attack evaluation.
type AttackVerdict struct {
	// Fabric identifies the attacked implementation ("8x8 K4/N4").
	Fabric string `json:"fabric"`
	// KeyBits is the attacked bitstream size.
	KeyBits int `json:"key_bits"`
	// Cracked is true when the attack recovered the full key.
	Cracked bool `json:"cracked"`
	// Iterations / Conflicts measure the attack work (distinguishing
	// inputs and solver conflicts) until convergence or exhaustion.
	Iterations int `json:"iterations"`
	Conflicts  int `json:"conflicts"`
	// BudgetExceeded is true when the fabric survived the budget — the
	// security result the paper's threat model looks for.
	BudgetExceeded bool `json:"budget_exceeded,omitempty"`
	// Error carries non-budget attack failures.
	Error string `json:"error,omitempty"`
}

// StructuralVerdict is the oracle-free structural analysis of one
// solution fabric: how much of its key an attacker learns without a
// working oracle, and what survives.
type StructuralVerdict struct {
	// Fabric identifies the analyzed implementation ("8x8 K4/N4").
	Fabric string `json:"fabric"`
	// KeyBits is the functional key size (LUT mask bits; routing bits
	// are not part of the attack surface).
	KeyBits int `json:"key_bits"`
	// EffectiveKeyBits is what survives the analysis: KeyBits minus
	// the leaked and dead bits.
	EffectiveKeyBits int `json:"effective_key_bits"`
	// LeakedBits counts bits whose value the analysis recovered
	// outright; DeadBits counts bits that cannot influence any output.
	LeakedBits int `json:"leaked_bits"`
	DeadBits   int `json:"dead_bits"`
	// RemovalCandidates counts fabric outputs structurally equivalent
	// to nearby static nets (removal-attack starting points).
	RemovalCandidates int `json:"removal_candidates"`
}

// JobResult is the decoded result of a succeeded job.
type JobResult struct {
	// Design is the top module name.
	Design string `json:"design"`
	// Report is the full flow report (the same JSON as `alice -json`).
	Report json.RawMessage `json:"report"`
	// Attack holds one verdict per solution fabric (requests with an
	// attack stage only).
	Attack []AttackVerdict `json:"attack,omitempty"`
	// Structural holds one verdict per solution fabric (requests with
	// structural analysis only).
	Structural []StructuralVerdict `json:"structural,omitempty"`
	// Cached is true when the result was served from the persistent
	// store without running the flow.
	Cached bool `json:"cached"`
	// StoreKey is the memoization key digest — identical requests map
	// to identical keys.
	StoreKey string `json:"store_key"`
	// ElapsedMS is the handling time of this job (near zero for
	// store hits).
	ElapsedMS int64 `json:"elapsed_ms"`
}

// JobStatus is the API view of a job: the queue snapshot plus, for
// succeeded jobs, the decoded result.
type JobStatus struct {
	ID          string     `json:"id"`
	Name        string     `json:"name,omitempty"`
	State       jobq.State `json:"state"`
	Error       string     `json:"error,omitempty"`
	Attempts    int        `json:"attempts,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   time.Time  `json:"started_at,omitzero"`
	FinishedAt  time.Time  `json:"finished_at,omitzero"`
	Result      *JobResult `json:"result,omitempty"`
}

// jobStatus converts a queue snapshot to the API view.
func jobStatus(j jobq.Job) JobStatus {
	s := JobStatus{
		ID:          j.ID,
		Name:        j.Name,
		State:       j.State,
		Error:       j.Error,
		Attempts:    j.Attempts,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   j.StartedAt,
		FinishedAt:  j.FinishedAt,
	}
	if j.State == jobq.StateSucceeded && len(j.Result) > 0 {
		var res JobResult
		if json.Unmarshal(j.Result, &res) == nil {
			s.Result = &res
		}
	}
	return s
}

// CacheStats reports both tiers of the characterization cache.
type CacheStats struct {
	MemHits    int   `json:"mem_hits"`
	MemMisses  int   `json:"mem_misses"`
	MemEntries int   `json:"mem_entries"`
	DiskHits   int64 `json:"disk_hits"`
	DiskMisses int64 `json:"disk_misses"`
	DiskSkips  int64 `json:"disk_skips"`
}

// HealthResponse is the body of GET /healthz. Status is "ok" (HTTP
// 200) or "degraded" (HTTP 503, Reason explains why — typically a
// sealed store). A degraded daemon still answers jobs from the
// memory tier; readiness probes should treat 503 as "keep traffic
// low", not "dead".
type HealthResponse struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// RetryAfterS is the probe loop's current backoff in seconds —
	// when the daemon itself won't look at the disk again for this
	// long, clients gain nothing by polling sooner. Degraded responses
	// also carry it as the standard Retry-After header.
	RetryAfterS int `json:"retry_after_s,omitempty"`
}

// StatsResponse is the body of GET /v1/stats (and its older alias
// GET /v1/store/stats).
type StatsResponse struct {
	// Store is the persistent store's record/recovery accounting.
	Store store.Stats `json:"store"`
	// Cache is the tiered characterization cache.
	Cache CacheStats `json:"cache"`
	// Jobs counts queue jobs by state. It is a point-in-time census of
	// retained jobs: terminal entries erode as KeepDone evicts them.
	Jobs map[string]int `json:"jobs"`
	// JobTotals are the queue's monotonic since-start counters —
	// unlike Jobs they never shrink, so rates and deltas are safe to
	// derive from them.
	JobTotals jobq.Stats `json:"job_totals"`
	// FlowRuns / AttackRuns count actual executions since daemon
	// start; MemoHits counts jobs answered from the store instead.
	FlowRuns   int64 `json:"flow_runs"`
	AttackRuns int64 `json:"attack_runs"`
	MemoHits   int64 `json:"memo_hits"`
	// FrontEndRuns counts key syntheses since daemon start: designs
	// whose memo key needed parse, elaborate and synthesize because the
	// per-process front-end memo did not know their source.
	FrontEndRuns int64 `json:"front_end_runs"`
	// Rejected counts submissions refused by admission control (503).
	Rejected int64 `json:"rejected"`
	// Probes counts degraded-mode disk probe attempts.
	Probes int64 `json:"probes"`
	// Health mirrors GET /healthz.
	Health HealthResponse `json:"health"`
}
