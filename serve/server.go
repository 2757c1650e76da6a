// Package serve implements redaction-as-a-service: a daemon that runs
// the ALICE flow (and optionally the SAT-attack evaluation) behind an
// HTTP/JSON API with an async job queue and a crash-safe persistent
// result store.
//
// Three layers compose:
//
//   - internal/store persists everything in one append-only log:
//     memoized flow results, gob-encoded cluster characterizations,
//     and the job journal. Committed records survive kill -9.
//   - internal/jobq turns submissions into job IDs processed by a
//     worker pool with per-job timeouts; jobs survive restarts.
//   - alice.Engine runs the flow, reading characterizations through a
//     TieredCache (memory over disk), so a restarted daemon never
//     re-characterizes a cluster it has seen before.
//
// Full-result memoization sits above the engine: requests are keyed by
// Config.Key() + the design's canonical netlist content hash + the
// attack parameters, so resubmitting an identical design (even
// reformatted) returns the stored result without invoking a single
// flow stage. Submission derives the key to validate the request, so
// it answers such a request itself: the job is journaled already
// succeeded (jobq.Queue.Complete) and returned with its result. A
// per-process memo from (top module, source text) to the netlist
// content hash lets a repeated design skip parse, elaborate and
// synthesize when its key is derived again.
//
// Failure domains. The daemon is built to keep serving through the
// failures production delivers:
//
//   - A panicking job payload is contained by the queue (the worker
//     recovers, the job quarantines after its attempt budget) and the
//     daemon keeps accepting and completing other jobs.
//   - Submissions beyond MaxQueueDepth are refused with 503 and a
//     Retry-After instead of blocking the accept loop.
//   - When the store's write path fails (fsync errors, full disk), the
//     server degrades instead of dying: jobs keep running and are
//     answered from the memory cache tier, /healthz flips to
//     "degraded" (HTTP 503, a readiness signal), and a background
//     probe re-opens the store until the disk answers again.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alice"
	"alice/internal/attack"
	"alice/internal/iofault"
	"alice/internal/jobq"
	"alice/internal/netlist"
	"alice/internal/rtl"
	"alice/internal/store"
	"alice/internal/synth"
	"alice/internal/verilog"
)

// resultPrefix namespaces memoized flow results in the shared store.
const resultPrefix = "result\x00"

// frontEndMemoCap bounds the front-end memo. An entry is a 32-byte
// source digest plus a 64-byte netlist hash, so a full memo stays well
// under a megabyte.
const frontEndMemoCap = 4096

// probeKey is the scratch record the degraded-mode probe loop writes
// and deletes to prove the disk accepts commits again.
const probeKey = "probe\x00health"

// DefaultAttackIters and DefaultAttackConflicts are the budgets
// applied when an attack request sets no bound of its own (the attack
// engine treats zero as an empty budget, not as unlimited — see
// attack.DefaultBudget): large enough to crack every paper
// benchmark's fabrics, small enough that an uncrackable fabric fails
// deterministically instead of pinning a worker. They are the attack
// engine's own defaults, shared with the alicebench sweep budgets.
const (
	DefaultAttackIters     = attack.DefaultMaxIters
	DefaultAttackConflicts = attack.DefaultMaxConflicts
)

// StoreFile is the name of the store log inside the data directory.
const StoreFile = "alice.store"

// Options configures a Server.
type Options struct {
	// DataDir holds the persistent store (created if missing).
	DataDir string
	// Workers is the job worker-pool width (default GOMAXPROCS).
	Workers int
	// JobTimeout bounds each job run (default 15m).
	JobTimeout time.Duration
	// KeepDone bounds retained terminal jobs (default 512).
	KeepDone int
	// EngineOptions are appended to every per-job engine (tests attach
	// observers here; WithConfig/WithCache are set by the server and
	// would be overridden).
	EngineOptions []alice.Option
	// NoSync disables fsync-per-commit in the store (tests only).
	NoSync bool
	// MaxQueueDepth bounds the submission backlog, and is the only
	// bound on it: submits beyond this many queued jobs are refused
	// with 503 + Retry-After (default 256).
	MaxQueueDepth int
	// MaxAttempts is the per-job execution budget for panicking
	// payloads, the one retryable failure, before quarantine (default
	// 2: one retry).
	MaxAttempts int
	// RetryBaseDelay seeds the retry backoff (default 1s).
	RetryBaseDelay time.Duration
	// ProbeInterval paces the degraded-mode disk re-probe loop
	// (default 3s). Consecutive failed probes back off exponentially
	// from this interval up to ProbeMaxInterval, so a disk that stays
	// dead for hours is probed (and error-logged by the kernel) a few
	// times a minute, not hundreds.
	ProbeInterval time.Duration
	// ProbeMaxInterval caps the probe backoff (default 16x
	// ProbeInterval). The current delay is surfaced to clients as the
	// Retry-After of degraded /healthz responses.
	ProbeMaxInterval time.Duration
	// StoreFS overrides the store's file system (fault-injection
	// tests only).
	StoreFS iofault.FS
}

// Server is the redaction service: store + queue + engine + HTTP API.
// Create with New, serve s.Handler(), stop with Close.
type Server struct {
	opts   Options
	st     *store.Store
	tiered *TieredCache
	queue  *jobq.Queue
	mux    *http.ServeMux

	flowRuns     atomic.Int64
	attackRuns   atomic.Int64
	memoHits     atomic.Int64
	frontEndRuns atomic.Int64 // key syntheses (front-end memo misses)
	frontEnd     frontEndMemo

	// storeErr is the latest store write failure (empty when healthy);
	// together with store.Sealed it drives the degraded health state.
	storeErr   atomic.Pointer[string]
	rejected   atomic.Int64 // submissions refused by admission control
	probeStop  chan struct{}
	probeDone  chan struct{}
	degradedAt atomic.Int64 // unix nanos of the first unresolved failure (0 = healthy)
	probes     atomic.Int64 // degraded-mode probe attempts
	probeDelay atomic.Int64 // current probe backoff (ns) — the degraded Retry-After
}

// New opens (or creates) the data directory and store, recovers any
// journaled jobs from a previous run, and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.DataDir == "" {
		return nil, errors.New("serve: Options.DataDir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 15 * time.Minute
	}
	if opts.KeepDone <= 0 {
		opts.KeepDone = 512
	}
	if opts.MaxQueueDepth <= 0 {
		opts.MaxQueueDepth = 256
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 2
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = time.Second
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 3 * time.Second
	}
	if opts.ProbeMaxInterval <= 0 {
		opts.ProbeMaxInterval = 16 * opts.ProbeInterval
	}
	if opts.ProbeMaxInterval < opts.ProbeInterval {
		opts.ProbeMaxInterval = opts.ProbeInterval
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	st, err := store.Open(filepath.Join(opts.DataDir, StoreFile),
		store.Options{NoSync: opts.NoSync, FS: opts.StoreFS})
	if err != nil {
		return nil, fmt.Errorf("serve: opening store: %w", err)
	}
	s := &Server{opts: opts, st: st, probeStop: make(chan struct{}), probeDone: make(chan struct{})}
	s.tiered = NewTieredCache(alice.NewCharacterizationCache(), st)
	s.tiered.OnWriteError = s.noteStoreErr
	q, err := jobq.New(jobq.Options{
		Workers:        opts.Workers,
		Handler:        s.runJob,
		Journal:        st,
		DefaultTimeout: opts.JobTimeout,
		KeepDone:       opts.KeepDone,
		MaxAttempts:    opts.MaxAttempts,
		RetryBaseDelay: opts.RetryBaseDelay,
	})
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("serve: starting queue: %w", err)
	}
	s.queue = q
	s.mux = http.NewServeMux()
	s.routes()
	go s.probeLoop()
	return s, nil
}

// Handler returns the HTTP API (see routes in http.go).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the underlying store (stats, tests).
func (s *Server) Store() *store.Store { return s.st }

// Cache exposes the tiered characterization cache (stats, tests).
func (s *Server) Cache() *TieredCache { return s.tiered }

// Queue exposes the job queue (tests, embedding).
func (s *Server) Queue() *jobq.Queue { return s.queue }

// Close stops the probe loop, drains the queue (until ctx expires,
// then hard-stops), and closes the store. Jobs still queued stay
// journaled and re-run on the next start.
func (s *Server) Close(ctx context.Context) error {
	close(s.probeStop)
	<-s.probeDone
	qErr := s.queue.Shutdown(ctx)
	if err := s.st.Close(); err != nil && qErr == nil {
		qErr = err
	}
	return qErr
}

// noteStoreErr records a store write failure: the health state flips
// to degraded until the probe loop proves the disk answers again.
func (s *Server) noteStoreErr(err error) {
	msg := err.Error()
	s.storeErr.Store(&msg)
	s.degradedAt.CompareAndSwap(0, time.Now().UnixNano())
}

// health resolves the current health state. Degraded means the store's
// write path is failing; reads (and therefore jobs) still serve from
// the memory tier and the in-memory index.
func (s *Server) health() HealthResponse {
	if err := s.st.Sealed(); err != nil {
		return HealthResponse{Status: "degraded", Reason: err.Error(), RetryAfterS: s.retryAfterSeconds()}
	}
	if msg := s.storeErr.Load(); msg != nil {
		return HealthResponse{Status: "degraded", Reason: *msg, RetryAfterS: s.retryAfterSeconds()}
	}
	return HealthResponse{Status: "ok"}
}

// probeLoop is the degraded-mode re-probe: while the store's write
// path is failing it periodically re-opens the log (a fresh descriptor
// plus a replay — the only trustworthy move after a failed fsync) and
// proves a round-trip write, flipping health back to ok on success.
// Consecutive failures back off exponentially (ProbeInterval doubling
// up to ProbeMaxInterval, reset on success or health), and the current
// delay is what degraded /healthz responses advertise as Retry-After.
func (s *Server) probeLoop() {
	defer close(s.probeDone)
	delay := s.opts.ProbeInterval
	s.probeDelay.Store(int64(delay))
	t := time.NewTimer(delay)
	defer t.Stop()
	for {
		select {
		case <-s.probeStop:
			return
		case <-t.C:
		}
		if s.st.Sealed() == nil && s.storeErr.Load() == nil {
			delay = s.opts.ProbeInterval
		} else {
			s.probes.Add(1)
			if s.probeOnce() {
				delay = s.opts.ProbeInterval
			} else {
				delay *= 2
				if delay > s.opts.ProbeMaxInterval {
					delay = s.opts.ProbeMaxInterval
				}
			}
		}
		s.probeDelay.Store(int64(delay))
		t.Reset(delay)
	}
}

// probeOnce makes one attempt to prove the disk answers again: reopen
// a sealed store, then round-trip a scratch commit. It reports whether
// the daemon is healthy again.
func (s *Server) probeOnce() bool {
	if s.st.Sealed() != nil {
		if err := s.st.Reopen(); err != nil {
			return false // disk still sick; back off
		}
	}
	// Prove a full commit round-trips before declaring health.
	if err := s.st.Put(probeKey, []byte("ok")); err != nil {
		s.noteStoreErr(err)
		return false
	}
	_ = s.st.Delete(probeKey)
	s.storeErr.Store(nil)
	s.degradedAt.Store(0)
	return true
}

// retryAfterSeconds is the client-facing backoff hint while degraded:
// the probe loop's current delay, rounded up to whole seconds (the
// Retry-After unit), never less than 1.
func (s *Server) retryAfterSeconds() int {
	d := time.Duration(s.probeDelay.Load())
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// prepared is a resolved job request: the design source, the effective
// configuration, normalized attack options, and the memoization key.
type prepared struct {
	src        string
	ast        *verilog.Design // parsed source; nil when the front-end memo answered
	cfg        *alice.Config
	attack     *attack.Options // nil when no attack stage
	structural bool            // report structural verdicts (and seed the attack)
	fresh      bool            // bypass the stored result
	memoID     string          // hex digest, reported as JobResult.StoreKey
	key        string          // full store key (resultPrefix + memoID)
}

// resolve validates the request shape and resolves source, config and
// attack options. It touches no design text: the front end runs in
// prepare.
func (s *Server) resolve(req *JobRequest) (*prepared, error) {
	pj := &prepared{structural: req.Structural, fresh: req.Fresh}
	var benchOutputs []string
	switch {
	case req.Source != "" && req.Bench != "":
		return nil, errors.New("request has both source and bench; pick one")
	case req.Source != "":
		pj.src = req.Source
	case req.Bench != "":
		b, ok := alice.BenchmarkByName(req.Bench)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
		}
		pj.src = b.Source()
		benchOutputs = b.SelectedOutputs
	default:
		return nil, errors.New("request needs source (Verilog text) or bench (benchmark name)")
	}

	switch {
	case req.ConfigYAML != "":
		cfg, err := alice.LoadConfig(req.ConfigYAML)
		if err != nil {
			return nil, fmt.Errorf("config_yaml: %w", err)
		}
		pj.cfg = cfg
	case req.Cfg == 0 || req.Cfg == 1:
		pj.cfg = alice.Cfg1()
	case req.Cfg == 2:
		pj.cfg = alice.Cfg2()
	default:
		return nil, fmt.Errorf("cfg must be 1 or 2, got %d", req.Cfg)
	}
	if len(pj.cfg.SelectedOutputs) == 0 && benchOutputs != nil {
		pj.cfg.SelectedOutputs = benchOutputs
	}
	if err := pj.cfg.Validate(); err != nil {
		return nil, err
	}

	if req.Attack != nil {
		a := attack.Options{
			MaxIters:       req.Attack.MaxIters,
			MaxConflicts:   req.Attack.MaxConflicts,
			Seed:           req.Attack.Seed,
			WarmupPatterns: req.Attack.WarmupPatterns,
			NoWarmup:       req.Attack.NoWarmup,
		}
		if a.MaxIters <= 0 {
			a.MaxIters = DefaultAttackIters
		}
		if a.MaxConflicts <= 0 {
			a.MaxConflicts = DefaultAttackConflicts
		}
		pj.attack = &a
	}
	return pj, nil
}

// prepare resolves the request and computes its memoization key:
// SHA-256 over Config.Key(), the canonical netlist content hash of the
// design, and the attack parameters. The content hash is taken on the
// synthesized netlist, so sources differing only in formatting or
// comments memoize to the same record (synthesis is deterministic),
// while any logic change produces a fresh key. It is the submit-time
// validation too: a design that fails to parse, elaborate or
// synthesize is refused with 400 instead of becoming a failed job.
func (s *Server) prepare(req *JobRequest) (*prepared, error) {
	pj, err := s.resolve(req)
	if err != nil {
		return nil, err
	}
	netHash, err := s.netlistHash(pj)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00", pj.cfg.Key(), netHash)
	if pj.attack != nil {
		// The *resolved* warm-up count is part of the key, so flipping
		// the engine default (or opting out) never aliases records
		// computed under a different warm-up regime.
		fmt.Fprintf(h, "attack:iters=%d,conflicts=%d,seed=%d,warmup=%d",
			pj.attack.MaxIters, pj.attack.MaxConflicts, pj.attack.Seed, pj.attack.EffectiveWarmup())
	}
	if pj.structural {
		// Appended only when set, so every pre-structural record keeps
		// its key. A structural request changes the result shape (the
		// verdicts) and, with an attack stage, its work (seeding), so
		// it must not alias a plain record.
		fmt.Fprintf(h, "\x00structural")
	}
	pj.memoID = hex.EncodeToString(h.Sum(nil))
	pj.key = resultPrefix + pj.memoID
	return pj, nil
}

// netlistHash returns the content hash of the design's synthesized
// netlist. The front-end memo answers a (top, source) pair it has seen;
// otherwise the source is parsed (the AST is kept for the flow),
// elaborated and synthesized, and the hash is memoized only once all
// three succeeded.
func (s *Server) netlistHash(pj *prepared) (string, error) {
	digest := sourceDigest(pj.cfg.Top, pj.src)
	if h, ok := s.frontEnd.get(digest); ok {
		return h, nil
	}
	ast, err := alice.Parse(pj.src)
	if err != nil {
		return "", fmt.Errorf("parsing design: %w", err)
	}
	pj.ast = ast
	d, err := rtl.Elaborate(ast, pj.cfg.Top)
	if err != nil {
		return "", fmt.Errorf("elaborating design: %w", err)
	}
	s.frontEndRuns.Add(1)
	// Clocks unify as in characterization, so a multi-clock design the
	// flow redacts is not refused here. The option only lifts the
	// single-clock check: single-clock netlists, and so their hashes,
	// do not change.
	sr, err := synth.SynthesizeOpts(d, synth.Options{UnifyClocks: true})
	if err != nil {
		return "", fmt.Errorf("synthesizing design: %w", err)
	}
	h := netlist.ContentHash(sr.Netlist)
	s.frontEnd.put(digest, h)
	return h, nil
}

// sourceDigest names a design for the front-end memo: the top module
// (elaboration depends on it) and the exact source text. The top is
// length-prefixed so no (top, source) pair can alias another.
func sourceDigest(top, src string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(strconv.Itoa(len(top)) + ":" + top))
	h.Write([]byte(src))
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// frontEndMemo maps a source digest to the content hash of the design's
// synthesized netlist. It lives in process memory on purpose: a
// persisted entry would outlive a synthesizer change and map a source
// to a stale netlist hash. At frontEndMemoCap entries an arbitrary one
// is dropped per insert; a dropped design only pays its front end again.
type frontEndMemo struct {
	mu sync.Mutex
	m  map[[sha256.Size]byte]string
}

func (f *frontEndMemo) get(k [sha256.Size]byte) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h, ok := f.m[k]
	return h, ok
}

func (f *frontEndMemo) put(k [sha256.Size]byte, h string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.m == nil {
		f.m = make(map[[sha256.Size]byte]string)
	}
	if _, ok := f.m[k]; !ok && len(f.m) >= frontEndMemoCap {
		for old := range f.m {
			delete(f.m, old)
			break
		}
	}
	f.m[k] = h
}

// memoHit answers a request from the store: its stored result marked
// cached, with the time since start as its handling time. ok is false
// when the request asks for a fresh run, nothing is stored under its
// key, or the record does not decode; the caller then computes the
// result over it.
func (s *Server) memoHit(pj *prepared, start time.Time) ([]byte, bool) {
	if pj.fresh {
		return nil, false
	}
	raw, ok := s.st.Get(pj.key)
	if !ok {
		return nil, false
	}
	var res JobResult
	if json.Unmarshal(raw, &res) != nil {
		return nil, false
	}
	res.Cached = true
	res.ElapsedMS = time.Since(start).Milliseconds()
	out, err := json.Marshal(res)
	return out, err == nil
}

// runJob is the queue handler: memo lookup, then flow + attack. Most
// hits are answered at submission; this lookup answers a job queued
// before its result was stored (an identical request in flight, or a
// job recovered after a restart).
func (s *Server) runJob(ctx context.Context, job *jobq.Job) ([]byte, error) {
	var req JobRequest
	if err := json.Unmarshal(job.Payload, &req); err != nil {
		return nil, fmt.Errorf("decoding job payload: %w", err)
	}
	pj, err := s.prepare(&req)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if res, ok := s.memoHit(pj, start); ok {
		s.memoHits.Add(1)
		return res, nil
	}

	ast := pj.ast
	if ast == nil {
		// The front-end memo derived the key; the flow needs the design.
		if ast, err = alice.Parse(pj.src); err != nil {
			return nil, fmt.Errorf("parsing design: %w", err)
		}
	}
	engOpts := append([]alice.Option{
		alice.WithConfig(pj.cfg),
		alice.WithCache(s.tiered),
	}, s.opts.EngineOptions...)
	eng := alice.NewEngine(engOpts...)
	s.flowRuns.Add(1)
	rep, err := eng.Run(ctx, ast)
	if err != nil {
		// Hard failure (cancellation): not a memoizable outcome.
		return nil, err
	}
	repJSON, err := rep.JSON()
	if err != nil {
		return nil, err
	}
	res := JobResult{
		Design:   rep.Design,
		Report:   repJSON,
		StoreKey: pj.memoID,
	}
	if rep.Err == nil && rep.Solution != nil {
		for _, fc := range rep.Solution.Fabrics {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if pj.structural {
				res.Structural = append(res.Structural, structuralVerdict(fc))
			}
			if pj.attack != nil {
				s.attackRuns.Add(1)
				aopts := *pj.attack
				if pj.structural && fc.Structural != nil {
					// Seed the attack with the structurally known bits,
					// the way an attacker would: leaked bits at their
					// recovered values, dead bits at any fixed value.
					aopts.FixedKey = fc.Structural.FixedKey()
				}
				av, err := runAttack(ctx, fc, aopts)
				if err != nil {
					return nil, err
				}
				res.Attack = append(res.Attack, av)
			}
		}
	}
	res.ElapsedMS = time.Since(start).Milliseconds()
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	// Memoize: flow diagnostics (Report.Err) and attack budget
	// exhaustion are deterministic outcomes, as cacheable as success.
	// A failed Put degrades to an unmemoized success — the job still
	// completes from memory — but flips health to degraded so the
	// probe loop starts chasing the disk.
	if err := s.st.Put(pj.key, raw); err != nil {
		s.noteStoreErr(err)
	}
	return raw, nil
}

// structuralVerdict projects a fabric's structural report onto the API
// view. Characterization analyzes every fabric and the disk tier keeps
// the report (a record without one is a miss). A candidate without a
// report (its analysis failed) degrades to a zeroed verdict rather than
// failing the job.
func structuralVerdict(fc *alice.FabricCandidate) StructuralVerdict {
	arch := fc.Fabric.Arch
	v := StructuralVerdict{
		Fabric: fmt.Sprintf("%dx%d K%d/N%d", arch.W, arch.W, arch.LUTSize, arch.BLEsPerCLB),
	}
	if s := fc.Structural; s != nil {
		v.KeyBits = s.KeyBits
		v.EffectiveKeyBits = s.EffectiveKeyBits
		v.LeakedBits = s.LeakedBits
		v.DeadBits = s.DeadBits
		v.RemovalCandidates = len(s.Removals)
	}
	return v
}

// runAttack evaluates one solution fabric under the SAT attack. An
// attack error is part of the verdict; only cancellation of ctx, which
// stops the attack within one conflict, fails the job.
func runAttack(ctx context.Context, fc *alice.FabricCandidate, opts attack.Options) (AttackVerdict, error) {
	arch := fc.Fabric.Arch
	v := AttackVerdict{
		Fabric: fmt.Sprintf("%dx%d K%d/N%d", arch.W, arch.W, arch.LUTSize, arch.BLEsPerCLB),
	}
	ev, err := attack.Evaluate(ctx, fc.Fabric.LUTs, opts)
	if err != nil {
		if ctx.Err() != nil {
			return v, err
		}
		v.Error = err.Error()
		return v, nil
	}
	v.KeyBits = ev.KeyBits
	v.Cracked = ev.Cracked
	v.BudgetExceeded = !ev.Cracked
	v.Iterations = ev.DIPs
	v.Conflicts = ev.Conflicts
	return v, nil
}

// stats assembles the service-wide stats response.
func (s *Server) stats() StatsResponse {
	mh, mm, me := s.tiered.Stats()
	dh, dm, ds := s.tiered.DiskStats()
	jobs := make(map[string]int)
	for state, n := range s.queue.Counts() {
		jobs[string(state)] = n
	}
	return StatsResponse{
		Health: s.health(),
		Store:  s.st.Stats(),
		Cache: CacheStats{
			MemHits:    mh,
			MemMisses:  mm,
			MemEntries: me,
			DiskHits:   dh,
			DiskMisses: dm,
			DiskSkips:  ds,
		},
		Jobs:         jobs,
		JobTotals:    s.queue.Stats(),
		FlowRuns:     s.flowRuns.Load(),
		AttackRuns:   s.attackRuns.Load(),
		MemoHits:     s.memoHits.Load(),
		FrontEndRuns: s.frontEndRuns.Load(),
		Rejected:     s.rejected.Load(),
		Probes:       s.probes.Load(),
	}
}
