// Package jobq implements the asynchronous job queue of the redaction
// service: submit → job id → poll/wait, a bounded worker pool, per-job
// timeouts, context cancellation, graceful drain on shutdown, and
// job-state persistence through a journal so queued work survives a
// process restart.
//
// The queue is payload-agnostic: jobs carry opaque bytes in and out,
// and a single Handler executes them. The service layer (alice/serve)
// encodes redaction requests and reports; the queue only manages their
// lifecycle:
//
//	queued ──► running ──► succeeded ◄── (Complete)
//	   ▲           │   ├──► failed
//	   │(retry)    │   └──► quarantined
//	   └───────────┤
//	   ────────────┴──────► canceled
//
// A caller that already holds a job's result (the service's memo hits)
// registers it with Complete: the job enters the table succeeded and
// never reaches a worker.
//
// All bookkeeping lives under one mutex. Queued job ids wait in a FIFO
// list that workers take from, woken by a condition variable. Every job
// that ends, however it ends, is retired through one path: it is
// counted in Stats, appended to a list of terminal jobs kept in finish
// order, and the oldest job of that list is evicted past
// Options.KeepDone, so retention costs the same at any size.
//
// Every transition, and a job submitted already succeeded, is journaled
// before it is visible to pollers, so a crash replays to a consistent
// picture: jobs found queued are re-run;
// jobs found running are re-queued (their worker died with the
// process) unless their attempts already exceed the budget, in which
// case they are quarantined; terminal jobs are history.
//
// Failure domains. A Handler that panics does not kill its worker:
// the panic is caught and converted to a *JobPanicError carrying the
// panic value and stack, so one poison payload cannot take the daemon
// down. A panic is the one retryable failure: the job is re-queued
// with capped exponential backoff plus jitter, up to
// Options.MaxAttempts total executions; the attempt count is
// journaled, so the budget survives restarts. A job that exhausts its
// budget is quarantined: a terminal state distinct from failed,
// flagging a poison job for operator inspection rather than silently
// retrying forever. Handler errors, cancellations and timeouts never
// retry.
package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// State is a job lifecycle state.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCanceled  State = "canceled"
	// StateQuarantined marks a poison job: it exhausted its attempt
	// budget on panics (or died with the process on its last attempt)
	// and is parked for inspection instead of being retried forever.
	StateQuarantined State = "quarantined"
)

// Terminal reports whether no further transition can happen.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCanceled || s == StateQuarantined
}

// Job is one unit of work. Values returned by Get/List/Wait are
// snapshots: the struct is a copy, and the queue never mutates the
// Payload/Result bytes after handing them out.
type Job struct {
	// ID is the queue-assigned identifier ("job-41").
	ID string `json:"id"`
	// Name is the caller's label (optional, for humans).
	Name string `json:"name,omitempty"`
	// Payload is the opaque request handed to the Handler (read-only
	// for the handler).
	Payload []byte `json:"payload,omitempty"`
	// State is the lifecycle state.
	State State `json:"state"`
	// Result is the Handler's output (terminal successes only).
	Result []byte `json:"result,omitempty"`
	// Error is the Handler's failure message (terminal failures only).
	Error string `json:"error,omitempty"`
	// Timeout bounds the Handler run (0 = the queue default).
	Timeout time.Duration `json:"timeout,omitempty"`
	// Attempts counts executions of this job; >1 means a retry or a
	// crash requeue. Journaled, so the retry budget survives restarts.
	Attempts int `json:"attempts,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt stamp the lifecycle.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitzero"`
	FinishedAt  time.Time `json:"finished_at,omitzero"`
	// RetryAt is when a queued-for-retry job becomes runnable again
	// (zero for first-time queued jobs). Informational: a restart
	// re-enqueues the job immediately rather than honouring the
	// remaining backoff.
	RetryAt time.Time `json:"retry_at,omitzero"`
}

// Handler executes one job. The context carries the per-job timeout
// and is canceled by Cancel and by a hard queue shutdown; handlers
// must honour it. The returned bytes become Job.Result; a non-nil
// error marks the job failed (or canceled, if it is a cancellation).
type Handler func(ctx context.Context, job *Job) ([]byte, error)

// Journal persists job state across restarts. *store.Store satisfies
// it. A nil Journal runs the queue in memory only.
type Journal interface {
	Put(key string, val []byte) error
	Delete(key string) error
	Get(key string) ([]byte, bool)
	Keys(prefix string) []string
}

// journalPrefix namespaces job records inside a shared store.
const journalPrefix = "job\x00"

// Options configures New.
type Options struct {
	// Workers is the pool width (min 1).
	Workers int
	// Handler executes jobs (required).
	Handler Handler
	// Journal persists job state (nil = memory only).
	Journal Journal
	// DefaultTimeout bounds jobs that set none (0 = no limit).
	DefaultTimeout time.Duration
	// KeepDone bounds how many terminal jobs are retained in memory
	// and journal (oldest evicted first; 0 = keep all).
	KeepDone int
	// MaxAttempts is the total execution budget per job for panics
	// (min 1 = no retries). A panic with budget left re-queues the job
	// after a backoff; once the budget is spent the job is quarantined.
	MaxAttempts int
	// RetryBaseDelay seeds the capped exponential backoff between
	// attempts (default 250ms): attempt n waits about
	// BaseDelay·2^(n-1), jittered, capped at maxRetryDelay.
	RetryBaseDelay time.Duration
}

// maxRetryDelay caps the retry backoff.
const maxRetryDelay = 30 * time.Second

// Queue is an asynchronous job queue with a worker pool. Safe for
// concurrent use.
type Queue struct {
	opts Options

	mu sync.Mutex
	// ready wakes workers when an id joins pending, the queue closes or
	// a hard stop begins.
	ready *sync.Cond
	jobs  map[string]*Job
	// pending holds the ids of queued jobs in the order they run. A job
	// canceled while queued leaves its id behind; workers skip it.
	pending []string
	// done holds the retained terminal jobs in finish order: the front
	// is the next to evict past KeepDone.
	done []*Job
	// queued counts the jobs in StateQueued; setStateLocked keeps it.
	queued  int
	cancels map[string]context.CancelFunc
	waiters map[string][]chan Job
	retries map[string]*time.Timer
	seq     int
	closed  bool

	// jitter feeds the retry backoff (guarded by mu, like every
	// backoff call): queue-owned so the package never perturbs the
	// process-global math/rand stream.
	jitter *rand.Rand

	exited chan struct{} // closed when all workers have exited
	// baseCtx parents every job's context. Cancelling it is the hard
	// stop: running jobs see it, and workers check it under mu before
	// taking an id.
	baseCtx  context.Context
	stopBase context.CancelFunc

	stats Stats
}

// Stats counts lifecycle outcomes since the queue was built. Unlike
// Counts — a snapshot of the jobs currently in the table, which
// KeepDone eviction erodes — these are monotonic, so operators can see
// retry and quarantine pressure over time.
type Stats struct {
	// Submitted counts accepted submissions (recovered jobs included).
	Submitted int64 `json:"submitted"`
	// Succeeded/Failed/Canceled/Quarantined count terminal outcomes.
	Succeeded   int64 `json:"succeeded"`
	Failed      int64 `json:"failed"`
	Canceled    int64 `json:"canceled"`
	Quarantined int64 `json:"quarantined"`
	// Retries counts retryable failures that were re-queued.
	Retries int64 `json:"retries"`
	// Panics counts handler panics contained by the pool.
	Panics int64 `json:"panics"`
}

// Stats returns a snapshot of the monotonic lifecycle counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// ErrQueueClosed is returned by Submit after Shutdown began.
var ErrQueueClosed = errors.New("jobq: queue is shut down")

// ErrTimeout marks a job that exceeded its per-job timeout; it appears
// in the job's Error field.
var ErrTimeout = errors.New("jobq: job timed out")

// JobPanicError reports a Handler panic, contained by the worker: the
// worker survives, the daemon keeps serving, and the job fails (or
// retries, then quarantines) with the panic value and stack attached.
type JobPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the panic site.
	Stack []byte
}

// Error renders the panic value and stack.
func (e *JobPanicError) Error() string {
	return fmt.Sprintf("jobq: job panicked: %v\n%s", e.Value, e.Stack)
}

// New builds a queue, recovers journaled jobs, and starts the worker
// pool. Jobs journaled as queued or running are re-enqueued in their
// original submission order (running first resets to queued: the
// worker executing it died with the previous process), except a
// running job past its attempt budget, which is quarantined.
func New(opts Options) (*Queue, error) {
	if opts.Handler == nil {
		return nil, fmt.Errorf("jobq: Options.Handler is required")
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = 1
	}
	if opts.RetryBaseDelay <= 0 {
		opts.RetryBaseDelay = 250 * time.Millisecond
	}
	baseCtx, stopBase := context.WithCancel(context.Background())
	q := &Queue{
		opts:     opts,
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]context.CancelFunc),
		waiters:  make(map[string][]chan Job),
		retries:  make(map[string]*time.Timer),
		exited:   make(chan struct{}),
		baseCtx:  baseCtx,
		stopBase: stopBase,
		jitter:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	q.ready = sync.NewCond(&q.mu)
	if err := q.recover(); err != nil {
		stopBase()
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(opts.Workers)
	for range opts.Workers {
		go func() {
			defer wg.Done()
			q.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(q.exited)
	}()
	return q, nil
}

// recover replays the journal before any worker starts: it rebuilds the
// job table and the id sequence, retains the terminal jobs in finish
// order (evicting the oldest past KeepDone), and queues the interrupted
// jobs.
//
// A job found running died with the process. One such interruption is
// always re-run, since it may have been an operator's kill, but a job
// whose attempts exceed MaxAttempts got its last one only as such a
// re-run and died again: it is quarantined, so a job that kills the
// process runs at most MaxAttempts+1 times instead of on every restart.
func (q *Queue) recover() error {
	if q.opts.Journal == nil {
		return nil
	}
	var pending []*Job
	for _, key := range q.opts.Journal.Keys(journalPrefix) {
		raw, ok := q.opts.Journal.Get(key)
		if !ok {
			continue
		}
		j := new(Job)
		if err := json.Unmarshal(raw, j); err != nil {
			return fmt.Errorf("jobq: journal record %q: %w", key, err)
		}
		q.seq = max(q.seq, idSeq(j.ID))
		q.jobs[j.ID] = j
		if j.State == StateQueued {
			q.queued++
		}
		if j.State.Terminal() {
			q.done = append(q.done, j)
		} else {
			pending = append(pending, j)
		}
	}
	sortBy(q.done, func(j *Job) time.Time { return j.FinishedAt })
	sortBy(pending, func(j *Job) time.Time { return j.SubmittedAt })
	q.stats.Submitted += int64(len(pending))
	for _, j := range pending {
		if j.State == StateRunning {
			if j.Attempts > q.opts.MaxAttempts {
				q.settleLocked(j, StateQuarantined, fmt.Sprintf(
					"jobq: the process died during the job's last attempt (attempt %d, budget %d)",
					j.Attempts, q.opts.MaxAttempts))
				continue
			}
			q.setStateLocked(j, StateQueued)
			j.StartedAt = time.Time{}
			if err := q.journal(j); err != nil {
				return err
			}
		}
		q.pending = append(q.pending, j.ID)
	}
	q.evictLocked()
	return nil
}

// sortBy orders jobs by the instant at, oldest first, ties by id.
func sortBy(jobs []*Job, at func(*Job) time.Time) {
	sort.Slice(jobs, func(i, k int) bool {
		if a, b := at(jobs[i]), at(jobs[k]); !a.Equal(b) {
			return a.Before(b)
		}
		return idSeq(jobs[i].ID) < idSeq(jobs[k].ID)
	})
}

// idSeq extracts the numeric suffix of a job id (0 if malformed).
func idSeq(id string) int {
	s := strings.TrimPrefix(id, "job-")
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// journal writes a job's current state (caller holds q.mu or has
// exclusive access to the job).
func (q *Queue) journal(j *Job) error {
	if q.opts.Journal == nil {
		return nil
	}
	raw, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("jobq: encoding job %s: %w", j.ID, err)
	}
	if err := q.opts.Journal.Put(journalPrefix+j.ID, raw); err != nil {
		return fmt.Errorf("jobq: journaling job %s: %w", j.ID, err)
	}
	return nil
}

// SubmitOptions tunes one submission.
type SubmitOptions struct {
	// Name labels the job for humans.
	Name string
	// Timeout bounds this job's run (0 = the queue default).
	Timeout time.Duration
}

// Submit enqueues a job and returns its snapshot (State queued). The
// job is journaled before Submit returns, so an acknowledged
// submission survives a crash: even if the process dies (or shutdown
// begins) before the job reaches a worker, the next start re-runs it.
// Submit never blocks on the backlog; callers bound it (the service's
// admission control).
func (q *Queue) Submit(payload []byte, opts SubmitOptions) (Job, error) {
	return q.register(&Job{
		Name:    opts.Name,
		Payload: append([]byte(nil), payload...),
		State:   StateQueued,
		Timeout: opts.Timeout,
	})
}

// Complete registers a job whose result the caller already has (the
// service answers a memoized request this way) and returns its
// snapshot (State succeeded). The job never reaches a worker: Attempts
// stays 0, and SubmittedAt, StartedAt and FinishedAt are one instant.
// Like Submit, it journals the job before registering it, so no poller
// sees a job a crash would lose. It counts as submitted and succeeded
// and takes part in KeepDone eviction.
func (q *Queue) Complete(payload, result []byte, opts SubmitOptions) (Job, error) {
	return q.register(&Job{
		Name:    opts.Name,
		Payload: append([]byte(nil), payload...),
		State:   StateSucceeded,
		Result:  append([]byte(nil), result...),
		Timeout: opts.Timeout,
	})
}

// register enters a new job, queued or already succeeded, and returns
// its snapshot. It takes the next id, stamps the job and journals it
// before adding it to the table; a journal failure registers nothing.
func (q *Queue) register(j *Job) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, ErrQueueClosed
	}
	q.seq++
	j.ID = fmt.Sprintf("job-%d", q.seq)
	j.SubmittedAt = time.Now().UTC()
	if j.State.Terminal() {
		j.StartedAt, j.FinishedAt = j.SubmittedAt, j.SubmittedAt
	}
	if err := q.journal(j); err != nil {
		q.seq--
		return Job{}, err
	}
	q.jobs[j.ID] = j
	q.stats.Submitted++
	if j.State.Terminal() {
		q.retireLocked(j)
	} else {
		q.queued++
		q.pending = append(q.pending, j.ID)
		q.ready.Signal()
	}
	return *j, nil
}

// worker runs queued jobs in order until a hard stop, or until the
// queue is closed and none is left.
func (q *Queue) worker() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for len(q.pending) == 0 && !q.closed && q.baseCtx.Err() == nil {
			q.ready.Wait()
		}
		// After a hard stop the jobs still queued stay journaled as
		// queued and re-run on the next start.
		if q.baseCtx.Err() != nil || len(q.pending) == 0 {
			return
		}
		j := q.jobs[q.pending[0]]
		q.pending = q.pending[1:]
		if j != nil && j.State == StateQueued {
			q.runLocked(j)
		}
	}
}

// runLocked runs a queued job through the handler and settles it (or,
// after a panic with budget left, queues it for a retry). The caller
// holds q.mu, which is released while the handler runs.
func (q *Queue) runLocked(j *Job) {
	timeout := j.Timeout
	if timeout == 0 {
		timeout = q.opts.DefaultTimeout
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(q.baseCtx, timeout, ErrTimeout)
	} else {
		ctx, cancel = context.WithCancel(q.baseCtx)
	}
	defer cancel()
	q.setStateLocked(j, StateRunning)
	j.StartedAt = time.Now().UTC()
	j.RetryAt = time.Time{}
	j.Attempts++
	if err := q.journal(j); err != nil {
		// The journal is the durability contract; a job we cannot
		// journal as running must not run.
		q.settleLocked(j, StateFailed, err.Error())
		return
	}
	q.cancels[j.ID] = cancel
	q.notifyLocked(j)
	snap := *j
	q.mu.Unlock()
	result, err := q.safeRun(ctx, &snap)
	if err == nil && ctx.Err() != nil {
		// The handler ignored a cancellation; honour it anyway.
		err = ctx.Err()
	}
	q.mu.Lock()
	delete(q.cancels, j.ID)
	var pe *JobPanicError
	switch {
	case err == nil:
		j.Result = append([]byte(nil), result...)
		q.settleLocked(j, StateSucceeded, "")
	case errors.Is(err, context.Canceled):
		q.settleLocked(j, StateCanceled, err.Error())
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTimeout):
		// A job that spent its own run budget would spend it again:
		// never retried.
		q.settleLocked(j, StateFailed, ErrTimeout.Error())
	case !errors.As(err, &pe):
		q.settleLocked(j, StateFailed, err.Error())
	case j.Attempts < q.opts.MaxAttempts:
		q.stats.Panics++
		q.retryLocked(j, err)
	default:
		// The attempt budget is spent: park the poison job.
		q.stats.Panics++
		q.settleLocked(j, StateQuarantined, err.Error())
	}
}

// safeRun executes the handler with panic containment: a panicking
// payload yields a *JobPanicError instead of killing the worker (and
// with it, the whole daemon).
func (q *Queue) safeRun(ctx context.Context, j *Job) (result []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &JobPanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return q.opts.Handler(ctx, j)
}

// setStateLocked moves a registered job to state st and keeps the
// count of queued jobs (caller holds q.mu).
func (q *Queue) setStateLocked(j *Job, st State) {
	if j.State == StateQueued {
		q.queued--
	}
	if st == StateQueued {
		q.queued++
	}
	j.State = st
}

// settleLocked ends a registered job in terminal state st with error
// message msg: it stamps and journals the job, then retires it.
func (q *Queue) settleLocked(j *Job, st State, msg string) {
	q.setStateLocked(j, st)
	j.Error = msg
	j.FinishedAt = time.Now().UTC()
	// A journal error cannot demote the in-memory state; the job would
	// simply re-run after a crash.
	_ = q.journal(j)
	q.retireLocked(j)
}

// retireLocked is the one path of every job that ends, settled or
// registered already succeeded: it counts the job in Stats, retains it
// at the back of the finish-order list, evicts past KeepDone and wakes
// the job's waiters.
func (q *Queue) retireLocked(j *Job) {
	switch j.State {
	case StateSucceeded:
		q.stats.Succeeded++
	case StateFailed:
		q.stats.Failed++
	case StateCanceled:
		q.stats.Canceled++
	case StateQuarantined:
		q.stats.Quarantined++
	}
	q.done = append(q.done, j)
	q.evictLocked()
	q.notifyLocked(j)
}

// evictLocked drops the oldest retained jobs past KeepDone, from memory
// and journal. Past the bound each retired job evicts one.
func (q *Queue) evictLocked() {
	for q.opts.KeepDone > 0 && len(q.done) > q.opts.KeepDone {
		j := q.done[0]
		q.done[0] = nil // the evicted job's bytes need not wait for a regrow
		q.done = q.done[1:]
		delete(q.jobs, j.ID)
		if q.opts.Journal != nil {
			_ = q.opts.Journal.Delete(journalPrefix + j.ID)
		}
	}
}

// retryLocked re-queues a job after a panic (caller holds q.mu): the
// failure and attempt count are journaled first, so the budget
// survives a crash, then a timer queues the job again after a capped,
// jittered exponential backoff.
func (q *Queue) retryLocked(j *Job, cause error) {
	q.setStateLocked(j, StateQueued)
	j.Error = cause.Error()
	j.StartedAt = time.Time{}
	q.stats.Retries++
	delay := q.backoff(j.Attempts)
	j.RetryAt = time.Now().UTC().Add(delay)
	_ = q.journal(j)
	q.notifyLocked(j)
	id := j.ID
	q.retries[id] = time.AfterFunc(delay, func() { q.enqueueRetry(id) })
}

// backoff computes the delay before attempt n+1: base·2^(n-1) capped
// at maxRetryDelay, with up to 50% random jitter shaved off so
// synchronized failures do not retry in lockstep.
func (q *Queue) backoff(attempts int) time.Duration {
	d := q.opts.RetryBaseDelay
	for i := 1; i < attempts && d < maxRetryDelay; i++ {
		d *= 2
	}
	d = min(d, maxRetryDelay)
	if d > 1 {
		d -= time.Duration(q.jitter.Int63n(int64(d) / 2))
	}
	return d
}

// enqueueRetry is the retry timer's callback: it queues the job again
// unless it was canceled meanwhile or the queue closed, which leaves it
// journaled as queued for the next process start.
func (q *Queue) enqueueRetry(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.retries, id)
	if j, ok := q.jobs[id]; ok && j.State == StateQueued && !q.closed {
		q.pending = append(q.pending, id)
		q.ready.Signal()
	}
}

// notifyLocked delivers a snapshot to every waiter of the job.
func (q *Queue) notifyLocked(j *Job) {
	ws := q.waiters[j.ID]
	if len(ws) == 0 {
		return
	}
	snap := *j
	for _, ch := range ws {
		select {
		case ch <- snap:
		default:
		}
	}
	if j.State.Terminal() {
		delete(q.waiters, j.ID)
	}
}

// Get returns a snapshot of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns snapshots of all known jobs, newest submission first.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].SubmittedAt.Equal(out[k].SubmittedAt) {
			return out[i].SubmittedAt.After(out[k].SubmittedAt)
		}
		return idSeq(out[i].ID) > idSeq(out[k].ID)
	})
	return out
}

// Cancel requests cancellation: a queued job is canceled immediately,
// a running job has its context canceled (the handler decides how
// fast to stop). It reports whether the job existed and was not
// already terminal.
func (q *Queue) Cancel(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	switch {
	case !ok || j.State.Terminal():
		return false
	case j.State == StateQueued:
		// A worker or retry timer that later takes its id skips it.
		q.settleLocked(j, StateCanceled, context.Canceled.Error())
	default:
		q.cancels[id]()
	}
	return true
}

// Wait blocks until the job reaches a terminal state or ctx is done,
// returning the job's final (or, on ctx expiry, current) snapshot.
func (q *Queue) Wait(ctx context.Context, id string) (Job, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return Job{}, fmt.Errorf("jobq: unknown job %q", id)
	}
	if j.State.Terminal() {
		snap := *j
		q.mu.Unlock()
		return snap, nil
	}
	ch := make(chan Job, 4)
	q.waiters[id] = append(q.waiters[id], ch)
	q.mu.Unlock()
	for {
		select {
		case <-ctx.Done():
			// Deregister so an abandoned long-poll does not pin its
			// waiter channel in the map for the life of the job.
			q.mu.Lock()
			ws := q.waiters[id]
			for i, c := range ws {
				if c == ch {
					q.waiters[id] = append(ws[:i], ws[i+1:]...)
					break
				}
			}
			if len(q.waiters[id]) == 0 {
				delete(q.waiters, id)
			}
			q.mu.Unlock()
			snap, _ := q.Get(id)
			return snap, ctx.Err()
		case snap := <-ch:
			if snap.State.Terminal() {
				return snap, nil
			}
		}
	}
}

// Queued reports how many jobs are queued, waiting for a worker or out
// a retry backoff: Counts()[StateQueued] in constant time, for
// admission control on every submission.
func (q *Queue) Queued() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

// Counts reports how many jobs are in each state. It walks every
// retained job.
func (q *Queue) Counts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[State]int)
	for _, j := range q.jobs {
		out[j.State]++
	}
	return out
}

// Shutdown stops accepting submissions and drains: workers run the
// queued jobs until ctx is done. Then it stops hard: it cancels the
// running jobs' contexts, workers take no further job, and it waits for
// them to exit. Jobs that never started, and jobs waiting out a retry
// backoff, stay journaled as queued and re-run on the next process
// start.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	q.closed = true
	for id, tm := range q.retries {
		tm.Stop()
		delete(q.retries, id)
	}
	q.ready.Broadcast()
	q.mu.Unlock()
	select {
	case <-q.exited:
		q.stopBase()
		return nil
	case <-ctx.Done():
	}
	// Workers check the base context under q.mu before taking an id, so
	// none starts another job once this broadcast is out.
	q.mu.Lock()
	q.stopBase()
	q.ready.Broadcast()
	q.mu.Unlock()
	<-q.exited
	return ctx.Err()
}
