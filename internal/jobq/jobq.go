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
// down. Failures classified retryable — panics always, other errors
// when Options.Retryable says so — are re-queued with capped
// exponential backoff plus jitter, up to Options.MaxAttempts total
// executions; the attempt count is journaled, so the budget survives
// restarts. A job that exhausts its budget on retryable failures is
// quarantined: a terminal state distinct from failed, flagging a
// poison job for operator inspection rather than silently retrying
// forever. Cancellations and timeouts never retry.
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
	// budget on retryable failures (panics included) and is parked for
	// inspection instead of being retried forever.
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
	// MaxAttempts is the total execution budget per job for retryable
	// failures (min 1 = no retries). A retryable failure with budget
	// left re-queues the job after a backoff; once the budget is spent
	// the job is quarantined.
	MaxAttempts int
	// RetryBaseDelay seeds the capped exponential backoff between
	// attempts (default 250ms): attempt n waits about
	// BaseDelay·2^(n-1), jittered, capped at RetryMaxDelay.
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff (default 30s).
	RetryMaxDelay time.Duration
	// Retryable classifies handler errors as transient (worth another
	// attempt) or deterministic. Nil means no handler error is
	// retryable; panics are always treated as retryable regardless.
	// Cancellations and timeouts are never consulted.
	Retryable func(error) bool
}

// Queue is an asynchronous job queue with a worker pool. Safe for
// concurrent use.
type Queue struct {
	opts Options

	mu      sync.Mutex
	jobs    map[string]*Job
	cancels map[string]context.CancelFunc
	waiters map[string][]chan Job
	retries map[string]*time.Timer
	seq     int
	closed  bool

	// submitters tracks in-flight Submit calls past the closed check,
	// so Shutdown can close the work channel without racing a send.
	submitters sync.WaitGroup

	// jitter feeds the retry backoff (guarded by mu, like every
	// backoff call): queue-owned so the package never perturbs the
	// process-global math/rand stream.
	jitter *rand.Rand

	work     chan string
	done     chan struct{} // closed when all workers have exited
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
	if opts.RetryMaxDelay <= 0 {
		opts.RetryMaxDelay = 30 * time.Second
	}
	baseCtx, stopBase := context.WithCancel(context.Background())
	q := &Queue{
		opts:     opts,
		jobs:     make(map[string]*Job),
		cancels:  make(map[string]context.CancelFunc),
		waiters:  make(map[string][]chan Job),
		retries:  make(map[string]*time.Timer),
		done:     make(chan struct{}),
		baseCtx:  baseCtx,
		stopBase: stopBase,
		jitter:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	pending, err := q.recover()
	if err != nil {
		stopBase()
		return nil, err
	}
	// Size the buffer to hold the whole backlog, so recovery can
	// enqueue before the workers start (and submissions rarely block).
	capacity := 1024
	if n := len(pending) + 16; n > capacity {
		capacity = n
	}
	q.work = make(chan string, capacity)
	for _, j := range pending {
		q.work <- j.ID
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(q.done)
	}()
	return q, nil
}

// recover replays the journal: rebuild the job table, restore the id
// sequence, and return the interrupted jobs to re-enqueue.
//
// A job found running died with the process. One such interruption is
// always re-run, since it may have been an operator's kill, but a job
// whose attempts exceed MaxAttempts got its last one only as such a
// re-run and died again: it is quarantined, so a job that kills the
// process runs at most MaxAttempts+1 times instead of on every restart.
func (q *Queue) recover() ([]*Job, error) {
	if q.opts.Journal == nil {
		return nil, nil
	}
	var pending []*Job
	for _, key := range q.opts.Journal.Keys(journalPrefix) {
		raw, ok := q.opts.Journal.Get(key)
		if !ok {
			continue
		}
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			return nil, fmt.Errorf("jobq: journal record %q: %w", key, err)
		}
		if n := idSeq(j.ID); n > q.seq {
			q.seq = n
		}
		jj := j
		q.jobs[j.ID] = &jj
		if !j.State.Terminal() {
			pending = append(pending, &jj)
		}
	}
	sort.Slice(pending, func(i, k int) bool {
		if !pending[i].SubmittedAt.Equal(pending[k].SubmittedAt) {
			return pending[i].SubmittedAt.Before(pending[k].SubmittedAt)
		}
		return idSeq(pending[i].ID) < idSeq(pending[k].ID)
	})
	q.stats.Submitted += int64(len(pending))
	requeue := pending[:0]
	for _, j := range pending {
		if j.State == StateRunning {
			if j.Attempts > q.opts.MaxAttempts {
				j.State = StateQuarantined
				j.Error = fmt.Sprintf("jobq: the process died during the job's last attempt (attempt %d, budget %d)",
					j.Attempts, q.opts.MaxAttempts)
				j.FinishedAt = time.Now().UTC()
				q.stats.Quarantined++
			} else {
				j.State = StateQueued
				j.StartedAt = time.Time{}
			}
			if err := q.journal(j); err != nil {
				return nil, err
			}
		}
		if j.State == StateQueued {
			requeue = append(requeue, j)
		}
	}
	return requeue, nil
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
func (q *Queue) Submit(payload []byte, opts SubmitOptions) (Job, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return Job{}, ErrQueueClosed
	}
	q.seq++
	j := &Job{
		ID:          fmt.Sprintf("job-%d", q.seq),
		Name:        opts.Name,
		Payload:     append([]byte(nil), payload...),
		State:       StateQueued,
		Timeout:     opts.Timeout,
		SubmittedAt: time.Now().UTC(),
	}
	if err := q.journal(j); err != nil {
		q.seq--
		q.mu.Unlock()
		return Job{}, err
	}
	q.jobs[j.ID] = j
	q.stats.Submitted++
	q.submitters.Add(1)
	snap := *j
	q.mu.Unlock()
	defer q.submitters.Done()

	// Block outside the lock if the buffer is full: submission applies
	// backpressure rather than growing without bound. A hard shutdown
	// aborts the send; the job is already durable and re-runs on the
	// next start.
	select {
	case q.work <- j.ID:
	case <-q.baseCtx.Done():
	}
	return snap, nil
}

// Complete registers a job whose result the caller already has (the
// service answers a memoized request this way) and returns its
// snapshot (State succeeded). The job never reaches a worker: Attempts
// stays 0, and SubmittedAt, StartedAt and FinishedAt are one instant.
// Like Submit, it journals the job before registering it, so no poller
// sees a job a crash would lose. It counts as submitted and succeeded
// and takes part in KeepDone eviction.
func (q *Queue) Complete(payload, result []byte, opts SubmitOptions) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, ErrQueueClosed
	}
	q.seq++
	now := time.Now().UTC()
	j := &Job{
		ID:          fmt.Sprintf("job-%d", q.seq),
		Name:        opts.Name,
		Payload:     append([]byte(nil), payload...),
		State:       StateSucceeded,
		Result:      append([]byte(nil), result...),
		Timeout:     opts.Timeout,
		SubmittedAt: now,
		StartedAt:   now,
		FinishedAt:  now,
	}
	if err := q.journal(j); err != nil {
		q.seq--
		return Job{}, err
	}
	q.jobs[j.ID] = j
	q.stats.Submitted++
	q.stats.Succeeded++
	q.evictLocked()
	return *j, nil
}

// worker drains the work channel until shutdown.
func (q *Queue) worker() {
	for {
		select {
		case <-q.baseCtx.Done():
			return
		case id, ok := <-q.work:
			if !ok {
				return
			}
			q.runOne(id)
		}
	}
}

// runOne executes one queued job through the handler.
func (q *Queue) runOne(id string) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		// Canceled while queued, or evicted.
		q.mu.Unlock()
		return
	}
	timeout := j.Timeout
	if timeout == 0 {
		timeout = q.opts.DefaultTimeout
	}
	ctx := q.baseCtx
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeoutCause(ctx, timeout, ErrTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	j.State = StateRunning
	j.StartedAt = time.Now().UTC()
	j.RetryAt = time.Time{}
	j.Attempts++
	q.cancels[id] = cancel
	jerr := q.journal(j)
	q.notifyLocked(j)
	jcopy := *j
	q.mu.Unlock()
	if jerr != nil {
		// The journal is the durability contract; a job we cannot
		// journal as running must not run.
		q.finish(id, nil, jerr)
		return
	}

	result, err := q.safeRun(ctx, &jcopy)
	if err == nil && ctx.Err() != nil {
		// The handler ignored a cancellation; honour it anyway.
		err = ctx.Err()
	}
	q.finish(id, result, err)
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

// finish moves a job to its terminal state — or, for a retryable
// failure with attempt budget left, back to queued with a backoff —
// and wakes waiters.
func (q *Queue) finish(id string, result []byte, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok || j.State.Terminal() {
		return
	}
	delete(q.cancels, id)
	switch {
	case err == nil:
		j.State = StateSucceeded
		j.Result = append([]byte(nil), result...)
		q.stats.Succeeded++
	case errors.Is(err, context.Canceled):
		j.State = StateCanceled
		j.Error = err.Error()
		q.stats.Canceled++
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrTimeout):
		// A job that spent its own run budget would spend it again:
		// never retried.
		j.State = StateFailed
		j.Error = ErrTimeout.Error()
		q.stats.Failed++
	default:
		var pe *JobPanicError
		if errors.As(err, &pe) {
			q.stats.Panics++
		}
		retryable := pe != nil ||
			(q.opts.Retryable != nil && q.opts.Retryable(err))
		if retryable && j.Attempts < q.opts.MaxAttempts {
			q.retryLocked(j, err)
			return
		}
		if retryable {
			// The attempt budget is spent: park the poison job.
			j.State = StateQuarantined
			q.stats.Quarantined++
		} else {
			j.State = StateFailed
			q.stats.Failed++
		}
		j.Error = err.Error()
	}
	j.FinishedAt = time.Now().UTC()
	// Journal the terminal state. A journal error here cannot demote
	// the in-memory state; the job would simply re-run after a crash.
	_ = q.journal(j)
	q.evictLocked()
	q.notifyLocked(j)
}

// retryLocked re-queues a job after a retryable failure (caller holds
// q.mu): the failure and attempt count are journaled first, so the
// budget survives a crash, then a timer re-enqueues the job after a
// capped, jittered exponential backoff.
func (q *Queue) retryLocked(j *Job, cause error) {
	j.State = StateQueued
	j.Error = cause.Error()
	j.StartedAt = time.Time{}
	q.stats.Retries++
	delay := q.backoff(j.Attempts)
	j.RetryAt = time.Now().UTC().Add(delay)
	_ = q.journal(j)
	q.notifyLocked(j)
	id := j.ID
	// Count the pending send like an in-flight Submit, so Shutdown
	// cannot close the work channel under it.
	q.submitters.Add(1)
	q.retries[id] = time.AfterFunc(delay, func() { q.enqueueRetry(id) })
}

// backoff computes the delay before attempt n+1: base·2^(n-1) capped
// at the max, with up to 50% random jitter shaved off so synchronized
// failures do not retry in lockstep.
func (q *Queue) backoff(attempts int) time.Duration {
	d := q.opts.RetryBaseDelay
	for i := 1; i < attempts && d < q.opts.RetryMaxDelay; i++ {
		d *= 2
	}
	if d > q.opts.RetryMaxDelay {
		d = q.opts.RetryMaxDelay
	}
	if d > 1 {
		d -= time.Duration(q.jitter.Int63n(int64(d) / 2))
	}
	return d
}

// enqueueRetry is the retry timer's callback: hand the job back to the
// workers unless it was canceled or the queue shut down meanwhile.
func (q *Queue) enqueueRetry(id string) {
	defer q.submitters.Done()
	q.mu.Lock()
	delete(q.retries, id)
	if q.closed {
		// Shutdown won the race: the job stays journaled as queued and
		// re-runs on the next process start.
		q.mu.Unlock()
		return
	}
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued {
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	select {
	case q.work <- id:
	case <-q.baseCtx.Done():
	}
}

// evictLocked drops the oldest terminal jobs beyond KeepDone.
func (q *Queue) evictLocked() {
	if q.opts.KeepDone <= 0 {
		return
	}
	var done []*Job
	for _, j := range q.jobs {
		if j.State.Terminal() {
			done = append(done, j)
		}
	}
	if len(done) <= q.opts.KeepDone {
		return
	}
	sort.Slice(done, func(i, k int) bool { return done[i].FinishedAt.Before(done[k].FinishedAt) })
	for _, j := range done[:len(done)-q.opts.KeepDone] {
		delete(q.jobs, j.ID)
		if q.opts.Journal != nil {
			_ = q.opts.Journal.Delete(journalPrefix + j.ID)
		}
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
	j, ok := q.jobs[id]
	if !ok || j.State.Terminal() {
		q.mu.Unlock()
		return false
	}
	if j.State == StateQueued {
		j.State = StateCanceled
		j.Error = context.Canceled.Error()
		j.FinishedAt = time.Now().UTC()
		_ = q.journal(j)
		q.notifyLocked(j)
		q.mu.Unlock()
		return true
	}
	cancel := q.cancels[id]
	q.mu.Unlock()
	if cancel != nil {
		cancel()
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

// Counts reports how many jobs are in each state.
func (q *Queue) Counts() map[State]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[State]int)
	for _, j := range q.jobs {
		out[j.State]++
	}
	return out
}

// Shutdown stops accepting submissions and drains: it waits for
// running and queued jobs to finish until ctx is done, then cancels
// whatever is still running and waits for the workers to exit. Queued
// jobs that never started stay journaled as queued and are re-run on
// the next process start.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return nil
	}
	q.closed = true
	// Stop pending retry timers: their jobs are journaled as queued and
	// re-run on the next start. A timer whose callback already fired
	// settles its own submitters count; one we stop first, we settle.
	for id, tm := range q.retries {
		if tm.Stop() {
			q.submitters.Done()
		}
		delete(q.retries, id)
	}
	q.mu.Unlock()
	// No new Submit can pass the closed check now; wait out the ones
	// already past it, then close the channel they were sending on.
	q.submitters.Wait()
	close(q.work)

	select {
	case <-q.done:
		// Workers exited: the closed channel emptied, every job ran to
		// completion.
		q.stopBase()
		return nil
	case <-ctx.Done():
		// Hard stop: cancel the base context (which cancels every
		// running job's context) and wait for the workers.
		q.stopBase()
		<-q.done
		return ctx.Err()
	}
}
