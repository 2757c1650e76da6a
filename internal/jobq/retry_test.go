package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alice/internal/store"
)

// TestPanicContainment: a panicking handler must not kill its worker —
// the job fails with a *JobPanicError (value + stack), and the same
// single worker then completes a healthy job.
func TestPanicContainment(t *testing.T) {
	q := newQueue(t, Options{
		Workers: 1,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			if string(job.Payload) == "bomb" {
				panic("payload exploded")
			}
			return []byte("ok"), nil
		},
	})
	bomb, _ := q.Submit([]byte("bomb"), SubmitOptions{})
	final, err := q.Wait(context.Background(), bomb.ID)
	if err != nil {
		t.Fatal(err)
	}
	// MaxAttempts defaults to 1: the poison job quarantines at once.
	if final.State != StateQuarantined {
		t.Fatalf("panicked job state = %s, want %s", final.State, StateQuarantined)
	}
	if !strings.Contains(final.Error, "job panicked: payload exploded") {
		t.Fatalf("panic error lost the value: %q", final.Error)
	}
	if !strings.Contains(final.Error, "goroutine") {
		t.Fatalf("panic error lost the stack: %q", final.Error)
	}

	// The worker that contained the panic still serves.
	ok, _ := q.Submit([]byte("fine"), SubmitOptions{})
	done, err := q.Wait(context.Background(), ok.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateSucceeded || string(done.Result) != "ok" {
		t.Fatalf("post-panic job = %+v", done)
	}
}

// TestSafeRunReturnsTypedPanicError pins the error type so callers can
// errors.As on it.
func TestSafeRunReturnsTypedPanicError(t *testing.T) {
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		panic(42)
	}})
	_, err := q.safeRun(context.Background(), &Job{})
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("safeRun error = %T, want *JobPanicError", err)
	}
	if pe.Value != 42 || len(pe.Stack) == 0 {
		t.Fatalf("panic payload = %v, stack %d bytes", pe.Value, len(pe.Stack))
	}
}

// TestRetryableFailureRetriesThenQuarantines: a panicking handler,
// the one retryable failure, is re-run with backoff until the attempt
// budget is spent, then quarantined; the attempt count is visible on
// the job.
func TestRetryableFailureRetriesThenQuarantines(t *testing.T) {
	var runs atomic.Int32
	q := newQueue(t, Options{
		Workers:        1,
		MaxAttempts:    3,
		RetryBaseDelay: 5 * time.Millisecond,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			runs.Add(1)
			panic("disk hiccup")
		},
	})
	j, _ := q.Submit(nil, SubmitOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := q.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateQuarantined {
		t.Fatalf("state = %s, want %s", final.State, StateQuarantined)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", final.Attempts)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("handler ran %d times, want 3", got)
	}
}

// TestRetrySucceedsAfterTransientFailure: panic-once-then-heal — the
// second attempt succeeds and the job ends succeeded, not quarantined.
func TestRetrySucceedsAfterTransientFailure(t *testing.T) {
	var runs atomic.Int32
	q := newQueue(t, Options{
		Workers:        1,
		MaxAttempts:    3,
		RetryBaseDelay: 5 * time.Millisecond,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			if runs.Add(1) == 1 {
				panic("first attempt fails")
			}
			return []byte("second time lucky"), nil
		},
	})
	j, _ := q.Submit(nil, SubmitOptions{})
	final, err := q.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded || string(final.Result) != "second time lucky" {
		t.Fatalf("final = %+v", final)
	}
	if final.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", final.Attempts)
	}
}

// TestNonRetryableFailureFailsImmediately: a handler error that is not
// a panic is final even with attempt budget to spare.
func TestNonRetryableFailureFailsImmediately(t *testing.T) {
	var runs atomic.Int32
	q := newQueue(t, Options{
		MaxAttempts:    5,
		RetryBaseDelay: time.Millisecond,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			runs.Add(1)
			return nil, errors.New("deterministic config error")
		},
	})
	j, _ := q.Submit(nil, SubmitOptions{})
	final, _ := q.Wait(context.Background(), j.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want %s", final.State, StateFailed)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// TestTimeoutNeverRetries: a job that spent its run budget is failed,
// not retried — it would just spend it again.
func TestTimeoutNeverRetries(t *testing.T) {
	var runs atomic.Int32
	q := newQueue(t, Options{
		MaxAttempts:    4,
		RetryBaseDelay: time.Millisecond,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			runs.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	j, _ := q.Submit(nil, SubmitOptions{Timeout: 20 * time.Millisecond})
	final, _ := q.Wait(context.Background(), j.ID)
	if final.State != StateFailed || final.Error != ErrTimeout.Error() {
		t.Fatalf("final = %+v", final)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

// TestAttemptBudgetSurvivesRestart: attempts are journaled, so a
// restart cannot grant a poison job a fresh budget. Two attempts burn
// in the first process; after a simulated crash-restart the job gets
// exactly one more before quarantine.
func TestAttemptBudgetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "journal"), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int32
	fail := func(ctx context.Context, job *Job) ([]byte, error) {
		runs.Add(1)
		panic("poison")
	}
	q1, err := New(Options{
		Workers: 1, Handler: fail, Journal: st,
		MaxAttempts: 3, RetryBaseDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := q1.Submit(nil, SubmitOptions{})
	// Wait until two attempts are burned (the second failure schedules
	// the third attempt), then crash the process hard.
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs.Load() < 2 {
		t.Fatalf("burned %d attempts, want >= 2", runs.Load())
	}
	hardCtx, hardCancel := context.WithCancel(context.Background())
	hardCancel()
	q1.Shutdown(hardCtx)

	// "Restart": a fresh queue over the same journal.
	q2, err := New(Options{
		Workers: 1, Handler: fail, Journal: st,
		MaxAttempts: 3, RetryBaseDelay: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q2.Shutdown(ctx)
		st.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := q2.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateQuarantined {
		t.Fatalf("state = %s, want %s", final.State, StateQuarantined)
	}
	if final.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (budget did not survive the restart)", final.Attempts)
	}
}

// TestBackoffCapsAndGrows pins the backoff envelope: monotone
// non-decreasing upper bound, never above the cap, never zero.
func TestBackoffCapsAndGrows(t *testing.T) {
	q := newQueue(t, Options{
		Handler:        echoHandler,
		RetryBaseDelay: 100 * time.Millisecond,
	})
	for attempts := 1; attempts <= 10; attempts++ {
		upper := min(100*time.Millisecond<<(attempts-1), maxRetryDelay)
		for trial := 0; trial < 20; trial++ {
			d := q.backoff(attempts)
			if d <= 0 || d > upper {
				t.Fatalf("backoff(%d) = %v, want in (0, %v]", attempts, d, upper)
			}
			if d < upper/2 {
				t.Fatalf("backoff(%d) = %v, jitter below half the envelope %v", attempts, d, upper)
			}
		}
	}
}

// TestCancelDuringBackoffWins: canceling a job parked in its retry
// backoff cancels it; the timer firing later must not resurrect it.
func TestCancelDuringBackoffWins(t *testing.T) {
	var runs atomic.Int32
	q := newQueue(t, Options{
		Workers:        1,
		MaxAttempts:    5,
		RetryBaseDelay: 50 * time.Millisecond,
		Handler: func(ctx context.Context, job *Job) ([]byte, error) {
			runs.Add(1)
			panic("flaky")
		},
	})
	j, _ := q.Submit(nil, SubmitOptions{})
	// Wait for the first failure to park the job in backoff.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if snap, _ := q.Get(j.ID); snap.State == StateQueued && snap.Attempts == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !q.Cancel(j.ID) {
		t.Fatalf("cancel failed")
	}
	time.Sleep(150 * time.Millisecond) // let the retry timer fire into the void
	final, _ := q.Get(j.ID)
	if final.State != StateCanceled {
		t.Fatalf("state = %s, want %s", final.State, StateCanceled)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("handler ran %d times after cancel, want 1", got)
	}
}

// TestWaitDeregistersOnContextExpiry: an abandoned Wait (long-poll
// client gone) must remove its waiter channel instead of pinning it
// until the job finishes.
func TestWaitDeregistersOnContextExpiry(t *testing.T) {
	release := make(chan struct{})
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}})
	j, _ := q.Submit(nil, SubmitOptions{})
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := q.Wait(ctx, j.ID)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("wait %d: err = %v", i, err)
		}
	}
	q.mu.Lock()
	pinned := len(q.waiters[j.ID])
	q.mu.Unlock()
	close(release)
	if pinned != 0 {
		t.Fatalf("%d abandoned waiters still registered, want 0", pinned)
	}
}

// TestQuarantinedCountsAndList: quarantined jobs show up in Counts and
// List like any terminal state.
func TestQuarantinedCountsAndList(t *testing.T) {
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		panic("always")
	}})
	j, _ := q.Submit(nil, SubmitOptions{})
	if _, err := q.Wait(context.Background(), j.ID); err != nil {
		t.Fatal(err)
	}
	if got := q.Counts()[StateQuarantined]; got != 1 {
		t.Fatalf("Counts[quarantined] = %d, want 1", got)
	}
	list := q.List()
	if len(list) != 1 || list[0].State != StateQuarantined {
		t.Fatalf("List = %+v", list)
	}
	if fmt.Sprintf("%v", list[0].FinishedAt.IsZero()) == "true" {
		t.Fatalf("quarantined job missing FinishedAt")
	}
}

// TestRecoveryQuarantinesProcessKillers: a job journaled running died
// with the process. Past its attempt budget it has died on a re-run
// before, so recovery quarantines it without calling the handler; at
// the budget it gets its one re-run.
func TestRecoveryQuarantinesProcessKillers(t *testing.T) {
	const budget = 2
	j := openJournal(t, t.TempDir())
	t.Cleanup(func() { j.Close() }) // after the queue's shutdown
	at := time.Now().UTC()
	for i, attempts := range []int{budget + 1, budget} {
		raw, err := json.Marshal(Job{
			ID: fmt.Sprintf("job-%d", i+1), State: StateRunning, Attempts: attempts,
			SubmittedAt: at, StartedAt: at,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Put(journalPrefix+fmt.Sprintf("job-%d", i+1), raw); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	calls := map[string]int{}
	q := newQueue(t, Options{Journal: j, MaxAttempts: budget, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		mu.Lock()
		calls[job.ID]++
		mu.Unlock()
		return nil, nil
	}})
	killer, err := q.Wait(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if killer.State != StateQuarantined || killer.Attempts != budget+1 ||
		!strings.Contains(killer.Error, "process died") || killer.FinishedAt.IsZero() {
		t.Errorf("job past its budget after recovery = %+v, want quarantined with a process-death error", killer)
	}
	rerun, err := q.Wait(context.Background(), "job-2")
	if err != nil {
		t.Fatal(err)
	}
	if rerun.State != StateSucceeded || rerun.Attempts != budget+1 {
		t.Errorf("job at its budget after recovery = %+v, want one more run, succeeded", rerun)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls["job-1"] != 0 || calls["job-2"] != 1 {
		t.Errorf("handler calls = %v, want job-1 never and job-2 once", calls)
	}
	if st := q.Stats(); st.Quarantined != 1 || st.Submitted != 2 {
		t.Errorf("stats = %+v, want 1 quarantined of 2 recovered", st)
	}
	// The quarantine is journaled: another restart keeps it.
	raw, ok := j.Get(journalPrefix + "job-1")
	var rec Job
	if !ok || json.Unmarshal(raw, &rec) != nil || rec.State != StateQuarantined {
		t.Errorf("journaled job-1 = %s, want quarantined", raw)
	}
}
