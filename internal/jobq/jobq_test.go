package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alice/internal/store"
)

func echoHandler(ctx context.Context, job *Job) ([]byte, error) {
	return append([]byte("echo:"), job.Payload...), nil
}

func newQueue(t *testing.T, opts Options) *Queue {
	t.Helper()
	q, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		q.Shutdown(ctx)
	})
	return q
}

func TestSubmitRunResult(t *testing.T) {
	q := newQueue(t, Options{Workers: 2, Handler: echoHandler})
	j, err := q.Submit([]byte("hello"), SubmitOptions{Name: "first"})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submit snapshot = %+v", j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := q.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateSucceeded || string(final.Result) != "echo:hello" {
		t.Fatalf("final = %+v", final)
	}
	if final.Name != "first" || final.Attempts != 1 {
		t.Errorf("final metadata = %+v", final)
	}
}

func TestUnknownJob(t *testing.T) {
	q := newQueue(t, Options{Handler: echoHandler})
	if _, ok := q.Get("job-999"); ok {
		t.Error("Get of unknown job succeeded")
	}
	if _, err := q.Wait(context.Background(), "job-999"); err == nil {
		t.Error("Wait of unknown job succeeded")
	}
	if q.Cancel("job-999") {
		t.Error("Cancel of unknown job reported true")
	}
}

func TestHandlerFailure(t *testing.T) {
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		return nil, errors.New("boom")
	}})
	j, _ := q.Submit(nil, SubmitOptions{})
	final, err := q.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("final = %+v", final)
	}
}

func TestPerJobTimeout(t *testing.T) {
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return []byte("too late"), nil
		}
	}})
	j, _ := q.Submit(nil, SubmitOptions{Timeout: 30 * time.Millisecond})
	final, err := q.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.Error != ErrTimeout.Error() {
		t.Fatalf("final = %+v", final)
	}
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	q := newQueue(t, Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	j, _ := q.Submit(nil, SubmitOptions{})
	<-started
	if !q.Cancel(j.ID) {
		t.Fatal("Cancel returned false for a running job")
	}
	final, err := q.Wait(context.Background(), j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateCanceled {
		t.Fatalf("final = %+v", final)
	}
}

func TestCancelQueued(t *testing.T) {
	block := make(chan struct{})
	q := newQueue(t, Options{Workers: 1, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		<-block
		return nil, nil
	}})
	blocker, _ := q.Submit(nil, SubmitOptions{Name: "blocker"})
	victim, _ := q.Submit(nil, SubmitOptions{Name: "victim"})
	// The single worker is stuck on blocker; victim is still queued.
	if !q.Cancel(victim.ID) {
		t.Fatal("Cancel returned false for a queued job")
	}
	got, _ := q.Get(victim.ID)
	if got.State != StateCanceled {
		t.Fatalf("victim state = %s", got.State)
	}
	close(block)
	if _, err := q.Wait(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	// The canceled job must never run.
	if got, _ := q.Get(victim.ID); got.Attempts != 0 {
		t.Errorf("canceled job ran: %+v", got)
	}
}

func TestGracefulDrain(t *testing.T) {
	var ran atomic.Int32
	q, err := New(Options{Workers: 2, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		ran.Add(1)
		return nil, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := q.Submit(nil, SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := q.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("drain ran %d jobs, want 6", got)
	}
	if _, err := q.Submit(nil, SubmitOptions{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Submit after Shutdown = %v, want ErrQueueClosed", err)
	}
}

func TestHardShutdownCancelsRunning(t *testing.T) {
	started := make(chan struct{})
	q, err := New(Options{Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	q.Submit(nil, SubmitOptions{})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-expired deadline: immediate hard stop
	if err := q.Shutdown(ctx); err == nil {
		t.Fatal("hard Shutdown returned nil, want context error")
	}
}

func openJournal(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(filepath.Join(dir, "jobs.log"), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPersistenceAcrossRestart is the restart contract: jobs journaled
// queued or running are re-run by a new queue over the same journal,
// terminal jobs and the id sequence survive.
func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	j1 := openJournal(t, dir)

	block := make(chan struct{})
	q1, err := New(Options{Workers: 1, Journal: j1, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		if string(job.Payload) == "block" {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte("done:" + job.Name), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	finished, _ := q1.Submit([]byte("fast"), SubmitOptions{Name: "fast"})
	if _, err := q1.Wait(context.Background(), finished.ID); err != nil {
		t.Fatal(err)
	}
	running, _ := q1.Submit([]byte("block"), SubmitOptions{Name: "runner"})
	queued, _ := q1.Submit([]byte("later"), SubmitOptions{Name: "waiter"})
	// Wait until the runner is journaled as running, then "crash":
	// abandon the queue without draining (hard stop) and drop the
	// journal handle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, _ := q1.Get(running.ID); j.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runner never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Closing the journal first makes the post-crash terminal write
	// fail (and be dropped), so the on-disk picture is exactly a
	// process death: the runner committed as running, the waiter as
	// queued.
	j1.Close()
	hardCtx, hc := context.WithCancel(context.Background())
	hc()
	q1.Shutdown(hardCtx)

	// Restart over the same journal.
	j2 := openJournal(t, dir)
	defer j2.Close()
	q2 := newQueue(t, Options{Workers: 2, Journal: j2, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		return []byte("rerun:" + job.Name), nil
	}})

	// The finished job is history, with its result intact.
	got, ok := q2.Get(finished.ID)
	if !ok || got.State != StateSucceeded || string(got.Result) != "done:fast" {
		t.Fatalf("finished job after restart = %+v, %v", got, ok)
	}
	// The interrupted running job and the queued job are re-run.
	for _, id := range []string{running.ID, queued.ID} {
		final, err := q2.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateSucceeded || !strings.HasPrefix(string(final.Result), "rerun:") {
			t.Fatalf("job %s after restart = %+v", id, final)
		}
	}
	// The runner's attempt counter shows the requeue.
	if j, _ := q2.Get(running.ID); j.Attempts < 2 {
		t.Errorf("requeued job attempts = %d, want >= 2", j.Attempts)
	}
	// New submissions do not reuse recovered ids.
	fresh, err := q2.Submit(nil, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range []string{finished.ID, running.ID, queued.ID} {
		if fresh.ID == old {
			t.Fatalf("id %s reused after restart", fresh.ID)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	q := newQueue(t, Options{Workers: 2, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		if string(job.Payload) == "bad" {
			return nil, errors.New("handler failure")
		}
		return []byte("ok"), nil
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	good, _ := q.Submit([]byte("good"), SubmitOptions{})
	bad, _ := q.Submit([]byte("bad"), SubmitOptions{})
	q.Wait(ctx, good.ID)
	q.Wait(ctx, bad.ID)
	st := q.Stats()
	if st.Submitted != 2 || st.Succeeded != 1 || st.Failed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Stats are monotonic session counters: KeepDone eviction and
	// queue-state churn never decrement them.
	if st.Retries != 0 || st.Panics != 0 || st.Canceled != 0 {
		t.Fatalf("unexpected nonzero counters: %+v", st)
	}
}

func TestKeepDoneEviction(t *testing.T) {
	dir := t.TempDir()
	js := openJournal(t, dir)
	defer js.Close()
	q := newQueue(t, Options{Workers: 1, Journal: js, KeepDone: 3, Handler: echoHandler})
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := q.Submit([]byte(fmt.Sprint(i)), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(context.Background(), j.ID); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	if got := len(q.List()); got != 3 {
		t.Fatalf("retained %d jobs, want 3", got)
	}
	// The newest three survive, in memory and in the journal.
	for _, id := range ids[5:] {
		if _, ok := q.Get(id); !ok {
			t.Errorf("job %s evicted too early", id)
		}
	}
	for _, id := range ids[:5] {
		if _, ok := q.Get(id); ok {
			t.Errorf("job %s not evicted", id)
		}
	}
	if got := len(js.Keys("job\x00")); got != 3 {
		t.Errorf("journal retains %d records, want 3", got)
	}
}

func TestConcurrentSubmitWaitCancel(t *testing.T) {
	q := newQueue(t, Options{Workers: 4, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		return job.Payload, nil
	}})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j, err := q.Submit([]byte(fmt.Sprintf("g%d-%d", g, i)), SubmitOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 == g%5 {
					q.Cancel(j.ID)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				final, err := q.Wait(ctx, j.ID)
				cancel()
				if err != nil {
					t.Errorf("wait %s: %v", j.ID, err)
					return
				}
				if final.State != StateSucceeded && final.State != StateCanceled {
					t.Errorf("job %s state %s", j.ID, final.State)
					return
				}
				q.List()
				q.Counts()
			}
		}(g)
	}
	wg.Wait()
}

// countingJournal is an in-memory Journal that keeps every record it
// was asked to write, in order.
type countingJournal struct {
	mu     sync.Mutex
	m      map[string][]byte
	writes []Job
}

func newCountingJournal() *countingJournal {
	return &countingJournal{m: make(map[string][]byte)}
}

func (c *countingJournal) Put(key string, val []byte) error {
	var j Job
	if err := json.Unmarshal(val, &j); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), val...)
	c.writes = append(c.writes, j)
	return nil
}

func (c *countingJournal) Delete(key string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, key)
	return nil
}

func (c *countingJournal) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	return v, ok
}

func (c *countingJournal) Keys(prefix string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for k := range c.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// written returns a copy of the records written so far.
func (c *countingJournal) written() []Job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Job(nil), c.writes...)
}

// TestCompleteJournalsOnceAndNeverRuns: a job registered with Complete
// costs one journal record, already succeeded; Wait returns it at once,
// it counts as submitted and succeeded, and a queue reopened over the
// journal keeps it terminal without running it.
func TestCompleteJournalsOnceAndNeverRuns(t *testing.T) {
	jr := newCountingJournal()
	var runs atomic.Int32
	handler := func(ctx context.Context, job *Job) ([]byte, error) {
		runs.Add(1)
		return []byte("ran"), nil
	}
	q1, err := New(Options{Workers: 1, Journal: jr, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	j, err := q1.Complete([]byte("request"), []byte("answer"), SubmitOptions{Name: "hit", Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateSucceeded || string(j.Result) != "answer" || string(j.Payload) != "request" ||
		j.Name != "hit" || j.Timeout != time.Minute || j.Attempts != 0 {
		t.Fatalf("Complete snapshot = %+v", j)
	}
	if j.SubmittedAt.IsZero() || !j.StartedAt.Equal(j.SubmittedAt) || !j.FinishedAt.Equal(j.SubmittedAt) {
		t.Fatalf("Complete stamps: submitted %v, started %v, finished %v; want one instant",
			j.SubmittedAt, j.StartedAt, j.FinishedAt)
	}
	w := jr.written()
	if len(w) != 1 || w[0].ID != j.ID || w[0].State != StateSucceeded || string(w[0].Result) != "answer" {
		t.Fatalf("journal writes = %+v; want one succeeded record of %s", w, j.ID)
	}

	// Terminal from the start: Wait answers even on a done context.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := q1.Wait(done, j.ID); err != nil || got.State != StateSucceeded {
		t.Fatalf("Wait = %+v, %v; want the succeeded job at once", got, err)
	}
	if got, ok := q1.Get(j.ID); !ok || got.State != StateSucceeded {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	if st := q1.Stats(); st.Submitted != 1 || st.Succeeded != 1 {
		t.Fatalf("stats = %+v; want 1 submitted, 1 succeeded", st)
	}
	if err := q1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	q2 := newQueue(t, Options{Workers: 1, Journal: jr, Handler: handler})
	// A job submitted after the restart runs behind any recovered one,
	// so once it is done the pool has seen everything it will run.
	later, err := q2.Submit([]byte("later"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Wait(context.Background(), later.ID); err != nil {
		t.Fatal(err)
	}
	got, ok := q2.Get(j.ID)
	if !ok || got.State != StateSucceeded || string(got.Result) != "answer" || got.Attempts != 0 {
		t.Fatalf("completed job after restart = %+v, %v", got, ok)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (the later job only)", n)
	}
	if later.ID == j.ID {
		t.Fatalf("id %s reused after restart", j.ID)
	}
}

// TestCompleteCountsInKeepDone: completed jobs are terminal jobs like
// any other, so registering them evicts the oldest beyond KeepDone.
func TestCompleteCountsInKeepDone(t *testing.T) {
	jr := newCountingJournal()
	q := newQueue(t, Options{Workers: 1, Journal: jr, KeepDone: 2, Handler: echoHandler})
	ran, err := q.Submit([]byte("oldest"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background(), ran.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := q.Complete(nil, []byte("answer"), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := q.Get(ran.ID); ok {
		t.Errorf("job %s not evicted by the completed jobs", ran.ID)
	}
	if n := len(q.List()); n != 2 {
		t.Errorf("retained %d jobs, want 2", n)
	}
	if n := len(jr.Keys(journalPrefix)); n != 2 {
		t.Errorf("journal retains %d records, want 2", n)
	}
	if st := q.Stats(); st.Submitted != 3 || st.Succeeded != 3 {
		t.Errorf("stats = %+v; want 3 submitted, 3 succeeded", st)
	}
}

// TestCompleteOnClosedQueue: after Shutdown, Complete refuses like
// Submit and writes nothing.
func TestCompleteOnClosedQueue(t *testing.T) {
	jr := newCountingJournal()
	q, err := New(Options{Journal: jr, Handler: echoHandler})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Complete(nil, []byte("answer"), SubmitOptions{}); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("Complete after Shutdown = %v, want ErrQueueClosed", err)
	}
	if w := jr.written(); len(w) != 0 {
		t.Fatalf("journal writes after a refused Complete = %+v", w)
	}
	if st := q.Stats(); st.Submitted != 0 || st.Succeeded != 0 {
		t.Fatalf("stats = %+v; want nothing counted", st)
	}
}

// retainedIDs returns the ids of the jobs q retains and of the records
// jr holds, each sorted.
func retainedIDs(q *Queue, jr *countingJournal) (mem, journaled []string) {
	for _, j := range q.List() {
		mem = append(mem, j.ID)
	}
	sort.Strings(mem)
	for _, k := range jr.Keys(journalPrefix) {
		journaled = append(journaled, strings.TrimPrefix(k, journalPrefix))
	}
	return mem, journaled
}

// TestCancelQueuedCountsAndEvicts: a job canceled while queued ends
// like any other, so it counts in Stats and takes part in KeepDone
// eviction, in memory and in the journal.
func TestCancelQueuedCountsAndEvicts(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	jr := newCountingJournal()
	q := newQueue(t, Options{Workers: 1, Journal: jr, KeepDone: 1, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		<-block
		return nil, nil
	}})
	blocker, err := q.Submit(nil, SubmitOptions{Name: "blocker"})
	if err != nil {
		t.Fatal(err)
	}
	var victims []string
	for i := 0; i < 3; i++ {
		v, err := q.Submit(nil, SubmitOptions{Name: fmt.Sprint("victim", i)})
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, v.ID)
	}
	for _, id := range victims {
		if !q.Cancel(id) {
			t.Fatalf("Cancel(%s) returned false for a queued job", id)
		}
	}
	if st := q.Stats(); st.Canceled != 3 {
		t.Errorf("Stats().Canceled = %d, want 3", st.Canceled)
	}
	if n := q.Counts()[StateCanceled]; n != 1 {
		t.Errorf("retained %d canceled jobs, want 1 (KeepDone 1)", n)
	}
	want := []string{blocker.ID, victims[2]}
	sort.Strings(want)
	if mem, journaled := retainedIDs(q, jr); !reflect.DeepEqual(mem, want) || !reflect.DeepEqual(journaled, want) {
		t.Errorf("retained %v in memory and %v in the journal, want %v in both", mem, journaled, want)
	}
}

// TestHardStopKeepsQueuedJobs: a hard stop cancels the running jobs
// only. Jobs that never started stay queued, in memory and in the
// journal, and all of them run after a restart.
func TestHardStopKeepsQueuedJobs(t *testing.T) {
	const workers = 4
	dir := t.TempDir()
	j1 := openJournal(t, dir)
	started := make(chan struct{}, workers)
	q1, err := New(Options{Workers: workers, Journal: j1, Handler: func(ctx context.Context, job *Job) ([]byte, error) {
		if string(job.Payload) == "blocker" {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return []byte("ran"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for range workers {
		if _, err := q1.Submit([]byte("blocker"), SubmitOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for range workers {
		<-started
	}
	var ids []string
	for i := 0; i < 20; i++ {
		j, err := q1.Submit([]byte(fmt.Sprint(i)), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	hard, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q1.Shutdown(hard); err == nil {
		t.Fatal("hard Shutdown returned nil, want the context's error")
	}
	for _, id := range ids {
		if got, _ := q1.Get(id); got.State != StateQueued || got.Attempts != 0 {
			t.Errorf("job %s after a hard stop: state %s, %d attempts; want queued, never run", id, got.State, got.Attempts)
		}
		raw, ok := j1.Get(journalPrefix + id)
		var rec Job
		if !ok || json.Unmarshal(raw, &rec) != nil || rec.State != StateQueued {
			t.Errorf("journaled %s = %s, want queued", id, raw)
		}
	}
	j1.Close()

	j2 := openJournal(t, dir)
	t.Cleanup(func() { j2.Close() }) // after the queue's shutdown
	q2 := newQueue(t, Options{Workers: 2, Journal: j2, Handler: echoHandler})
	for _, id := range ids {
		final, err := q2.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != StateSucceeded {
			t.Errorf("job %s after restart: %s (%s), want succeeded", id, final.State, final.Error)
		}
	}
}

// TestRecoveryRetainsNewestPastKeepDone: a journal holding more terminal
// jobs than KeepDone is cut to the newest by FinishedAt, whatever their
// id order, and the next job to end evicts the oldest of those.
func TestRecoveryRetainsNewestPastKeepDone(t *testing.T) {
	jr := newCountingJournal()
	at := time.Now().UTC().Add(-time.Hour)
	// job-(i+1) finished finish[i] minutes after at.
	finish := []int{4, 0, 5, 2, 1, 3}
	for i, m := range finish {
		id := fmt.Sprintf("job-%d", i+1)
		raw, err := json.Marshal(Job{ID: id, State: StateSucceeded, SubmittedAt: at,
			FinishedAt: at.Add(time.Duration(m) * time.Minute)})
		if err != nil {
			t.Fatal(err)
		}
		if err := jr.Put(journalPrefix+id, raw); err != nil {
			t.Fatal(err)
		}
	}
	q := newQueue(t, Options{Journal: jr, KeepDone: 3, Handler: echoHandler})
	want := []string{"job-1", "job-3", "job-6"} // finished at 4, 5 and 3
	if mem, journaled := retainedIDs(q, jr); !reflect.DeepEqual(mem, want) || !reflect.DeepEqual(journaled, want) {
		t.Errorf("after New: retained %v in memory and %v in the journal, want %v in both", mem, journaled, want)
	}
	c, err := q.Complete(nil, []byte("answer"), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{"job-1", "job-3", c.ID}
	sort.Strings(want)
	if mem, journaled := retainedIDs(q, jr); !reflect.DeepEqual(mem, want) || !reflect.DeepEqual(journaled, want) {
		t.Errorf("after one more job ended: retained %v in memory and %v in the journal, want %v in both", mem, journaled, want)
	}
}

// checkQueued fails unless Queued agrees with Counts and equals want.
// Callers check only while no job can change state.
func checkQueued(t *testing.T, q *Queue, when string, want int) {
	t.Helper()
	if got, counted := q.Queued(), q.Counts()[StateQueued]; got != counted || got != want {
		t.Errorf("after %s: Queued() = %d, Counts()[queued] = %d, want %d", when, got, counted, want)
	}
}

// TestQueuedMatchesCounts walks jobs through every state change that
// enters or leaves StateQueued (register, take, cancel, retry, settle,
// recovery) and checks the constant-time count against Counts after
// each.
func TestQueuedMatchesCounts(t *testing.T) {
	started := make(chan string, 8)
	gate := make(chan struct{})
	var panics atomic.Int32
	handler := func(ctx context.Context, job *Job) ([]byte, error) {
		if job.Name == "flaky" && panics.Add(1) == 1 {
			panic("transient")
		}
		started <- job.Name
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nil, nil
	}
	dir := t.TempDir()
	st := openJournal(t, dir)
	t.Cleanup(func() { st.Close() })
	q := newQueue(t, Options{Workers: 1, Handler: handler, Journal: st, MaxAttempts: 2, RetryBaseDelay: time.Second})
	await := func(name string) {
		t.Helper()
		select {
		case got := <-started:
			if got != name {
				t.Fatalf("job %s started, want %s", got, name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s never started", name)
		}
	}
	submit := func(name string) Job {
		t.Helper()
		j, err := q.Submit(nil, SubmitOptions{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	checkQueued(t, q, "start", 0)
	submit("first")
	await("first") // taken: the only worker is busy from here on
	checkQueued(t, q, "take", 0)
	flaky := submit("flaky")
	victim := submit("victim")
	checkQueued(t, q, "register", 2)
	q.Cancel(victim.ID)
	checkQueued(t, q, "cancel", 1)
	if _, err := q.Complete(nil, []byte("memo"), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	checkQueued(t, q, "complete", 1)

	// Settling first frees the worker, which takes flaky; its panic
	// queues it again for the backoff.
	gate <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for j, _ := q.Get(flaky.ID); j.Attempts < 1 || j.State != StateQueued; j, _ = q.Get(flaky.ID) {
		if time.Now().After(deadline) {
			t.Fatalf("flaky never waited for a retry: %+v", j)
		}
		time.Sleep(time.Millisecond)
	}
	checkQueued(t, q, "settle, take and retry", 1)
	await("flaky")
	checkQueued(t, q, "retry taken", 0)
	submit("left")
	checkQueued(t, q, "register behind a running job", 1)

	// A hard stop cancels flaky and leaves left journaled as queued.
	hard, cancel := context.WithCancel(context.Background())
	cancel()
	q.Shutdown(hard)
	checkQueued(t, q, "hard stop", 1)

	// Recovery requeues left, which the new worker takes, and a job
	// journaled as running, which waits behind it.
	raw, err := json.Marshal(Job{ID: "job-99", Name: "interrupted", State: StateRunning, Attempts: 1, SubmittedAt: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(journalPrefix+"job-99", raw); err != nil {
		t.Fatal(err)
	}
	q2 := newQueue(t, Options{Workers: 1, Handler: handler, Journal: st, MaxAttempts: 2})
	await("left")
	checkQueued(t, q2, "recovery", 1)
	close(gate)
	await("interrupted")
	if _, err := q2.Wait(context.Background(), "job-99"); err != nil {
		t.Fatal(err)
	}
	checkQueued(t, q2, "drain", 0)
}
