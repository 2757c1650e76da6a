package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"alice"
	"alice/internal/iofault"
	"alice/internal/jobq"
	"alice/internal/store"
)

// gate is an engine observer that, while armed, blocks every stage
// start until released — it lets chaos tests hold a worker mid-job at
// a deterministic point instead of racing against the flow.
type gate struct {
	armed   atomic.Bool
	release chan struct{}
	entered chan struct{}
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (g *gate) option() alice.Option {
	return alice.WithObserver(func(ev alice.Event) {
		if ev.Kind != alice.EventStageStart || !g.armed.Load() {
			return
		}
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	})
}

// awaitEntered fails the test if no job reaches the gate in time.
func (g *gate) awaitEntered(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(time.Minute):
		t.Fatal("no job reached the gate")
	}
}

func getHealth(t *testing.T, base string) (int, HealthResponse) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decoding health: %v", err)
	}
	return resp.StatusCode, h
}

// TestChaosStoreFaultDegradesThenHeals is the disk-failure acceptance
// test: fsync starts failing while a job is mid-flight. The job must
// still complete (answered from memory), /healthz must flip to 503
// "degraded", new submissions must be refused rather than acknowledged
// without a journal commit, and once the disk answers again the probe
// loop must heal the daemon back to 200 without a restart.
func TestChaosStoreFaultDegradesThenHeals(t *testing.T) {
	dir := t.TempDir()
	script := iofault.NewScript()
	g := newGate()
	srv, err := New(Options{
		DataDir:       dir,
		Workers:       1,
		JobTimeout:    2 * time.Minute,
		EngineOptions: []alice.Option{g.option()},
		StoreFS:       iofault.NewFS(iofault.OS{}, script),
		ProbeInterval: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	if code, h := getHealth(t, ts.URL); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy daemon: /healthz = %d %+v", code, h)
	}

	// Hold a job mid-flow, then break every fsync under it.
	g.armed.Store(true)
	js := postJob(t, ts.URL, `{"bench":"gcd","cfg":1,"fresh":true}`)
	g.awaitEntered(t)
	script.Add(&iofault.Rule{Op: iofault.OpSync, Mode: iofault.Fail})
	g.armed.Store(false)
	close(g.release)

	done := waitJob(t, ts.URL, js.ID)
	if done.State != jobq.StateSucceeded {
		t.Fatalf("job under fsync faults: state %s, error %q (must complete from memory)", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Design == "" {
		t.Fatalf("job under fsync faults: empty result %+v", done.Result)
	}

	code, h := getHealth(t, ts.URL)
	if code != http.StatusServiceUnavailable || h.Status != "degraded" || h.Reason == "" {
		t.Fatalf("degraded daemon: /healthz = %d %+v, want 503 degraded with a reason", code, h)
	}

	// A submission the journal cannot commit must be refused, not
	// acknowledged: 503 + Retry-After, never a job ID that could be
	// silently lost.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcd","cfg":1}`))
	if err != nil {
		t.Fatalf("POST while degraded: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST while degraded: status %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("POST while degraded: no Retry-After header")
	}

	// Disk recovers: the probe loop reopens the sealed store, proves a
	// round-trip commit, and health returns without a restart.
	script.Clear()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, h = getHealth(t, ts.URL)
		if code == http.StatusOK && h.Status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never healed: /healthz = %d %+v", code, h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Healed daemon accepts and commits work again.
	js2 := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)
	if done := waitJob(t, ts.URL, js2.ID); done.State != jobq.StateSucceeded {
		t.Fatalf("job after heal: state %s, error %q", done.State, done.Error)
	}
	st := getStats(t, ts.URL)
	if st.Store.Seals == 0 || st.Store.Reopens == 0 {
		t.Fatalf("stats after heal: Seals=%d Reopens=%d, want both > 0", st.Store.Seals, st.Store.Reopens)
	}
	if st.Health.Status != "ok" {
		t.Fatalf("stats health: %+v", st.Health)
	}
}

// TestSealedStoreRefusesMemoHit: a request with a stored result is
// answered by a journal write, so while the store is sealed it is
// refused with 503 and Retry-After like a miss, and nothing is counted
// or listed; once the store reopens it is answered at submission again.
func TestSealedStoreRefusesMemoHit(t *testing.T) {
	script := iofault.NewScript()
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		JobTimeout:    2 * time.Minute,
		StoreFS:       iofault.NewFS(iofault.OS{}, script),
		ProbeInterval: time.Hour, // the test heals the store itself
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	req := `{"bench":"gcd","cfg":1}`
	if done := waitJob(t, ts.URL, postJob(t, ts.URL, req).ID); done.State != jobq.StateSucceeded {
		t.Fatalf("first send: %s (%s)", done.State, done.Error)
	}
	before := getStats(t, ts.URL)
	jobs := len(listJobs(t, ts.URL))

	// Seal the write path: the next fsync fails.
	script.Add(&iofault.Rule{Op: iofault.OpSync, Mode: iofault.Fail})
	if err := srv.Store().Put("seal", []byte("x")); err == nil {
		t.Fatal("Put under a failing fsync succeeded")
	}
	if srv.Store().Sealed() == nil {
		t.Fatal("store not sealed")
	}
	for _, body := range []string{req, `{"bench":"gcd","cfg":2}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST while sealed: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %s while sealed: status %d, Retry-After %q (%s); want 503 with Retry-After",
				body, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
		}
	}
	if st := getStats(t, ts.URL); st.MemoHits != before.MemoHits || st.JobTotals.Submitted != before.JobTotals.Submitted {
		t.Fatalf("refused submissions were counted: memo_hits %d -> %d, submitted %d -> %d",
			before.MemoHits, st.MemoHits, before.JobTotals.Submitted, st.JobTotals.Submitted)
	}
	if n := len(listJobs(t, ts.URL)); n != jobs {
		t.Fatalf("refused submissions were listed: %d jobs, had %d", n, jobs)
	}

	script.Clear()
	if err := srv.Store().Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if hit := postJob(t, ts.URL, req); hit.State != jobq.StateSucceeded || hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("memo hit after the store reopened: %+v", hit)
	}
}

// TestSealingSubmissionGets503: the submission whose journal write
// seals the store is refused like the ones after it, with 503 and
// Retry-After, not with a bare 500.
func TestSealingSubmissionGets503(t *testing.T) {
	script := iofault.NewScript()
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		StoreFS:       iofault.NewFS(iofault.OS{}, script),
		ProbeInterval: time.Hour, // keep the store sealed
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	script.Add(&iofault.Rule{Op: iofault.OpSync, Mode: iofault.Fail})
	for i := 1; i <= 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"bench":"gcd","cfg":1}`))
		if err != nil {
			t.Fatalf("POST %d: %v", i, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %d under failing fsyncs: status %d, Retry-After %q (%s); want 503 with Retry-After",
				i, resp.StatusCode, resp.Header.Get("Retry-After"), raw)
		}
	}
	if srv.Store().Sealed() == nil {
		t.Fatal("store not sealed")
	}
	script.Clear()
	if err := srv.Store().Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
}

// TestChaosPanickingJobQuarantined proves panic containment end to
// end: a payload that panics the engine burns its attempt budget and
// quarantines with the panic (and stack) in its error, while the
// daemon keeps completing other jobs on the same workers.
func TestChaosPanickingJobQuarantined(t *testing.T) {
	dir := t.TempDir()
	var arm atomic.Bool
	boom := alice.WithObserver(func(ev alice.Event) {
		if arm.Load() {
			panic("chaos: injected observer panic")
		}
	})
	srv, err := New(Options{
		DataDir:        dir,
		Workers:        2,
		JobTimeout:     2 * time.Minute,
		EngineOptions:  []alice.Option{boom},
		NoSync:         true,
		MaxAttempts:    2,
		RetryBaseDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	arm.Store(true)
	js := postJob(t, ts.URL, `{"name":"poison","bench":"gcd","cfg":1,"fresh":true}`)
	done := waitJob(t, ts.URL, js.ID)
	arm.Store(false)

	if done.State != jobq.StateQuarantined {
		t.Fatalf("poison job: state %s, error %q, want quarantined", done.State, done.Error)
	}
	if done.Attempts != 2 {
		t.Fatalf("poison job: attempts %d, want the full budget of 2", done.Attempts)
	}
	if !strings.Contains(done.Error, "injected observer panic") {
		t.Fatalf("poison job error lost the panic value: %q", done.Error)
	}
	if !strings.Contains(done.Error, "goroutine") {
		t.Fatalf("poison job error lost the stack: %q", done.Error)
	}

	// The workers that recovered the panics still serve.
	healthy := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)
	if done := waitJob(t, ts.URL, healthy.ID); done.State != jobq.StateSucceeded {
		t.Fatalf("job after panic containment: state %s, error %q", done.State, done.Error)
	}
	if code, h := getHealth(t, ts.URL); code != http.StatusOK {
		t.Fatalf("health after panic containment: %d %+v", code, h)
	}
}

// TestChaosQueueSaturation drives the queue to its admission limit
// and asserts overload is refused fast (503 + Retry-After) instead of
// queueing without bound, then that capacity frees once jobs drain.
func TestChaosQueueSaturation(t *testing.T) {
	dir := t.TempDir()
	g := newGate()
	srv, err := New(Options{
		DataDir:       dir,
		Workers:       1,
		MaxQueueDepth: 1,
		JobTimeout:    2 * time.Minute,
		EngineOptions: []alice.Option{g.option()},
		NoSync:        true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	// Fill the service: one job running (held at the gate), one queued.
	g.armed.Store(true)
	running := postJob(t, ts.URL, `{"bench":"gcd","cfg":1,"fresh":true}`)
	g.awaitEntered(t)
	queued := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)

	// The next submission exceeds MaxQueueDepth: refused, not queued.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"bench":"gcd","cfg":1}`))
	if err != nil {
		t.Fatalf("POST over capacity: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST over capacity: status %d (%s), want 503", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Fatal("POST over capacity: no Retry-After header")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("POST over capacity: body %s", body)
	}
	if st := getStats(t, ts.URL); st.Rejected == 0 {
		t.Fatal("stats: rejected submissions not counted")
	}

	// Drain: both accepted jobs complete, and capacity frees.
	g.armed.Store(false)
	close(g.release)
	for _, id := range []string{running.ID, queued.ID} {
		if done := waitJob(t, ts.URL, id); done.State != jobq.StateSucceeded {
			t.Fatalf("accepted job %s: state %s, error %q", id, done.State, done.Error)
		}
	}
	after := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)
	if done := waitJob(t, ts.URL, after.ID); done.State != jobq.StateSucceeded {
		t.Fatalf("job after drain: state %s, error %q", done.State, done.Error)
	}
}

// TestServeRefusesMidLogCorruption is the daemon path of the store's
// damage policy: a corrupted record in the *middle* of the log (not a
// torn tail) must fail startup loudly with store.ErrCorrupt — never
// open with records silently dropped.
func TestServeRefusesMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StoreFile)
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Put(fmt.Sprintf("key-%d", i), []byte("a perfectly healthy record payload")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte inside the first record's key: a CRC mismatch with
	// four valid records after it — mid-log damage, not a torn tail.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	raw[len("ALICESTORE1\n")+13] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	_, err = New(Options{DataDir: dir})
	if err == nil {
		t.Fatal("serve.New opened a mid-log-corrupt store; want a loud refusal")
	}
	if !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("serve.New error %v; want errors.Is(err, store.ErrCorrupt)", err)
	}
}
