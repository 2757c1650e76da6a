package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alice"
	"alice/internal/jobq"
	"alice/internal/openfpga"
	"alice/internal/store"
)

// charCounter returns an observer option counting Characterize stage
// starts, and the counter it feeds.
func charCounter() (alice.Option, *atomic.Int64) {
	var n atomic.Int64
	opt := alice.WithObserver(func(ev alice.Event) {
		if ev.Kind == alice.EventStageStart && ev.Stage == alice.StageCharacterize {
			n.Add(1)
		}
	})
	return opt, &n
}

func newTestServer(t *testing.T, dir string, extra ...alice.Option) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		DataDir:       dir,
		Workers:       2,
		JobTimeout:    2 * time.Minute,
		EngineOptions: extra,
		NoSync:        true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts
}

func closeServer(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func postJob(t *testing.T, base, body string) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d: %s", resp.StatusCode, raw)
	}
	var js JobStatus
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatalf("decoding submit response: %v\n%s", err, raw)
	}
	return js
}

func waitJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?wait=10s")
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var js JobStatus
		if err := json.Unmarshal(raw, &js); err != nil {
			t.Fatalf("decoding job: %v\n%s", err, raw)
		}
		if js.State.Terminal() {
			return js
		}
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

func getStats(t *testing.T, base string) StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/store/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding stats: %v", err)
	}
	return st
}

// TestMemoizationAcrossRestart is the acceptance test of the service:
// run a design (with attack evaluation) once, restart the daemon, and
// prove the identical resubmission is answered entirely from the disk
// store — zero Characterize stage invocations, zero flow runs, zero
// attack runs — and that a reformatted copy of the source memoizes to
// the same record.
func TestMemoizationAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	// The conflict cap keeps the attack fast: the small fabric cracks,
	// the big one exhausts the budget — both are deterministic verdicts.
	req := `{"name":"gcd","bench":"gcd","cfg":1,"attack":{"max_conflicts":5000,"seed":7}}`

	obs1, chars1 := charCounter()
	srv1, ts1 := newTestServer(t, dir, obs1)
	js := postJob(t, ts1.URL, req)
	done := waitJob(t, ts1.URL, js.ID)
	if done.State != "succeeded" {
		t.Fatalf("first run: state %s, error %q", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Cached {
		t.Fatalf("first run must compute, got %+v", done.Result)
	}
	if len(done.Result.Attack) == 0 {
		t.Fatalf("first run carried no attack verdicts")
	}
	for _, v := range done.Result.Attack {
		if !v.Cracked && !v.BudgetExceeded {
			t.Errorf("attack verdict neither cracked nor budget-exceeded: %+v", v)
		}
	}
	if chars1.Load() == 0 {
		t.Fatalf("first run characterized nothing (observer not wired?)")
	}
	st1 := getStats(t, ts1.URL)
	if st1.FlowRuns != 1 || st1.MemoHits != 0 {
		t.Fatalf("first run stats: %+v", st1)
	}
	storeKey := done.Result.StoreKey
	closeServer(t, srv1, ts1)

	// Restart: fresh process state, same data directory.
	obs2, chars2 := charCounter()
	srv2, ts2 := newTestServer(t, dir, obs2)
	defer closeServer(t, srv2, ts2)

	js2 := postJob(t, ts2.URL, req)
	done2 := waitJob(t, ts2.URL, js2.ID)
	if done2.State != "succeeded" {
		t.Fatalf("resubmission: state %s, error %q", done2.State, done2.Error)
	}
	if done2.Result == nil || !done2.Result.Cached {
		t.Fatalf("resubmission was not served from the store: %+v", done2.Result)
	}
	if done2.Result.StoreKey != storeKey {
		t.Fatalf("store keys differ across restarts: %s vs %s", done2.Result.StoreKey, storeKey)
	}
	if got := chars2.Load(); got != 0 {
		t.Fatalf("resubmission invoked Characterize %d times, want 0", got)
	}
	st2 := getStats(t, ts2.URL)
	if st2.FlowRuns != 0 || st2.AttackRuns != 0 {
		t.Fatalf("resubmission ran the flow/attack: flow=%d attack=%d", st2.FlowRuns, st2.AttackRuns)
	}
	if st2.MemoHits != 1 {
		t.Fatalf("memo hits = %d, want 1", st2.MemoHits)
	}

	// A reformatted copy of the same design — comments, whitespace —
	// must land on the same store record (canonical netlist hash).
	b, _ := alice.BenchmarkByName("gcd")
	reformatted := "// reformatted copy\n\n" + strings.ReplaceAll(b.Source(), "\n", "\n\n")
	cfgReq, _ := json.Marshal(JobRequest{
		Name:   "gcd-reformatted",
		Source: reformatted,
		ConfigYAML: "selected_outputs: [" + strings.Join(b.SelectedOutputs, ", ") + "]\n" +
			"efpga:\n  max_io_pins: 64\n  max_instances: 2\n",
		Attack: &AttackRequest{MaxConflicts: 5000, Seed: 7},
	})
	js3 := postJob(t, ts2.URL, string(cfgReq))
	done3 := waitJob(t, ts2.URL, js3.ID)
	if done3.State != "succeeded" {
		t.Fatalf("reformatted run: state %s, error %q", done3.State, done3.Error)
	}
	if done3.Result.StoreKey != storeKey {
		t.Fatalf("reformatted source keyed differently: %s vs %s", done3.Result.StoreKey, storeKey)
	}
	if !done3.Result.Cached {
		t.Fatalf("reformatted source was not served from the store")
	}
}

// listJobs returns GET /v1/jobs.
func listJobs(t *testing.T, base string) []JobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var jobs []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatalf("decoding job list: %v", err)
	}
	return jobs
}

// TestSubmitAnswersMemoHit: a request whose result is stored is
// answered in its POST, already succeeded, with the miss's key and
// report; it costs one store write (its journal record) and no flow,
// and the job stays pollable, listed and, after a restart, succeeded.
func TestSubmitAnswersMemoHit(t *testing.T) {
	dir := t.TempDir()
	req := `{"name":"hit","bench":"gcd","cfg":1}`
	srv1, ts1 := newTestServer(t, dir)
	miss := waitJob(t, ts1.URL, postJob(t, ts1.URL, req).ID)
	if miss.State != jobq.StateSucceeded || miss.Result == nil || miss.Result.Cached {
		t.Fatalf("first send: %+v, want a computed result", miss)
	}
	before := getStats(t, ts1.URL)

	hit := postJob(t, ts1.URL, req)
	if hit.State != jobq.StateSucceeded || hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("repeated send: POST answered %+v, want succeeded with a cached result", hit)
	}
	if hit.Result.StoreKey != miss.Result.StoreKey || !bytes.Equal(hit.Result.Report, miss.Result.Report) {
		t.Fatalf("memo hit differs from the miss: key %s vs %s", hit.Result.StoreKey, miss.Result.StoreKey)
	}
	if hit.Attempts != 0 || !hit.StartedAt.Equal(hit.SubmittedAt) || !hit.FinishedAt.Equal(hit.SubmittedAt) {
		t.Errorf("memo hit ran in a worker: %+v", hit)
	}
	after := getStats(t, ts1.URL)
	if after.FlowRuns != before.FlowRuns || after.MemoHits != before.MemoHits+1 {
		t.Errorf("flow_runs %d -> %d, memo_hits %d -> %d; want no flow and one hit",
			before.FlowRuns, after.FlowRuns, before.MemoHits, after.MemoHits)
	}
	if after.Store.Puts != before.Store.Puts+1 {
		t.Errorf("store puts %d -> %d; want exactly one, the job's journal record",
			before.Store.Puts, after.Store.Puts)
	}
	if got := after.JobTotals; got.Submitted != before.JobTotals.Submitted+1 || got.Succeeded != before.JobTotals.Succeeded+1 {
		t.Errorf("job totals %+v -> %+v; want one more submitted and succeeded", before.JobTotals, got)
	}

	got := waitJob(t, ts1.URL, hit.ID)
	if got.State != jobq.StateSucceeded || got.Result == nil || !bytes.Equal(got.Result.Report, miss.Result.Report) {
		t.Errorf("GET of the memo hit: %+v", got)
	}
	listed := false
	for _, j := range listJobs(t, ts1.URL) {
		listed = listed || (j.ID == hit.ID && j.State == jobq.StateSucceeded)
	}
	if !listed {
		t.Errorf("job listing lacks the succeeded memo hit %s", hit.ID)
	}
	closeServer(t, srv1, ts1)

	srv2, ts2 := newTestServer(t, dir)
	defer closeServer(t, srv2, ts2)
	got = waitJob(t, ts2.URL, hit.ID)
	if got.State != jobq.StateSucceeded || got.Result == nil || !got.Result.Cached ||
		got.Result.StoreKey != miss.Result.StoreKey || !bytes.Equal(got.Result.Report, miss.Result.Report) {
		t.Fatalf("memo hit after a restart: %+v", got)
	}
	if st := getStats(t, ts2.URL); st.FlowRuns != 0 {
		t.Fatalf("restart re-ran %d flows", st.FlowRuns)
	}
}

// TestFreshSubmissionIsQueued: fresh bypasses a stored result, so the
// request is queued and the flow runs.
func TestFreshSubmissionIsQueued(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)
	miss := waitJob(t, ts.URL, postJob(t, ts.URL, `{"bench":"gcd","cfg":2}`).ID)
	if miss.State != jobq.StateSucceeded {
		t.Fatalf("first send: %s (%s)", miss.State, miss.Error)
	}
	fresh := postJob(t, ts.URL, `{"bench":"gcd","cfg":2,"fresh":true}`)
	if fresh.State != jobq.StateQueued {
		t.Fatalf("fresh send: POST answered %s, want queued", fresh.State)
	}
	done := waitJob(t, ts.URL, fresh.ID)
	if done.State != jobq.StateSucceeded || done.Result.Cached || done.Result.StoreKey != miss.Result.StoreKey {
		t.Fatalf("fresh send: %+v, want a recomputed result under the same key", done)
	}
	if st := getStats(t, ts.URL); st.FlowRuns != 2 || st.MemoHits != 0 {
		t.Fatalf("flow_runs=%d memo_hits=%d, want 2, 0", st.FlowRuns, st.MemoHits)
	}
}

// gcdThroughStore runs gcd under cfg1 with a TieredCache over the store
// at path, wrapped by wrap when it is not nil, and returns the report
// and the tiered cache.
func gcdThroughStore(t *testing.T, path string, wrap func(*TieredCache) alice.Cache) (*alice.Report, *TieredCache) {
	t.Helper()
	b, _ := alice.BenchmarkByName("gcd")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	st, err := store.Open(path, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	tc := NewTieredCache(nil, st)
	var c alice.Cache = tc
	if wrap != nil {
		c = wrap(tc)
	}
	rep, err := alice.NewEngine(alice.WithConfig(cfg), alice.WithCache(c)).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Selection == nil {
		t.Fatalf("gcd flow stopped before selection: %v", rep.Err)
	}
	return rep, tc
}

// TestTieredCacheReadThrough proves the Engine-facing cache property:
// a fresh memory tier over an existing store serves characterizations
// from disk (promoting them), so the flow re-runs without
// characterizing from scratch, and every fabric read back carries the
// structural report it was stored with.
func TestTieredCacheReadThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.store")
	rep1, tc1 := gcdThroughStore(t, path, nil)
	if _, _, entries := tc1.Stats(); entries == 0 {
		t.Fatalf("first run stored no characterizations")
	}
	if err := tc1.st.Close(); err != nil {
		t.Fatal(err)
	}

	rep2, tc2 := gcdThroughStore(t, path, nil)
	if hits, _, _ := tc2.DiskStats(); hits == 0 {
		t.Fatalf("second run hit the disk tier 0 times")
	}
	if rep1.FabricSizes != rep2.FabricSizes {
		t.Fatalf("cached run selected different fabrics: %q vs %q", rep1.FabricSizes, rep2.FabricSizes)
	}
	if _, _, entries := tc2.Stats(); entries == 0 {
		t.Fatalf("disk hits were not promoted into the memory tier")
	}
	for i, c1 := range rep1.Selection.Candidates {
		if c1.Fabric == nil {
			continue
		}
		got := rep2.Selection.Candidates[i].Fabric.Structural
		if got == nil || !reflect.DeepEqual(got, c1.Fabric.Structural) {
			t.Errorf("candidate %d: disk record's report %v, stored %v", i, got, c1.Fabric.Structural)
		}
	}
}

// reportlessCache writes every fabric without its structural report,
// as a daemon from before characterization analyzed did, and records
// the keys of those fabrics. The characterization workers call Store
// concurrently.
type reportlessCache struct {
	*TieredCache
	mu   sync.Mutex
	keys []string
}

func (r *reportlessCache) Store(key string, fab *openfpga.Fabric, err error) {
	if fab != nil {
		bare := *fab
		bare.Structural = nil
		fab = &bare
		r.mu.Lock()
		r.keys = append(r.keys, key)
		r.mu.Unlock()
	}
	r.TieredCache.Store(key, fab, err)
}

// TestTieredCacheReportlessRecords: a disk record whose fabric was
// written without a structural report is a miss, so the flow over it
// re-characterizes, gets the reports and fabrics a fresh
// characterization gets, and overwrites the record — the path of a
// daemon upgraded over an old data directory.
func TestTieredCacheReportlessRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.store")
	var old *reportlessCache
	rep1, tc1 := gcdThroughStore(t, path, func(tc *TieredCache) alice.Cache {
		old = &reportlessCache{TieredCache: tc}
		return old
	})
	if err := tc1.st.Close(); err != nil {
		t.Fatal(err)
	}
	if len(old.keys) == 0 {
		t.Fatal("the first run stored no fabrics")
	}

	lookupAll := func(wantHit bool) {
		t.Helper()
		st, err := store.Open(path, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		tc := NewTieredCache(nil, st)
		for _, key := range old.keys {
			fab, _, ok := tc.Lookup(key)
			if ok != wantHit {
				t.Fatalf("record %q: hit %v, want %v", key, ok, wantHit)
			}
			if ok && (fab == nil || fab.Structural == nil) {
				t.Fatalf("record %q served without a report", key)
			}
		}
		if hits, misses, skips := tc.DiskStats(); !wantHit && (misses != int64(len(old.keys)) || skips != misses) {
			t.Fatalf("disk hits/misses/skips = %d/%d/%d, want a skipped miss per record (%d)", hits, misses, skips, len(old.keys))
		}
	}
	lookupAll(false)

	rep2, tc2 := gcdThroughStore(t, path, nil)
	for i, c1 := range rep1.Selection.Candidates {
		if c1.Fabric == nil {
			continue
		}
		c2 := rep2.Selection.Candidates[i]
		if c2.Structural == nil || !reflect.DeepEqual(c2.Structural, c1.Structural) {
			t.Errorf("candidate %d: report %v over an old record, want %v", i, c2.Structural, c1.Structural)
		}
	}
	if rep1.FabricSizes != rep2.FabricSizes {
		t.Errorf("run over old records selected %q, want %q", rep2.FabricSizes, rep1.FabricSizes)
	}
	if err := tc2.st.Close(); err != nil {
		t.Fatal(err)
	}
	lookupAll(true) // re-characterization overwrote every old record
}

// TestSubmitValidation: malformed requests fail the HTTP call with
// 400, not an async job.
func TestSubmitValidation(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	bad := []string{
		`{}`,                                   // no design
		`{"bench":"gcd","source":"module"}`,    // both
		`{"bench":"nonesuch"}`,                 // unknown benchmark
		`{"bench":"gcd","cfg":3}`,              // bad cfg
		`{"bench":"gcd","config_yaml":":::"}`,  // bad YAML
		`{"source":"module m(; endmodule"}`,    // parse error
		`{"bench":"gcd","unknown_field":true}`, // schema violation
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []JobStatus
	json.NewDecoder(resp.Body).Decode(&jobs)
	if len(jobs) != 0 {
		t.Errorf("rejected submissions created %d jobs", len(jobs))
	}
}

// TestCancelMidJobStoreIntact: canceling a running job must leave the
// store uncorrupted — the daemon restarts clean with every committed
// record intact.
func TestCancelMidJobStoreIntact(t *testing.T) {
	dir := t.TempDir()
	// A deliberately slow observer gives the cancel a wide window.
	slow := alice.WithObserver(func(ev alice.Event) {
		if ev.Kind == alice.EventProgress {
			time.Sleep(5 * time.Millisecond)
		}
	})
	srv, ts := newTestServer(t, dir, slow)

	// One fast job first, so the store holds a committed result the
	// cancellation must not disturb.
	first := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)
	if done := waitJob(t, ts.URL, first.ID); done.State != "succeeded" {
		t.Fatalf("setup job: %s (%s)", done.State, done.Error)
	}
	recordsBefore := getStats(t, ts.URL).Store.Records

	victim := postJob(t, ts.URL, `{"bench":"sha256","cfg":1,"fresh":true}`)
	// Cancel as soon as it starts running (or immediately if queued).
	for i := 0; i < 200; i++ {
		resp, _ := http.Get(ts.URL + "/v1/jobs/" + victim.ID)
		var js JobStatus
		json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if js.State == "running" || i == 199 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	end := waitJob(t, ts.URL, victim.ID)
	if end.State != "canceled" && end.State != "succeeded" {
		t.Fatalf("victim state %s, want canceled (or succeeded if it outran the cancel)", end.State)
	}
	closeServer(t, srv, ts)

	// The store must reopen clean, with the committed result intact.
	st, err := store.Open(filepath.Join(dir, StoreFile))
	if err != nil {
		t.Fatalf("store corrupted by cancellation: %v", err)
	}
	defer st.Close()
	if got := st.Stats(); got.Records < recordsBefore {
		t.Fatalf("committed records lost: %d, had %d", got.Records, recordsBefore)
	}

	// And a restarted server must still answer the committed result
	// from the store.
	st.Close()
	srv2, ts2 := newTestServer(t, dir)
	defer closeServer(t, srv2, ts2)
	again := postJob(t, ts2.URL, `{"bench":"gcd","cfg":1}`)
	if done := waitJob(t, ts2.URL, again.ID); done.State != "succeeded" || !done.Result.Cached {
		t.Fatalf("post-cancel restart lost the memoized result: %+v", done)
	}
}

// TestEndpoints covers the small surface: health, stats shape, list,
// 404s, compaction.
func TestEndpoints(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/job-999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	js := postJob(t, ts.URL, `{"name":"ep","bench":"gcd","cfg":2}`)
	done := waitJob(t, ts.URL, js.ID)
	if done.State != "succeeded" {
		t.Fatalf("job: %s (%s)", done.State, done.Error)
	}
	if done.Name != "ep" {
		t.Errorf("name not carried: %q", done.Name)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []JobStatus
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].Result != nil {
		t.Errorf("list: want 1 slim entry, got %+v", list)
	}

	st := getStats(t, ts.URL)
	if st.Store.Records == 0 || st.FlowRuns != 1 {
		t.Errorf("stats after one run: %+v", st)
	}

	// Compaction keeps the records and the memo hit.
	cresp, err := http.Post(ts.URL+"/v1/store/compact", "application/json", nil)
	if err != nil || cresp.StatusCode != 200 {
		t.Fatalf("compact: %v %v", cresp.Status, err)
	}
	cresp.Body.Close()
	again := postJob(t, ts.URL, `{"name":"ep2","bench":"gcd","cfg":2}`)
	if done := waitJob(t, ts.URL, again.ID); !done.Result.Cached {
		t.Errorf("memoized result lost by compaction")
	}
}

// TestAttackBudgetMemoized: a budget-exhausted attack is a
// deterministic verdict and must memoize like a success.
func TestAttackBudgetMemoized(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	req := `{"bench":"gcd","cfg":1,"attack":{"max_iters":1,"seed":3}}`
	first := waitJob(t, ts.URL, postJob(t, ts.URL, req).ID)
	if first.State != "succeeded" {
		t.Fatalf("budgeted run: %s (%s)", first.State, first.Error)
	}
	budgeted := 0
	for _, v := range first.Result.Attack {
		if v.BudgetExceeded {
			budgeted++
			if v.KeyBits == 0 {
				t.Errorf("budget verdict lost key size: %+v", v)
			}
		}
	}
	if budgeted == 0 {
		t.Skipf("gcd cracked within 1 DIP on every fabric; budget path untestable here: %+v", first.Result.Attack)
	}
	second := waitJob(t, ts.URL, postJob(t, ts.URL, req).ID)
	if !second.Result.Cached {
		t.Errorf("budget verdict was not memoized")
	}
}

// TestStructuralVerdicts: a structural request carries one verdict per
// solution fabric with a consistent key-bit breakdown, memoizes under
// its own key (it changes both the result shape and the attack
// seeding), and an attack stage alongside it still reaches a
// deterministic verdict with the leaked/dead bits pinned.
func TestStructuralVerdicts(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	plainReq := `{"bench":"gcd","cfg":1,"attack":{"max_conflicts":5000,"seed":7}}`
	plain := waitJob(t, ts.URL, postJob(t, ts.URL, plainReq).ID)
	if plain.State != "succeeded" {
		t.Fatalf("plain run: %s (%s)", plain.State, plain.Error)
	}
	if len(plain.Result.Structural) != 0 {
		t.Fatalf("plain run carried structural verdicts: %+v", plain.Result.Structural)
	}

	structReq := `{"bench":"gcd","cfg":1,"structural":true,"attack":{"max_conflicts":5000,"seed":7}}`
	done := waitJob(t, ts.URL, postJob(t, ts.URL, structReq).ID)
	if done.State != "succeeded" {
		t.Fatalf("structural run: %s (%s)", done.State, done.Error)
	}
	res := done.Result
	if res.Cached {
		t.Fatalf("structural request aliased the plain record")
	}
	if res.StoreKey == plain.Result.StoreKey {
		t.Fatalf("structural flag absent from the memo key: %s", res.StoreKey)
	}
	if len(res.Structural) == 0 {
		t.Fatalf("structural run carried no verdicts")
	}
	if len(res.Structural) != len(res.Attack) {
		t.Fatalf("verdict counts differ: %d structural vs %d attack", len(res.Structural), len(res.Attack))
	}
	for _, v := range res.Structural {
		if v.KeyBits <= 0 {
			t.Errorf("fabric %s: key_bits %d", v.Fabric, v.KeyBits)
		}
		if v.EffectiveKeyBits != v.KeyBits-v.LeakedBits-v.DeadBits {
			t.Errorf("fabric %s: inconsistent breakdown %+v", v.Fabric, v)
		}
	}
	for _, v := range res.Attack {
		if !v.Cracked && !v.BudgetExceeded {
			t.Errorf("seeded attack verdict neither cracked nor budget-exceeded: %+v", v)
		}
	}

	// The identical structural request memoizes to the same record.
	again := waitJob(t, ts.URL, postJob(t, ts.URL, structReq).ID)
	if !again.Result.Cached || again.Result.StoreKey != res.StoreKey {
		t.Errorf("structural result not memoized: cached=%v key=%s want %s",
			again.Result.Cached, again.Result.StoreKey, res.StoreKey)
	}
}

// TestDeleteJobInAttackStage deletes a job while it attacks its
// fabrics, on a server with one worker: the attack must stop at once
// (uncapped, the usb_phy attacks run for tens of seconds), the job
// must end canceled, and the next job must run on the freed worker.
func TestDeleteJobInAttackStage(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Workers: 1, JobTimeout: 2 * time.Minute, NoSync: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer closeServer(t, srv, ts)

	victim := postJob(t, ts.URL, `{"bench":"usb_phy","cfg":1,"attack":{"seed":1}}`)
	deadline := time.Now().Add(time.Minute)
	for getStats(t, ts.URL).AttackRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim never reached its attack stage")
		}
		time.Sleep(5 * time.Millisecond)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+victim.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deleted := time.Now()
	next := postJob(t, ts.URL, `{"bench":"gcd","cfg":1}`)

	if end := waitJob(t, ts.URL, victim.ID); end.State != "canceled" {
		t.Fatalf("victim state %s (%s), want canceled", end.State, end.Error)
	}
	if d := time.Since(deleted); d > 5*time.Second {
		t.Fatalf("victim ran on for %v after DELETE", d)
	}
	if done := waitJob(t, ts.URL, next.ID); done.State != "succeeded" {
		t.Fatalf("next job: %s (%s)", done.State, done.Error)
	}
}

// objectKeys returns the keys of the JSON object raw, in order.
func objectKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("reading %s: %v", raw, err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatalf("reading %s: %v", raw, err)
		}
	}
	return keys
}

// TestStoreStatsKeys pins the store's accounting on the wire: the keys,
// in order, of "store" in GET /v1/stats and of the body of POST
// /v1/store/compact.
func TestStoreStatsKeys(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)
	want := []string{"records", "log_bytes", "puts", "deletes", "gets", "hits",
		"recovered", "truncated_bytes", "rollbacks", "seals", "reopens"}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := objectKeys(t, stats["store"]); !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/stats store keys = %v, want %v", got, want)
	}

	resp, err = http.Post(ts.URL+"/v1/store/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d (%s)", resp.StatusCode, raw)
	}
	if got := objectKeys(t, raw); !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/store/compact keys = %v, want %v", got, want)
	}
}
