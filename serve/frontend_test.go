package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"

	"alice"
	"alice/internal/jobq"
	"alice/internal/netlist"
	"alice/internal/rtl"
	"alice/internal/synth"
)

// twoTops is a design with two possible top modules: outer instantiates
// inner, so elaborating either one is valid and yields different logic.
const twoTops = `
module inner(input wire a, input wire b, output wire y);
  assign y = a & b;
endmodule

module outer(input wire a, input wire b, input wire c, output wire z);
  wire t;
  inner u0 (.a(a), .b(b), .y(t));
  assign z = t ^ c;
endmodule
`

// twoClocks has two clocked submodules on separate clocks. The flow
// unifies them into one domain, as it does for cluster wrappers.
const twoClocks = `
module top(input wire clka, input wire clkb, input wire [3:0] a, input wire [3:0] b,
           output wire [3:0] x, output wire [3:0] y);
  acc ua (.clk(clka), .d(a), .q(x));
  acc ub (.clk(clkb), .d(b), .q(y));
endmodule

module acc(input wire clk, input wire [3:0] d, output reg [3:0] q);
  always @(posedge clk) q <= q + d;
endmodule
`

// keyOf resolves a request to its StoreKey without running the flow.
func keyOf(t *testing.T, srv *Server, req JobRequest) string {
	t.Helper()
	pj, err := srv.prepare(&req)
	if err != nil {
		t.Fatalf("prepare %+v: %v", req, err)
	}
	return pj.memoID
}

// TestFrontEndRunsOncePerDesign: four sends of one request synthesize
// the design once — at the first submission — and every later
// submission and job answers its key from the front-end memo.
func TestFrontEndRunsOncePerDesign(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	req := `{"bench":"gcd","config_yaml":"security:\n  key_weight: 0.5\n"}`
	var key string
	for i := 0; i < 4; i++ {
		done := waitJob(t, ts.URL, postJob(t, ts.URL, req).ID)
		if done.State != jobq.StateSucceeded {
			t.Fatalf("send %d: %s (%s)", i, done.State, done.Error)
		}
		if cached := done.Result.Cached; cached != (i > 0) {
			t.Fatalf("send %d: cached=%v", i, cached)
		}
		if i == 0 {
			key = done.Result.StoreKey
		} else if done.Result.StoreKey != key {
			t.Fatalf("send %d: store key %s, want %s", i, done.Result.StoreKey, key)
		}
	}
	st := getStats(t, ts.URL)
	if st.FrontEndRuns != 1 || st.FlowRuns != 1 || st.MemoHits != 3 {
		t.Fatalf("front_end_runs=%d flow_runs=%d memo_hits=%d, want 1, 1, 3",
			st.FrontEndRuns, st.FlowRuns, st.MemoHits)
	}
}

// TestFrontEndMemoKeys: the front-end memo is keyed by top module and
// exact source text, so a different top or a one-token logic change
// gets its own StoreKey, while a reformatted source (a memo miss of its
// own) still lands on the original StoreKey through the netlist hash.
func TestFrontEndMemoKeys(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	outer := keyOf(t, srv, JobRequest{Source: twoTops, ConfigYAML: "top: outer\n"})
	inner := keyOf(t, srv, JobRequest{Source: twoTops, ConfigYAML: "top: inner\n"})
	if outer == inner {
		t.Fatalf("top outer and top inner share StoreKey %s", outer)
	}
	if again := keyOf(t, srv, JobRequest{Source: twoTops, ConfigYAML: "top: outer\n"}); again != outer {
		t.Fatalf("repeated request keyed %s, want %s", again, outer)
	}
	if n := srv.frontEndRuns.Load(); n != 2 {
		t.Fatalf("front-end runs = %d after two tops, want 2", n)
	}

	changed := strings.Replace(twoTops, "a & b", "a | b", 1)
	if k := keyOf(t, srv, JobRequest{Source: changed, ConfigYAML: "top: outer\n"}); k == outer {
		t.Fatalf("one-token logic change kept StoreKey %s", k)
	}

	reformatted := "// reformatted\n" + strings.ReplaceAll(twoTops, "\n", "\n\n  ")
	if k := keyOf(t, srv, JobRequest{Source: reformatted, ConfigYAML: "top: outer\n"}); k != outer {
		t.Fatalf("reformatted source keyed %s, want %s", k, outer)
	}
	if n := srv.frontEndRuns.Load(); n != 4 {
		t.Fatalf("front-end runs = %d, want 4 (two tops, a logic change, a reformat)", n)
	}
}

// TestFrontEndFailuresNotMemoized: a design that fails to parse or to
// elaborate is refused with 400 and never enters the front-end memo, so
// resubmitting it is refused again with the identical positioned error.
func TestFrontEndFailuresNotMemoized(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	submit := func(body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400: %s", body, resp.StatusCode, raw)
		}
		var e apiError
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("decoding error body: %v\n%s", err, raw)
		}
		return e.Error
	}
	parseBad, _ := json.Marshal(JobRequest{Source: "module m(input wire a, output wire y);\n  assign y = a &;\nendmodule\n"})
	elabBad, _ := json.Marshal(JobRequest{Source: twoTops, ConfigYAML: "top: nonesuch\n"})
	for _, tc := range []struct {
		name, body, want string
	}{
		{"parse", string(parseBad), `^parsing design: \d+:\d+: `},
		{"elaborate", string(elabBad), `^elaborating design: .*nonesuch`},
	} {
		first := submit(tc.body)
		if !regexp.MustCompile(tc.want).MatchString(first) {
			t.Errorf("%s: error %q does not match %s", tc.name, first, tc.want)
		}
		if again := submit(tc.body); again != first {
			t.Errorf("%s: resubmission error %q, first was %q", tc.name, again, first)
		}
	}
	if n := len(srv.frontEnd.m); n != 0 {
		t.Fatalf("failed designs left %d front-end memo entries", n)
	}
	if st := getStats(t, ts.URL); st.FrontEndRuns != 0 || st.JobTotals.Submitted != 0 {
		t.Fatalf("failed designs: front_end_runs=%d submitted=%d, want 0, 0",
			st.FrontEndRuns, st.JobTotals.Submitted)
	}
}

// TestFrontEndConcurrentSubmissions races identical submissions onto
// the two workers (run it under -race): every job succeeds on one
// StoreKey, every memo hit returns a computed report (two workers may
// both miss and compute), and the jobs split exactly into flow runs and
// memo hits.
func TestFrontEndConcurrentSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	const sends = 6
	req := `{"bench":"gcd","cfg":2}`
	ids := make([]string, sends)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(req))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var js JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&js); err != nil || resp.StatusCode != http.StatusCreated {
				t.Errorf("submit: status %d, %v", resp.StatusCode, err)
				return
			}
			ids[i] = js.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	results := make([]*JobResult, sends)
	for i, id := range ids {
		done := waitJob(t, ts.URL, id)
		if done.State != jobq.StateSucceeded {
			t.Fatalf("send %d: %s (%s)", i, done.State, done.Error)
		}
		results[i] = done.Result
	}
	var computed *JobResult
	for i, r := range results {
		if r.StoreKey != results[0].StoreKey {
			t.Fatalf("send %d: store key %s, want %s", i, r.StoreKey, results[0].StoreKey)
		}
		if !r.Cached {
			computed = r
		}
	}
	if computed == nil {
		t.Fatalf("no send computed the result")
	}
	for i, r := range results {
		if r.Cached && withoutTimings(t, r.Report) != withoutTimings(t, computed.Report) {
			t.Errorf("send %d: memo hit differs from the computed report", i)
		}
	}
	st := getStats(t, ts.URL)
	if st.FlowRuns+st.MemoHits != sends || st.FrontEndRuns < 1 || st.FrontEndRuns > sends {
		t.Fatalf("flow_runs=%d memo_hits=%d front_end_runs=%d for %d sends",
			st.FlowRuns, st.MemoHits, st.FrontEndRuns, sends)
	}
}

// TestMissReusesParsedDesign: a job that derives its key itself (an
// empty front-end memo, as after a restart) elaborates and synthesizes
// the AST it then hands to the flow. The report must equal a run from a
// fresh parse, stage timings aside.
func TestMissReusesParsedDesign(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)

	req := JobRequest{Bench: "sasc", Cfg: 1}
	payload, _ := json.Marshal(req)
	raw, err := srv.runJob(context.Background(), &jobq.Job{Payload: payload})
	if err != nil {
		t.Fatalf("runJob: %v", err)
	}
	if n := srv.frontEndRuns.Load(); n != 1 {
		t.Fatalf("front-end runs = %d, want 1", n)
	}
	var res JobResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	b, _ := alice.BenchmarkByName("sasc")
	cfg := alice.Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := withoutTimings(t, res.Report), withoutTimings(t, want); got != want {
		t.Fatalf("report from the reused AST differs from a fresh parse:\n got %s\nwant %s", got, want)
	}
}

// withoutTimings renders a report JSON with its stage wall times
// removed, the only fields two runs of one design may disagree on.
func withoutTimings(t *testing.T, raw []byte) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if strings.HasSuffix(k, "_seconds") {
			delete(m, k)
		}
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// memoHitJob starts a server, stores the result of one serve_mix-style
// request, and returns the job that repeats it: a memo hit whose design
// the front-end memo already knows.
func memoHitJob(tb testing.TB) (*Server, *jobq.Job) {
	tb.Helper()
	srv, err := New(Options{DataDir: tb.TempDir(), Workers: 1, NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close(context.Background()) })
	payload, _ := json.Marshal(JobRequest{Bench: "gcd", ConfigYAML: "security:\n  key_weight: 0.5\n"})
	job := &jobq.Job{Payload: payload}
	if _, err := srv.runJob(context.Background(), job); err != nil {
		tb.Fatalf("first run: %v", err)
	}
	return srv, job
}

// BenchmarkMemoHit times one memo hit in the job handler: a JSON
// decode, a config load, one source digest and one store read.
func BenchmarkMemoHit(b *testing.B) {
	srv, job := memoHitJob(b)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := srv.runJob(ctx, job); err != nil {
			b.Fatal(err)
		}
	}
}

// memoHitAllocBound caps the allocations of one memo hit. A hit that
// parsed or synthesized the design again would allocate tens of
// thousands of times.
const memoHitAllocBound = 120

// TestMemoHitAllocs holds the memo hit to its allocation bound and
// proves it runs no front end and no flow.
func TestMemoHitAllocs(t *testing.T) {
	srv, job := memoHitJob(t)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := srv.runJob(ctx, job); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > memoHitAllocBound {
		t.Errorf("memo hit: %.0f allocs, bound %d", allocs, memoHitAllocBound)
	}
	if fe, flows := srv.frontEndRuns.Load(), srv.flowRuns.Load(); fe != 1 || flows != 1 {
		t.Errorf("front_end_runs=%d flow_runs=%d after the hits, want 1, 1", fe, flows)
	}
}

// TestTwoClockDesign: a design with two clock domains, which the flow
// redacts, is accepted as a job and succeeds, and its functional
// redaction co-simulates equal to the original.
func TestTwoClockDesign(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	defer closeServer(t, srv, ts)
	body, err := json.Marshal(JobRequest{Source: twoClocks})
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, ts.URL, postJob(t, ts.URL, string(body)).ID)
	if done.State != jobq.StateSucceeded {
		t.Fatalf("two-clock job: %s (%s)", done.State, done.Error)
	}

	rep, err := alice.NewEngine().RunSource(context.Background(), twoClocks)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solution == nil {
		t.Fatalf("two-clock flow found no solution: %v", rep.Err)
	}
	red, err := alice.GenerateRedactedDesign(twoClocks, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.VerifyRedaction(twoClocks, red, 200, 1); err != nil {
		t.Fatal(err)
	}
}

// TestNetlistHashIgnoresClockUnification: the front end synthesizes
// with clocks unified, which only lifts the single-clock check, so each
// corpus design's content hash, part of its store key, is the one a
// plain synthesis gives.
func TestNetlistHashIgnoresClockUnification(t *testing.T) {
	for _, b := range alice.Benchmarks() {
		ast, err := alice.Parse(b.Source())
		if err != nil {
			t.Fatal(err)
		}
		var hashes [2]string
		for i, unify := range []bool{false, true} {
			d, err := rtl.Elaborate(ast, "")
			if err != nil {
				t.Fatal(err)
			}
			res, err := synth.SynthesizeOpts(d, synth.Options{UnifyClocks: unify})
			if err != nil {
				t.Fatalf("%s unify=%v: %v", b.Name, unify, err)
			}
			hashes[i] = netlist.ContentHash(res.Netlist)
		}
		if hashes[0] != hashes[1] {
			t.Errorf("%s: content hash %s, %s with clocks unified", b.Name, hashes[0], hashes[1])
		}
	}
}
