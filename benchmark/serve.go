package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"alice/internal/jobq"
	"alice/serve"
)

// serveDesigns are the designs of the service's requests: every paper
// design but des3, whose misses would take most of a pass.
var serveDesigns = []string{"gcd", "usb_phy", "sasc", "fir", "sha256", "iir"}

const (
	// serveWeights is how many security.key_weight variants each (design,
	// cfg) pair is requested under. Variants share characterizations, so
	// all but the first miss the memo yet hit the characterization cache.
	serveWeights = 5
	// serveSends is how often each distinct request is sent: one memo
	// miss, then hits.
	serveSends   = 4
	serveClients = 2
	serveWorkers = 2
	// jobWait bounds one long-poll for a job's result.
	jobWait = "60s"
)

// serveRequest is one distinct request of the mix.
type serveRequest struct {
	name   string // design/cfg/weight
	body   []byte // the JobRequest
	client int
}

// serveKeyWeights draws the run's serveWeights distinct key weights,
// multiples of 0.05 up to 2, from the seed.
func serveKeyWeights(r *run) []float64 {
	weights := make([]float64, serveWeights)
	for i, k := range r.rng.Perm(40)[:serveWeights] {
		weights[i] = float64(5*(k+1)) / 100
	}
	return weights
}

// serveMix builds the request list of designs under cfg1 and cfg2 and
// each key weight. All variants of one (design, cfg) pair go to one
// client, so which send misses the memo or the characterization cache
// does not depend on how the clients interleave.
func serveMix(designs []string, weights []float64) ([]serveRequest, error) {
	var reqs []serveRequest
	for di, design := range designs {
		for cfg := 1; cfg <= 2; cfg++ {
			for _, w := range weights {
				yaml := fmt.Sprintf("security:\n  key_weight: %g\n", w)
				if cfg == 2 {
					yaml = "efpga:\n  max_io_pins: 96\n  max_instances: 1\n" + yaml
				}
				body, err := json.Marshal(serve.JobRequest{Bench: design, ConfigYAML: yaml})
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, serveRequest{
					name:   fmt.Sprintf("%s/cfg%d/w%g", design, cfg, w),
					body:   body,
					client: (di + cfg) % serveClients,
				})
			}
		}
	}
	return reqs, nil
}

// runServe is the serve_mix workload. Set-up starts a daemon and runs
// one request per design; each pass starts a fresh daemon on an empty
// data directory and drives the whole mix through it.
func runServe(ctx context.Context, r *run) error {
	reqs, err := serveMix(serveDesigns, serveKeyWeights(r))
	if err != nil {
		return err
	}
	if err := r.timeSetup(func() error {
		d, err := startDaemon()
		if err != nil {
			return err
		}
		defer d.close(ctx)
		for _, design := range serveDesigns {
			body, err := json.Marshal(serve.JobRequest{Bench: design})
			if err != nil {
				return err
			}
			st, _, err := d.do(ctx, body)
			if err != nil {
				return fmt.Errorf("%s: %w", design, err)
			}
			if st.State != jobq.StateSucceeded {
				return fmt.Errorf("%s: job %s: %s", design, st.State, st.Error)
			}
		}
		return nil
	}); err != nil {
		return err
	}
	deadline := time.Now().Add(r.window)
	for pass := 1; pass == 1 || time.Now().Before(deadline); pass++ {
		if r.tr != nil {
			r.tr.pass = pass
		}
		if err := servePass(ctx, r, reqs); err != nil {
			return err
		}
	}
	return nil
}

// daemon is one in-process service behind a loopback HTTP server.
type daemon struct {
	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

// startDaemon starts a service with fsync on, on a fresh data directory
// under the temporary directory.
func startDaemon() (*daemon, error) {
	dir, err := os.MkdirTemp("", "alice-serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{DataDir: dir, Workers: serveWorkers})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &daemon{dir: dir, srv: srv, ts: ts, client: ts.Client()}, nil
}

// close stops the HTTP server, then the service, then removes its data.
func (d *daemon) close(ctx context.Context) error {
	d.ts.Close()
	err := d.srv.Close(ctx)
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// do submits one job and long-polls until it is terminal, returning its
// status and how long the submission itself took.
func (d *daemon) do(ctx context.Context, body []byte) (serve.JobStatus, time.Duration, error) {
	var st serve.JobStatus
	t0 := time.Now()
	if err := d.call(ctx, http.MethodPost, "/v1/jobs", body, http.StatusCreated, &st); err != nil {
		return st, 0, err
	}
	submit := time.Since(t0)
	for !st.State.Terminal() {
		if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"?wait="+jobWait, nil, http.StatusOK, &st); err != nil {
			return st, submit, err
		}
	}
	return st, submit, nil
}

// call makes one API request and decodes the response into out.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// servePass drives the whole mix through a fresh daemon with the
// closed-loop clients, each sending its requests in a new seeded order,
// and checks every answer.
func servePass(ctx context.Context, r *run, reqs []serveRequest) error {
	d, err := startDaemon()
	if err != nil {
		return err
	}
	lists := make([][]int, serveClients)
	for _, i := range r.rng.Perm(len(reqs) * serveSends) {
		q := i % len(reqs)
		lists[reqs[q].client] = append(lists[reqs[q].client], q)
	}
	ps := r.tr.begin(nil, "serve.pass")
	sends := make([][]serveSend, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sends[c] = serveClient(ctx, d, r.tr, ps, reqs, lists[c])
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	var stats serve.StatsResponse
	statsErr := d.call(ctx, http.MethodGet, "/v1/stats", nil, http.StatusOK, &stats)
	if err := d.close(ctx); err != nil {
		return fmt.Errorf("stopping the service: %w", err)
	}
	if statsErr != nil {
		return statsErr
	}
	ratio := 0.0
	if n := stats.Cache.MemHits + stats.Cache.MemMisses; n > 0 {
		ratio = float64(stats.Cache.MemHits) / float64(n)
	}
	r.tr.end(ps, "memo_hits", stats.MemoHits, "flow_runs", stats.FlowRuns, "mem_hit_ratio", ratio,
		"puts", stats.Store.Puts, "log_bytes", stats.Store.LogBytes)
	if r.tr == nil {
		r.passes = append(r.passes, wall.Seconds())
	}
	r.check("admission control", rejectedErr(stats.Rejected))
	checkSends(r, reqs, sends)
	return nil
}

func rejectedErr(n int64) error {
	if n != 0 {
		return fmt.Errorf("%d submissions refused", n)
	}
	return nil
}

// serveSend is one answered submission.
type serveSend struct {
	req     int
	lat     time.Duration
	err     error
	cached  bool
	report  []byte
	storeID string
}

// serveClient sends its requests one after another, each as soon as the
// previous one is answered.
func serveClient(ctx context.Context, d *daemon, tr *tracer, parent *span, reqs []serveRequest, list []int) []serveSend {
	out := make([]serveSend, 0, len(list))
	for _, q := range list {
		t0 := time.Now()
		js := tr.begin(parent, "serve.job")
		st, submit, err := d.do(ctx, reqs[q].body)
		s := serveSend{req: q, lat: time.Since(t0), err: err}
		if err == nil && (st.State != jobq.StateSucceeded || st.Result == nil) {
			s.err = fmt.Errorf("job %s: %s", st.State, st.Error)
		}
		if s.err == nil {
			s.cached, s.report, s.storeID = st.Result.Cached, st.Result.Report, st.Result.StoreKey
		}
		tr.end(js, "cached", s.cached)
		if tr != nil && s.err == nil {
			tr.add(js, "serve.submit", t0, submit)
			tr.add(js, "jobq.queue_wait", st.SubmittedAt, st.StartedAt.Sub(st.SubmittedAt))
			tr.add(js, "serve.run", st.StartedAt, st.FinishedAt.Sub(st.StartedAt), "cached", s.cached)
		}
		out = append(out, s)
	}
	return out
}

// checkSends checks a pass's answers: every job succeeded, each
// request's first send missed the memo and the rest hit it, and every
// hit returned its miss's report byte for byte.
func checkSends(r *run, reqs []serveRequest, sends [][]serveSend) {
	seen := make(map[int]*serveSend)
	for _, list := range sends {
		for i := range list {
			s := &list[i]
			name := reqs[s.req].name
			if r.tr == nil {
				r.sample(name, s.lat)
				r.jobLat = append(r.jobLat, float64(s.lat)/float64(time.Millisecond))
			}
			first, ok := seen[s.req]
			if !ok {
				seen[s.req] = s
			}
			switch {
			case s.err != nil:
			case !ok && s.cached:
				s.err = errors.New("first send was answered from the memo")
			case ok && !s.cached:
				s.err = errors.New("repeated send missed the memo")
			case ok && (first.storeID != s.storeID || !bytes.Equal(first.report, s.report)):
				s.err = errors.New("memo hit differs from the miss's report")
			}
			r.check(name, s.err)
		}
	}
}
