// Command benchmark times the ALICE redaction flow end to end and layer
// by layer on four fixed workloads:
//
//   - flow_corpus: the fast-mode flow on the paper designs under cfg1
//     and cfg2 (filter, cluster, characterize, select, redact);
//   - implement_corpus: place, route, bitstream and routed timing of the
//     cfg1 winning fabrics, in default and timing-driven mode;
//   - attack_fabrics: structural analysis and the oracle-guided SAT
//     attack on real winning fabrics, each under a fixed budget;
//   - serve_mix: the redaction service over loopback HTTP, two
//     closed-loop clients, one memo miss and three hits per request.
//
// It measures each layer from outside, by timing calls into its public
// functions, and checks every output against an independent oracle.
// Run it from the repository root:
//
//	bash benchmark/run.sh -workload flow_corpus -seed 1 -seconds 10
//	bash benchmark/run.sh -workload implement_corpus -trace 1
//	bash benchmark/run.sh                      # every workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 the run traces item → stage →
// kernel spans, writes them to the -out file and reports the per-layer
// metrics. The exit code is 1 when a check failed and 2 when the run
// could not be made at all.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workload is one fixed set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, r *run) error
}

var workloads = []workload{
	{"flow_corpus", "fast-mode flow on 6 paper designs under cfg1 and cfg2: characterize and select dominate; no place/route, SAT or store", runFlow},
	{"implement_corpus", "place, route, bitstream and routed STA of the cfg1 winning fabrics, default and timing-driven", runImplement},
	{"attack_fabrics", "structural analysis and budgeted SAT attack on five real winning fabrics: DIP-heavy items and one hard query", runAttack},
	{"serve_mix", "loopback HTTP service, 2 closed-loop clients, fsync'd store: 1 memo miss and 3 hits per distinct request", runServe},
}

// setupReps is how many times a run repeats its set-up, so that setup_s
// is a median and not one sample.
const setupReps = 9

// item is one timed unit of a batch workload.
type item struct {
	name string
	// run is the timed call; it returns an error when the output fails
	// its check.
	run func(ctx context.Context) error
	// trace runs the same item stage by stage under spans, then replays
	// the stages through their kernels.
	trace func(ctx context.Context, tr *tracer) error
	// verify, when set, is a slower check run once after the timed
	// passes.
	verify func(ctx context.Context) error
}

// run is the state of one benchmark invocation.
type run struct {
	seed   int64
	window time.Duration
	rng    *rand.Rand
	tr     *tracer // nil unless traced

	attempted, failed int
	failures          []string

	setup  []float64            // seconds per set-up repetition
	lat    map[string][]float64 // item name → latencies (ms)
	order  []string             // item names in first-seen order
	passes []float64            // pass wall times (s), where passes overlap work
	jobLat []float64            // serve_mix: every job's latency (ms)
}

func newRun(seed int64, seconds int, traced bool) *run {
	r := &run{
		seed:   seed,
		window: time.Duration(seconds) * time.Second,
		rng:    rand.New(rand.NewSource(seed)),
		lat:    make(map[string][]float64),
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// check counts one attempted operation, and a failure when err is set.
func (r *run) check(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// sample records one latency of item name.
func (r *run) sample(name string, d time.Duration) {
	if _, ok := r.lat[name]; !ok {
		r.order = append(r.order, name)
	}
	r.lat[name] = append(r.lat[name], float64(d)/float64(time.Millisecond))
}

// timeSetup runs f setupReps times and records each duration; the state
// f builds last is the one the run uses.
func (r *run) timeSetup(f func() error) error {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(t0).Seconds())
	}
	return nil
}

// runItems runs the items pass after pass, each pass in a new seeded
// order, until the window has passed; the first pass always completes,
// so every item has a sample. Traced runs trace each item instead of
// timing it, and only ever stop between passes, since their per-layer
// metrics are per-pass sums. Items with a verify step are verified once
// at the end.
func (r *run) runItems(ctx context.Context, items []item) {
	deadline := time.Now().Add(r.window)
passes:
	for pass := 1; ; pass++ {
		for _, i := range r.rng.Perm(len(items)) {
			if pass > 1 && r.tr == nil && time.Now().After(deadline) {
				break passes
			}
			it := items[i]
			if r.tr != nil {
				r.tr.pass = pass
				r.check(it.name, it.trace(ctx, r.tr))
				continue
			}
			t0 := time.Now()
			err := it.run(ctx)
			r.sample(it.name, time.Since(t0))
			r.check(it.name, err)
		}
		if time.Now().After(deadline) {
			break
		}
	}
	for _, it := range items {
		if it.verify != nil {
			r.check(it.name+" verify", it.verify(ctx))
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef declares one metric as BENCHMARK.json lists it. Per-layer
// metrics compute their value from the trace.
type metricDef struct {
	name, unit, better string
	value              func(t *tracer) float64
}

// endToEnd are the metrics of an untraced run; every workload reports
// all of them.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "pass_s", unit: "s", better: "lower"},
	{name: "item_geomean_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// endToEndValues computes the end-to-end metrics of a finished run.
func (r *run) endToEndValues() map[string]float64 {
	var meds []float64
	sum := 0.0
	for _, name := range r.order {
		m := median(r.lat[name])
		meds = append(meds, m)
		sum += m / 1000
	}
	pass := sum // items run one after another: a pass is their sum
	if len(r.passes) > 0 {
		pass = median(r.passes)
	}
	return map[string]float64{
		"setup_s":         median(r.setup),
		"pass_s":          pass,
		"item_geomean_ms": geomean(meds),
		"peak_rss_mb":     peakRSSMB(),
	}
}

// peakRSSMB is the process's peak resident set size. Linux reports
// Maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in its own child process")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the timed part of a run, in seconds")
	trace := flag.Int("trace", 0, "1 traces the run and reports per-layer metrics instead of end-to-end ones")
	out := flag.String("out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1, -trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "trace-"+w.name+".json")
	}
	os.Exit(runOne(w, *seed, *seconds, *trace == 1, *out))
}

// runOne runs one workload in this process and prints its result.
func runOne(w *workload, seed int64, seconds int, traced bool, out string) int {
	ctx := context.Background()
	r := newRun(seed, seconds, traced)
	fmt.Printf("workload %s  seed %d  window %ds  trace %v\n", w.name, seed, seconds, traced)
	if traced {
		if err := traceProbe(ctx, r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: probe: %v\n", err)
			return 2
		}
	}
	if err := w.run(ctx, r); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 2
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	if r.attempted == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s attempted nothing\n", w.name)
		return 2
	}
	if traced {
		layers, err := r.finishTrace(w.name, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{layers[d.name], d.unit}
			fmt.Printf("  %-28s %14.6g %s\n", d.name, layers[d.name], d.unit)
		}
	} else {
		vals := r.endToEndValues()
		r.printTimings()
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
			fmt.Printf("  %-16s %12.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	fmt.Printf("  error_rate %g (%d failed of %d attempted)\n",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printTimings prints each timing with its sample count, median and
// quartiles.
func (r *run) printTimings() {
	row := func(name, unit string, xs []float64) {
		q1, med, q3 := quartiles(xs)
		fmt.Printf("  %-24s n=%-4d median %10.4f  q1 %10.4f  q3 %10.4f %s\n", name, len(xs), med, q1, q3, unit)
	}
	row("setup", "s", r.setup)
	if len(r.passes) > 0 {
		row("pass", "s", r.passes)
	}
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	for _, n := range names {
		row(n, "ms", r.lat[n])
	}
	if len(r.jobLat) > 0 {
		// The service's own metrics. They are not in BENCHMARK.json,
		// whose end-to-end metrics every workload reports: the batch
		// workloads have no jobs.
		row("job latency", "ms", r.jobLat)
		fmt.Printf("  %-16s %12.6g ms (n=%d)\n", "p50_ms", median(r.jobLat), len(r.jobLat))
		for _, p := range []float64{0.9, 0.99} {
			if v, ok := percentile(r.jobLat, p); ok {
				fmt.Printf("  %-16s %12.6g ms (n=%d)\n", fmt.Sprintf("p%g_ms", p*100), v, len(r.jobLat))
			}
		}
		wall := 0.0
		for _, w := range r.passes {
			wall += w
		}
		fmt.Printf("  %-16s %12.6g 1/s\n", "jobs_per_s", float64(len(r.jobLat))/wall)
	}
}

// finishTrace computes the per-layer metrics of a traced run and writes
// its span file.
func (r *run) finishTrace(name, out string) (map[string]float64, error) {
	elapsed := time.Since(r.tr.t0)
	checks := r.tr.finish()
	layers := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		if d.value != nil {
			layers[d.name] = d.value(r.tr)
		}
	}
	layers["trace.overhead_pct"] = 100 * r.tr.overhead.Seconds() / elapsed.Seconds()
	for _, c := range checks {
		fmt.Printf("  children of %d %s spans cover %.2f%% of them (within ±%g%%: %v)\n",
			c.Spans, c.Name, 100*c.Covered, 100*coverTolerance, c.OK)
	}
	fmt.Printf("  %d spans in %d passes, kernel outputs match the stages: %v, tracing overhead %.3f%%\n",
		len(r.tr.spans), r.tr.pass, len(r.tr.mismatches) == 0, layers["trace.overhead_pct"])
	for _, m := range r.tr.mismatches {
		fmt.Printf("  kernel output differs: %s\n", m)
	}
	tf := &traceFile{
		Workload: name, Seed: r.seed, Passes: r.tr.pass,
		OverheadPct:  layers["trace.overhead_pct"],
		OutputsMatch: len(r.tr.mismatches) == 0, Mismatches: r.tr.mismatches,
		Checks: checks, Layers: layers, Spans: r.tr.spans,
	}
	if err := writeTrace(out, tf); err != nil {
		return nil, err
	}
	fmt.Printf("  wrote %s\n", out)
	return layers, nil
}

// runAll runs every workload in its own child process, so each has its
// own peak memory, and prints one combined result line.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Println(last)
		}
		waitErr := cmd.Wait()
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil || waitErr != nil {
			total.Correct = false
			code = max(code, 1)
			if err != nil {
				continue // no result line: the child already said why
			}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[w.name+"/"+k] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !total.Correct {
		code = max(code, 1)
	}
	return code
}

// layerTime is a per-layer time: the spans named span, summed per pass.
func layerTime(span string) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.layerSum(span) }
}

// layerCount is a per-layer count: attribute key of the spans named
// span, summed per pass.
func layerCount(span, key string) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.attrSum(span, key) }
}

// perLayer are the metrics of a traced run, grouped by the workload
// that exercises them; a layer the workload does not reach reads its
// value on the probe.
var perLayer = []metricDef{
	// flow_corpus
	{"verilog.parse_s", "s", "lower", layerTime("verilog.parse")},
	{"rtl.elaborate_s", "s", "lower", layerTime("rtl.elaborate")},
	{"core.filter_s", "s", "lower", layerTime("core.filter")},
	{"core.cluster_s", "s", "lower", layerTime("core.cluster")},
	{"core.characterize_s", "s", "lower", layerTime("core.characterize")},
	{"openfpga.synthesize_s", "s", "lower", layerTime("openfpga.synthesize")},
	{"techmap.map_s", "s", "lower", layerTime("techmap.map")},
	{"openfpga.size_search_s", "s", "lower", layerTime("openfpga.size_search")},
	{"core.select_s", "s", "lower", layerTime("core.select")},
	{"structural.analyze_s", "s", "lower", layerTime("structural.analyze")},
	{"core.redact_s", "s", "lower", layerTime("core.redact")},
	{"core.clusters", "count", "lower", layerCount("core.cluster", "clusters")},
	{"core.characterizations", "count", "lower", layerCount("core.characterize", "characterizations")},
	{"core.solutions", "count", "lower", layerCount("core.select", "solutions")},
	{"techmap.luts", "count", "lower", layerCount("techmap.map", "luts")},
	{"flow.alloc_mb", "MB", "lower", layerCount("flow.item", "alloc_mb")},
	// implement_corpus
	{"core.implement_s", "s", "lower", layerTime("core.implement")},
	{"pack.pack_s", "s", "lower", layerTime("pack.pack")},
	{"fabric.rrgraph_s", "s", "lower", layerTime("fabric.rrgraph")},
	{"place.place_s", "s", "lower", layerTime("place.place")},
	{"route.route_s", "s", "lower", layerTime("route.route")},
	{"bitstream.generate_s", "s", "lower", layerTime("bitstream.generate")},
	{"timing.sta_s", "s", "lower", layerTime("timing.sta")},
	{"openfpga.verify_bitstream_s", "s", "lower", layerTime("openfpga.verify_bitstream")},
	{"route.iterations", "count", "lower", layerCount("route.route", "iterations")},
	{"place.cost", "cost", "lower", layerCount("place.place", "cost")},
	{"bitstream.bits", "count", "lower", layerCount("bitstream.generate", "bits")},
	{"implement.alloc_mb", "MB", "lower", layerCount("implement.item", "alloc_mb")},
	// attack_fabrics
	{"attack.recover_s", "s", "lower", layerTime("attack.recover")},
	{"attack.verify_key_s", "s", "lower", layerTime("attack.verify_key")},
	{"attack.s_per_dip", "s/dip", "lower", func(t *tracer) float64 {
		return t.perPassRatio("attack.recover", "dip_heavy", spanDur, spanAttr("dips"))
	}},
	{"sat.mprops_per_s", "Mprops/s", "higher", func(t *tracer) float64 {
		return t.perPassRatio("attack.recover", "single_query", spanAttr("propagations"), spanDur) / 1e6
	}},
	{"attack.dips", "count", "lower", layerCount("attack.recover", "dips")},
	{"sat.conflicts", "count", "lower", layerCount("attack.recover", "conflicts")},
	{"sat.propagations", "count", "lower", layerCount("attack.recover", "propagations")},
	{"structural.effective_bits", "count", "higher", layerCount("structural.analyze", "effective_bits")},
	// serve_mix
	{"serve.submit_ms", "ms", "lower", spanMedianMS("serve.submit", nil)},
	{"jobq.queue_wait_ms", "ms", "lower", spanMedianMS("jobq.queue_wait", nil)},
	{"serve.hit_run_ms", "ms", "lower", spanMedianMS("serve.run", func(sp *span) bool { return sp.Attrs["cached"] == true })},
	{"serve.miss_run_ms", "ms", "lower", spanMedianMS("serve.run", func(sp *span) bool { return sp.Attrs["cached"] == false })},
	{"serve.memo_hits", "count", "higher", layerCount("serve.pass", "memo_hits")},
	{"serve.flow_runs", "count", "lower", layerCount("serve.pass", "flow_runs")},
	{"cache.mem_hit_ratio", "ratio", "higher", layerCount("serve.pass", "mem_hit_ratio")},
	{"store.puts", "count", "lower", layerCount("serve.pass", "puts")},
	{"store.log_bytes", "bytes", "lower", layerCount("serve.pass", "log_bytes")},
	// the trace itself
	{"trace.overhead_pct", "%", "lower", nil},
}

// spanMedianMS is a per-layer latency: the median duration of the spans
// named span that keep passes.
func spanMedianMS(span string, keep func(*span) bool) func(*tracer) float64 {
	return func(t *tracer) float64 { return t.spanMedianMS(span, keep) }
}
