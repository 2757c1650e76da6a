package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"alice"
	"alice/serve"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected values are Python's statistics.median and
	// statistics.quantiles(xs, n=4), which refuses a single sample.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{5, 1, 9, 3, 7, 2, 8, 4, 10, 6}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %g, want %g", c.xs, m, c.q2)
		}
	}
	if median(nil) != 0 {
		t.Error("median of no samples is not 0")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.9); ok {
		t.Error("p90 of 99 samples reported with only 9 beyond it")
	}
	xs = append(xs, 100)
	v, ok := percentile(xs, 0.9)
	if !ok || !near(v, 90.9) { // statistics.quantiles(range(1, 101), n=10)[8]
		t.Errorf("p90 of 1..100 = %g, %v; want 90.9, true", v, ok)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 100}); !near(g, 10) {
		t.Errorf("geomean(1, 100) = %g, want 10", g)
	}
	if g := geomean([]float64{2, 8, 4}); !near(g, 4) {
		t.Errorf("geomean(2, 8, 4) = %g, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Error("geomean of no samples is not 0")
	}
}

func flowCaseByName(t *testing.T, name string) flowCase {
	t.Helper()
	for _, fc := range flowCorpus {
		if fc.name() == name {
			return fc
		}
	}
	t.Fatalf("no flow case %s", name)
	return flowCase{}
}

func TestFlowItemGCD(t *testing.T) {
	ctx := context.Background()
	fc := flowCaseByName(t, "gcd/cfg1")
	if fc.want != (outcome{9, 54, 54, 664, "4x4, 3x3", 4, false}) {
		t.Fatalf("gcd cfg1 pin changed: %v", fc.want)
	}
	b, _ := alice.BenchmarkByName(fc.design)
	it := flowItem(fc, b)
	if err := it.run(ctx); err != nil {
		t.Fatalf("timed flow: %v", err)
	}
	if err := it.verify(ctx); err != nil {
		t.Fatalf("functional redaction: %v", err)
	}
	tr := newTracer()
	tr.pass = 1
	if err := it.trace(ctx, tr); err != nil {
		t.Fatalf("traced flow: %v", err)
	}
	if len(tr.mismatches) != 0 {
		t.Errorf("kernel replays differ from the stages: %v", tr.mismatches)
	}
	if got := tr.attrSum("core.characterize", "characterizations"); got != 54 {
		t.Errorf("traced characterizations = %g, want 54", got)
	}
	if got := tr.attrSum("core.select", "solutions"); got != 664 {
		t.Errorf("traced solutions = %g, want 664", got)
	}
}

// implementTrace traces one implement item of design.
func implementTrace(t *testing.T, design string, timingDriven bool) *tracer {
	t.Helper()
	ctx := context.Background()
	sol, cfg, err := winningSolution(ctx, design)
	if err != nil {
		t.Fatal(err)
	}
	c := *cfg
	c.TimingDriven = timingDriven
	it := implementItem(design, sol, &c)
	if err := it.run(ctx); err != nil {
		t.Fatalf("timed implement: %v", err)
	}
	tr := newTracer()
	tr.pass = 1
	if err := it.trace(ctx, tr); err != nil {
		t.Fatalf("traced implement: %v", err)
	}
	if len(tr.mismatches) != 0 {
		t.Errorf("kernel replays differ from the stage: %v", tr.mismatches)
	}
	return tr
}

func TestImplementItemGCD(t *testing.T) {
	for _, td := range []bool{false, true} {
		tr := implementTrace(t, "gcd", td)
		var bits []float64
		for _, sp := range tr.spans {
			if sp.Name == "bitstream.generate" {
				bits = append(bits, toFloat(sp.Attrs["bits"]))
			}
		}
		// The 4x4 and 3x3 fabrics of gcd's cfg1 solution.
		if len(bits) != 2 || bits[0] != 6176 || bits[1] != 3272 {
			t.Errorf("timing-driven %v: bitstream lengths %v, want 6176 and 3272", td, bits)
		}
	}
}

// TestUsbPhyFabricsTimedSeparately guards against one design's wall time
// being copied onto each of its fabrics: usb_phy's two 5x5 fabrics must
// get their own, non-overlapping spans.
func TestUsbPhyFabricsTimedSeparately(t *testing.T) {
	tr := implementTrace(t, "usb_phy", false)
	for _, name := range []string{"implement.fabric", "openfpga.verify_bitstream"} {
		var got []*span
		for _, sp := range tr.spans {
			if sp.Name == name {
				got = append(got, sp)
			}
		}
		if len(got) != 2 {
			t.Fatalf("%d %s spans, want 2", len(got), name)
		}
		a, b := got[0], got[1]
		if a.Attrs["fabric"] != 0 || b.Attrs["fabric"] != 1 {
			t.Errorf("%s spans are for fabrics %v and %v, want 0 and 1", name, a.Attrs["fabric"], b.Attrs["fabric"])
		}
		if a.Dur <= 0 || b.Dur <= 0 || a.Start+a.Dur > b.Start {
			t.Errorf("%s spans are not two separate calls: [%g +%g] and [%g +%g]", name, a.Start, a.Dur, b.Start, b.Dur)
		}
	}
}

func TestAttackItemGCD(t *testing.T) {
	ctx := context.Background()
	sol, _, err := winningSolution(ctx, "gcd")
	if err != nil {
		t.Fatal(err)
	}
	ac := attackCorpus[0]
	if ac.name() != "gcd/1" {
		t.Fatalf("first attack case is %s, want gcd/1", ac.name())
	}
	ln, err := ac.network(sol)
	if err != nil {
		t.Fatal(err)
	}
	o, err := attackOne(nil, nil, ac, ln)
	if err != nil {
		t.Fatal(err)
	}
	if !o.cracked || o.effectiveBits != 184 || o.dips > 1 {
		t.Errorf("gcd 3x3 attack: cracked %v, %d effective bits, %d DIPs; want cracked, 184, at most 1",
			o.cracked, o.effectiveBits, o.dips)
	}
}

// TestServeMissThenHits checks what serve_mix relies on: a request's
// first send runs the flow, a resend is answered from the memo with the
// same report bytes.
func TestServeMissThenHits(t *testing.T) {
	ctx := context.Background()
	t.Setenv("TMPDIR", t.TempDir())
	d, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close(ctx)
	body, _ := json.Marshal(serve.JobRequest{Bench: "gcd", ConfigYAML: "security:\n  key_weight: 0.5\n"})
	var first []byte
	for i := 0; i < 2; i++ {
		st, _, err := d.do(ctx, body)
		if err != nil {
			t.Fatal(err)
		}
		if st.Result == nil || st.Result.Cached != (i == 1) {
			t.Fatalf("send %d: state %s, result %+v", i, st.State, st.Result)
		}
		if i == 0 {
			first = st.Result.Report
		} else if string(first) != string(st.Result.Report) {
			t.Error("memo hit returned a different report")
		}
	}
}

func TestServeMixSplitsPairsByClient(t *testing.T) {
	reqs, err := serveMix(serveDesigns, serveKeyWeights(newRun(7, 1, false)))
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != len(serveDesigns)*2*serveWeights {
		t.Fatalf("%d requests, want %d", len(reqs), len(serveDesigns)*2*serveWeights)
	}
	client := map[string]int{}
	for _, q := range reqs {
		pair := q.name[:strings.LastIndex(q.name, "/w")]
		if c, ok := client[pair]; ok && c != q.client {
			t.Errorf("%s variants are split between clients", pair)
		}
		client[pair] = q.client
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	compare := func(kind string, got []metricJSON, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metricJSON{d.name, d.unit, d.better}) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
}
