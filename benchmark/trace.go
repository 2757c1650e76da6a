package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// coverTolerance is how far the children of a checked span may sum away
// from the span itself before the decomposition counts as broken.
const coverTolerance = 0.05

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call.
type span struct {
	ID     int            `json:"id"`
	Parent int            `json:"parent"` // 0 for a root span
	Name   string         `json:"name"`
	Pass   int            `json:"pass"`
	Start  float64        `json:"start_s"` // since the trace began
	Dur    float64        `json:"dur_s"`
	Self   float64        `json:"self_s"` // Dur minus the children's durations
	Attrs  map[string]any `json:"attrs,omitempty"`
	// Cover marks a span whose children are meant to account for all of
	// it: an item and its stages, or a stage and the kernels replaying it.
	Cover bool `json:"cover,omitempty"`

	t0 time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer is off:
// every method is a no-op. It is safe for concurrent use.
type tracer struct {
	t0   time.Time
	pass int // set by the run loop between items

	mu         sync.Mutex
	spans      []*span
	overhead   time.Duration // time spent inside the tracer itself
	mismatches []string      // kernel replays whose output differs from the stage's
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (nil for a root span).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	return t.add(parent, name, time.Now(), -1)
}

// add records a span that started at start and lasted dur (still open
// when dur is negative).
func (t *tracer) add(parent *span, name string, start time.Time, dur time.Duration, attrs ...any) *span {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &span{ID: len(t.spans) + 1, Name: name, Pass: t.pass, Start: start.Sub(t.t0).Seconds(), t0: start}
	if parent != nil {
		sp.Parent = parent.ID
	}
	if dur >= 0 {
		sp.Dur = dur.Seconds()
	}
	setAttrs(sp, attrs)
	t.spans = append(t.spans, sp)
	t.overhead += time.Since(now)
	return sp
}

// end closes sp and attaches attrs given as key, value pairs.
func (t *tracer) end(sp *span, attrs ...any) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.Dur = now.Sub(sp.t0).Seconds()
	setAttrs(sp, attrs)
	t.overhead += time.Since(now)
}

// endItem closes an item span and attaches the MiB the item allocated
// since a0 (from allocMB), read after the span ends so the read is not
// part of the item.
func (t *tracer) endItem(sp *span, name string, a0 float64) {
	t.end(sp, "item", name)
	a := t.allocMB() - a0
	t.mu.Lock()
	defer t.mu.Unlock()
	setAttrs(sp, []any{"alloc_mb", a})
}

func setAttrs(sp *span, attrs []any) {
	if len(attrs) == 0 {
		return
	}
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]any, len(attrs)/2)
	}
	for i := 0; i+1 < len(attrs); i += 2 {
		sp.Attrs[attrs[i].(string)] = attrs[i+1]
	}
}

// mismatch notes a kernel replay whose output differs from its stage's.
// It is reported, not failed: a legitimate optimization may change it.
func (t *tracer) mismatch(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mismatches = append(t.mismatches, fmt.Sprintf(format, args...))
}

// allocMB returns the bytes allocated so far, in MiB. ReadMemStats stops
// the world, so its cost is charged to the tracing overhead.
func (t *tracer) allocMB() float64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mu.Lock()
	t.overhead += time.Since(now)
	t.mu.Unlock()
	return float64(ms.TotalAlloc) / (1 << 20)
}

// coverCheck is the verdict on the spans of one name whose children
// should add up to them. Kernel children replay their stage after it,
// so one stage and its replay differ by the run-to-run noise of the
// same work (10-20% for a few milliseconds); the check therefore sums
// over every span of the name in the run.
type coverCheck struct {
	Name     string  `json:"name"`
	Spans    int     `json:"spans"`
	Dur      float64 `json:"dur_s"`
	Children float64 `json:"children_s"`
	Covered  float64 `json:"covered"` // children ÷ spans
	OK       bool    `json:"ok"`
}

// finish computes every span's self time and checks, per name, the
// decomposition of the Cover spans of the workload's own passes; the
// probe's are single samples, too noisy to check.
func (t *tracer) finish() []coverCheck {
	children := make(map[int]float64)
	for _, sp := range t.spans {
		if sp.Parent != 0 {
			children[sp.Parent] += sp.Dur
		}
	}
	byName := make(map[string]*coverCheck)
	var checks []*coverCheck
	for _, sp := range t.spans {
		sp.Self = sp.Dur - children[sp.ID]
		if !sp.Cover || sp.Pass == 0 {
			continue
		}
		c, ok := byName[sp.Name]
		if !ok {
			c = &coverCheck{Name: sp.Name}
			byName[sp.Name] = c
			checks = append(checks, c)
		}
		c.Spans++
		c.Dur += sp.Dur
		c.Children += children[sp.ID]
	}
	out := make([]coverCheck, len(checks))
	for i, c := range checks {
		if c.Dur > 0 {
			c.Covered = c.Children / c.Dur
		}
		c.OK = math.Abs(1-c.Covered) <= coverTolerance
		out[i] = *c
	}
	return out
}

// layerSum adds up, per pass, the duration of the spans named name and
// returns the median over passes.
func (t *tracer) layerSum(name string) float64 {
	return t.perPass(func(sp *span) (float64, bool) { return sp.Dur, sp.Name == name })
}

// attrSum adds up, per pass, the numeric attribute key of the spans
// named name and returns the median over passes.
func (t *tracer) attrSum(name, key string) float64 {
	return t.perPass(func(sp *span) (float64, bool) {
		v, ok := sp.Attrs[key]
		return toFloat(v), ok && sp.Name == name
	})
}

// perPass sums pick over the spans of each pass and returns the median
// of the per-pass sums. When no span of the workload's own passes is
// picked, the workload does not reach the layer, and the probe's pass 0
// stands in.
func (t *tracer) perPass(pick func(*span) (float64, bool)) float64 {
	sums := make([]float64, t.pass+1)
	reached := false
	for _, sp := range t.spans {
		if v, ok := pick(sp); ok {
			sums[sp.Pass] += v
			reached = reached || sp.Pass > 0
		}
	}
	if !reached {
		return sums[0]
	}
	return median(sums[1:])
}

// perPassRatio sums num and den over the spans named name whose
// attribute flag is true, divides the sums of each pass, and returns the
// median over passes, or the probe's ratio as perPass does.
func (t *tracer) perPassRatio(name, flag string, num, den func(*span) float64) float64 {
	nums := make([]float64, t.pass+1)
	dens := make([]float64, t.pass+1)
	for _, sp := range t.spans {
		if sp.Name == name && sp.Attrs[flag] == true {
			nums[sp.Pass] += num(sp)
			dens[sp.Pass] += den(sp)
		}
	}
	var ratios []float64
	for p := 1; p <= t.pass; p++ {
		if dens[p] > 0 {
			ratios = append(ratios, nums[p]/dens[p])
		}
	}
	if len(ratios) == 0 && dens[0] > 0 {
		return nums[0] / dens[0]
	}
	return median(ratios)
}

// spanMedianMS is the median duration, in ms, of the spans named name
// that keep passes (all of them when keep is nil), or of the probe's as
// perPass does.
func (t *tracer) spanMedianMS(name string, keep func(*span) bool) float64 {
	var own, probe []float64
	for _, sp := range t.spans {
		if sp.Name != name || (keep != nil && !keep(sp)) {
			continue
		}
		if sp.Pass > 0 {
			own = append(own, sp.Dur*1000)
		} else {
			probe = append(probe, sp.Dur*1000)
		}
	}
	if len(own) == 0 {
		return median(probe)
	}
	return median(own)
}

func spanDur(sp *span) float64 { return sp.Dur }

func spanAttr(key string) func(*span) float64 {
	return func(sp *span) float64 { return toFloat(sp.Attrs[key]) }
}

func toFloat(v any) float64 {
	switch x := v.(type) {
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// traceFile is what a traced run writes to its -out file.
type traceFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Passes       int                `json:"passes"`
	OverheadPct  float64            `json:"overhead_pct"`
	OutputsMatch bool               `json:"kernel_outputs_match"`
	Mismatches   []string           `json:"kernel_output_mismatches,omitempty"`
	Checks       []coverCheck       `json:"cover_checks"`
	Layers       map[string]float64 `json:"per_layer"`
	Spans        []*span            `json:"spans"`
}

func writeTrace(path string, tf *traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
