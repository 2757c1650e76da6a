package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// minRegressionSeconds filters measurement noise: an entry only counts
// as a regression when it is both >2x slower than the (speed-adjusted)
// baseline and slower by at least this much wall time.
const minRegressionSeconds = 0.25

// delayTolerance is the allowed relative growth of a deterministic
// model output (critical-path delay, attack distinguishing-input
// count) before it counts as a regression. These entries are
// reproducible engine outputs, not wall times, so no machine-speed
// normalization applies and the tolerance is tight; an intentional
// model or engine change re-baselines instead.
const delayTolerance = 1.05

// compareBench reruns the benchmark sweep and fails (exit 1) when any
// tracked kernel regressed by more than 2x wall time against the
// committed baseline, disappeared from the sweep entirely, or grew its
// modeled critical-path delay beyond the tolerance. This is the CI
// guard that keeps PR 2's hot-path wins (and now the timing story) from
// silently eroding.
func compareBench(baselinePath, outPath string, noWarmup bool) {
	data, err := os.ReadFile(baselinePath)
	check(err)
	var base benchReport
	check(json.Unmarshal(data, &base))
	if abs(outPath) == abs(baselinePath) {
		// -out defaults to BENCH.json; never clobber the baseline being
		// compared against (a silent re-baseline would defeat the gate).
		outPath = "BENCH.current.json"
		fmt.Printf("note: writing current sweep to %s to preserve the baseline\n", outPath)
	}

	benchJSON(outPath, noWarmup)
	cur, err := os.ReadFile(outPath)
	check(err)
	var now benchReport
	check(json.Unmarshal(cur, &now))

	res := compareReports(&base, &now)
	fmt.Print(res.text)
	if res.bad > 0 {
		check(fmt.Errorf("%d tracked kernels regressed, went missing, or blew their delay budget", res.bad))
	}
	fmt.Println("no regressions against", baselinePath)
}

// compareResult is the rendered outcome of one baseline comparison.
type compareResult struct {
	text string
	bad  int // regressed or missing tracked kernels (gate failures)
	new  int // kernels present now but absent from the baseline
}

// entry accumulates one tracked kernel on both sides of the comparison.
type entry struct {
	base, now float64
	seen      bool
	exact     bool   // deterministic model output: exact compare, no speed factor
	unit      string // display unit ("s" wall time, "ns" delay, "" counts)
}

// compareReports diffs two benchmark reports. It is pure (no I/O, no
// exit), so the comparison rules are unit-testable.
//
// Wall-time entries: the baseline may have been recorded on a different
// machine, so the per-kernel ratio is normalized by the suite's median
// now/base ratio (the machine-speed factor): a uniformly slower CI
// runner shifts every kernel equally and cancels out, while a single
// kernel regressing >2x beyond the rest still trips the gate.
//
// Delay entries (crit-path ns) are deterministic model outputs and are
// compared exactly, within delayTolerance.
//
// Kernels present in the current sweep but absent from the baseline —
// new benchmarks, or a renamed kernel whose old name simultaneously
// shows as MISSING — are reported explicitly but do not fail the gate;
// re-baseline to start tracking them.
func compareReports(base, now *benchReport) compareResult {
	tracked := make(map[string]*entry)
	key := func(kind, name, cfg string) string { return kind + ":" + name + ":" + cfg }
	add := func(k string, v float64, exact bool, unit string) {
		// Duplicate rows (e.g. the two fabrics of one solution sharing a
		// name) accumulate, mirroring fill() below, so both sides of the
		// comparison count them the same way. For exact entries the
		// design is bounded by its worst kernel, so duplicates keep the
		// max instead.
		if e, ok := tracked[k]; ok {
			if exact {
				if v > e.base {
					e.base = v
				}
			} else {
				e.base += v
			}
		} else {
			tracked[k] = &entry{base: v, exact: exact, unit: unit}
		}
	}
	collectBase := func(r *benchReport) {
		for _, d := range r.Designs {
			add(key("flow", d.Design, d.Cfg), d.WallSeconds, false, "s")
			if d.CritPathNs > 0 {
				add(key("delay", d.Design, d.Cfg), d.CritPathNs, true, "ns")
			}
		}
		for _, d := range r.Implement {
			add(key("pnr", d.Design, d.Fabric), d.WallSeconds, false, "s")
			if d.CritPathNs > 0 {
				add(key("delay-pnr", d.Design, d.Fabric), d.CritPathNs, true, "ns")
			}
		}
		for _, d := range r.Attacks {
			add(key("attack", d.Target, ""), d.WallSeconds, false, "s")
			if d.DIPs > 0 {
				add(key("attack-dips", d.Target, ""), float64(d.DIPs), true, "")
			}
		}
		for _, d := range r.FabricAttacks {
			add(key("attack-fab", d.Design, d.Fabric), d.WallSeconds, false, "s")
			if d.DIPs > 0 {
				add(key("attack-fab-dips", d.Design, d.Fabric), float64(d.DIPs), true, "")
			}
		}
		// Sim-throughput rows: per-million-pattern costs are
		// wall-derived (lower is better), gated like wall times — they
		// keep the bit-parallel engine's win from eroding silently.
		for _, d := range r.Sims {
			if d.ScalarSecPerM > 0 {
				add(key("sim-scalar", d.Design, ""), d.ScalarSecPerM, false, "s")
			}
			if d.WordSecPerM > 0 {
				add(key("sim-word", d.Design, ""), d.WordSecPerM, false, "s")
			}
		}
		// Structural rows: the counts are deterministic analysis
		// outputs, gated exactly. Effective key bits growing means the
		// analysis lost leak/dead coverage; seeded DIPs growing means
		// the seeding stopped paying — both are engine regressions.
		for _, d := range r.Structural {
			add(key("structural", d.Design, d.Fabric), d.WallSeconds, false, "s")
			if d.EffectiveKeyBits > 0 {
				add(key("structural-effkey", d.Design, d.Fabric), float64(d.EffectiveKeyBits), true, "")
			}
			if d.Attacked && d.SeededDIPs > 0 {
				add(key("structural-sdips", d.Design, d.Fabric), float64(d.SeededDIPs), true, "")
			}
		}
	}
	collectBase(base)

	unmatched := make(map[string]float64) // in current sweep, not in baseline
	fill := func(k string, v float64, exact bool) {
		e, ok := tracked[k]
		if !ok {
			if exact {
				if v > unmatched[k] {
					unmatched[k] = v
				}
			} else {
				unmatched[k] += v
			}
			return
		}
		if exact {
			if v > e.now {
				e.now = v
			}
		} else {
			e.now += v
		}
		e.seen = true
	}
	for _, d := range now.Designs {
		fill(key("flow", d.Design, d.Cfg), d.WallSeconds, false)
		if d.CritPathNs > 0 {
			fill(key("delay", d.Design, d.Cfg), d.CritPathNs, true)
		}
	}
	for _, d := range now.Implement {
		fill(key("pnr", d.Design, d.Fabric), d.WallSeconds, false)
		if d.CritPathNs > 0 {
			fill(key("delay-pnr", d.Design, d.Fabric), d.CritPathNs, true)
		}
	}
	for _, d := range now.Attacks {
		fill(key("attack", d.Target, ""), d.WallSeconds, false)
		if d.DIPs > 0 {
			fill(key("attack-dips", d.Target, ""), float64(d.DIPs), true)
		}
	}
	for _, d := range now.FabricAttacks {
		fill(key("attack-fab", d.Design, d.Fabric), d.WallSeconds, false)
		if d.DIPs > 0 {
			fill(key("attack-fab-dips", d.Design, d.Fabric), float64(d.DIPs), true)
		}
	}
	for _, d := range now.Sims {
		if d.ScalarSecPerM > 0 {
			fill(key("sim-scalar", d.Design, ""), d.ScalarSecPerM, false)
		}
		if d.WordSecPerM > 0 {
			fill(key("sim-word", d.Design, ""), d.WordSecPerM, false)
		}
	}
	for _, d := range now.Structural {
		fill(key("structural", d.Design, d.Fabric), d.WallSeconds, false)
		if d.EffectiveKeyBits > 0 {
			fill(key("structural-effkey", d.Design, d.Fabric), float64(d.EffectiveKeyBits), true)
		}
		if d.Attacked && d.SeededDIPs > 0 {
			fill(key("structural-sdips", d.Design, d.Fabric), float64(d.SeededDIPs), true)
		}
	}

	// Machine-speed factor: the lower median per-kernel wall-time ratio.
	// The lower median biases against masking (a regressed kernel's own
	// large ratio cannot drag the factor up past the suite's midpoint),
	// and tiny tracked sets — where any median IS the regressed kernel —
	// fall back to the same-machine assumption of factor 1.
	var ratios []float64
	for _, e := range tracked {
		if !e.exact && e.seen && e.base > 0 {
			ratios = append(ratios, e.now/e.base)
		}
	}
	factor := 1.0
	if len(ratios) >= 5 {
		sort.Float64s(ratios)
		factor = ratios[(len(ratios)-1)/2]
	}

	var b strings.Builder
	res := compareResult{}
	fmt.Fprintf(&b, "machine-speed factor (median ratio): %.2fx\n", factor)
	fmt.Fprintf(&b, "%-28s %10s %10s %7s\n", "kernel", "baseline", "current", "ratio")
	unit := func(e *entry) string { return e.unit }
	for _, k := range sortedEntryKeys(tracked) {
		e := tracked[k]
		ratio := 0.0
		if e.base > 0 {
			ratio = e.now / e.base
		}
		mark := ""
		switch {
		case !e.seen:
			mark = "  << MISSING from current sweep"
			res.bad++
		case e.exact && e.now > delayTolerance*e.base:
			mark = "  << DETERMINISTIC REGRESSION"
			res.bad++
		case !e.exact && e.now > 2*factor*e.base && e.now-factor*e.base > minRegressionSeconds:
			mark = "  << REGRESSION"
			res.bad++
		}
		fmt.Fprintf(&b, "%-28s %9.3f%-2s %8.3f%-2s %6.2fx%s\n", k, e.base, unit(e), e.now, unit(e), ratio, mark)
	}
	for _, k := range sortedEntryKeys(unmatched) {
		fmt.Fprintf(&b, "%-28s %10s %9.3f   << NEW (not in baseline, untracked)\n", k, "-", unmatched[k])
		res.new++
	}
	if res.new > 0 || res.bad > 0 {
		b.WriteString("\nre-baseline procedure: verify the change is intentional, run\n" +
			"`go run ./cmd/alicebench -json -out BENCH.json` on the reference\n" +
			"machine, review the diff, and commit the new BENCH.json. A MISSING\n" +
			"kernel paired with a NEW one usually means a rename — re-baseline\n" +
			"rather than losing its history silently.\n")
	}
	res.text = b.String()
	return res
}

// abs best-effort-normalizes a path for the baseline-clobber check.
func abs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

func sortedEntryKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
