package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func rep(designs []designBench, impl []implBench, attacks []attackBench) *benchReport {
	return &benchReport{Designs: designs, Implement: impl, Attacks: attacks}
}

// wantOneBad fails unless comparing now against base finds exactly one
// difference, reported on the line want.
func wantOneBad(t *testing.T, base, now *benchReport, want string) {
	t.Helper()
	text, bad := compareReports(base, now)
	if bad != 1 || !strings.Contains(text, want+"\n") {
		t.Fatalf("bad = %d, want 1 with %q\n%s", bad, want, text)
	}
}

// loadBaseline strictly decodes the committed BENCH.json.
func loadBaseline(t *testing.T) *benchReport {
	t.Helper()
	data, err := os.ReadFile("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := decodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCommittedBaselineMatchesSchema(t *testing.T) {
	base := loadBaseline(t)
	if base.SchemaVersion != benchSchemaVersion {
		t.Fatalf("BENCH.json has schema_version %d, want %d", base.SchemaVersion, benchSchemaVersion)
	}
	if text, bad := compareReports(base, loadBaseline(t)); bad != 0 {
		t.Fatalf("BENCH.json differs from itself in %d rows\n%s", bad, text)
	}
}

// Each case changes one field of the committed baseline, or drops or
// adds one row; the comparison must report exactly that row. The row
// indices follow the sweep's grid order, and the reported id checks
// that each index still points at the row the case names.
func TestCompareReportsCatchesEveryField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(r *benchReport)
		want   string
	}{
		{"des3_cfg1_solutions", func(r *benchReport) { r.Designs[0].Solutions++ }, "CHANGED flow:des3:cfg1"},
		{"iir_cfg1_error_cleared", func(r *benchReport) { r.Designs[2].Error = "" }, "CHANGED flow:iir:cfg1"},
		{"inv8_seeded_dips", func(r *benchReport) { r.Structural[5].SeededDIPs = 9 }, "CHANGED structural:inv8"},
		{"xor2_dips", func(r *benchReport) { r.Attacks[0].DIPs = 50 }, "CHANGED attack:xor2"},
		{"sasc_fabric_cracked", func(r *benchReport) { r.FabricAttacks[4].BudgetExhausted = false }, "CHANGED fabattack:sasc:8x8"},
		{"second_usb_phy_5x5_crit_path", func(r *benchReport) { r.Implement[3].CritPathNs *= 1.1 }, "CHANGED impl:usb_phy:5x5#2"},
		{"gcd_4x4_place_cost", func(r *benchReport) { r.Implement[0].PlaceCost++ }, "CHANGED impl:gcd:4x4"},
		{"row_missing", func(r *benchReport) { r.Attacks = r.Attacks[:len(r.Attacks)-1] }, "MISSING attack:inv8"},
		{"row_new", func(r *benchReport) { r.Attacks = append(r.Attacks, attackBench{Target: "xor3", KeyBits: 8}) }, "NEW     attack:xor3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			now := loadBaseline(t)
			c.mutate(now)
			wantOneBad(t, loadBaseline(t), now, c.want)
		})
	}
}

// A report of another schema fails even when its rows are equal.
func TestCompareReportsSchemaMismatch(t *testing.T) {
	wantOneBad(t, &benchReport{SchemaVersion: 5}, &benchReport{SchemaVersion: 6}, "SCHEMA  baseline 5, current 6")
}

func TestCompareReportsMissingKernel(t *testing.T) {
	base := rep([]designBench{{Design: "gcd", Cfg: "cfg1"}, {Design: "iir", Cfg: "cfg1"}}, nil, nil)
	now := rep([]designBench{{Design: "gcd", Cfg: "cfg1"}}, nil, nil)
	wantOneBad(t, base, now, "MISSING flow:iir:cfg1")
}

// A row added or renamed in the current sweep fails the gate: a grid
// change re-baselines in the same change. A rename shows as one
// MISSING and one NEW row.
func TestCompareReportsNewAndRenamedKernels(t *testing.T) {
	base := rep([]designBench{{Design: "oldname", Cfg: "cfg1"}}, nil, nil)
	now := rep([]designBench{{Design: "newname", Cfg: "cfg1"}, {Design: "extra", Cfg: "cfg1", Solutions: 9}}, nil, nil)
	text, bad := compareReports(base, now)
	if bad != 3 {
		t.Fatalf("bad = %d, want 3 (1 missing, 2 new)\n%s", bad, text)
	}
	for _, want := range []string{"MISSING flow:oldname:cfg1", "NEW     flow:newname:cfg1", "NEW     flow:extra:cfg1", "re-baseline procedure"} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}
}

// Modeled critical-path delays compare bit for bit: a change of one
// unit in the last place fails like a 50% growth.
func TestCompareReportsDelayRegression(t *testing.T) {
	mk := func(ns float64) *benchReport {
		return rep([]designBench{{Design: "gcd", Cfg: "cfg1", CritPathNs: ns}, {Design: "fir", Cfg: "cfg1"}}, nil, nil)
	}
	wantOneBad(t, mk(10), mk(15), "CHANGED flow:gcd:cfg1")
	wantOneBad(t, mk(10), mk(math.Nextafter(10, 11)), "CHANGED flow:gcd:cfg1")
}

// The distinguishing-input count of a corpus attack is a deterministic
// engine output, checked exactly; an equal fabric-attack row passes.
func TestCompareReportsAttackGates(t *testing.T) {
	mk := func(dips int) *benchReport {
		r := rep(nil, nil, []attackBench{{Target: "mix6", DIPs: dips}})
		r.FabricAttacks = []fabricAttackBench{{Design: "gcd", Fabric: "4x4", DIPs: 40}}
		return r
	}
	wantOneBad(t, mk(100), mk(160), "CHANGED attack:mix6")
}

// Structural rows are checked exactly too: effective key bits growing
// means the analysis lost leak/dead coverage, seeded DIPs growing means
// the seeding stopped paying.
func TestCompareReportsStructuralGates(t *testing.T) {
	mk := func(eff, sdips int) *benchReport {
		r := rep(nil, nil, nil)
		r.Structural = []structuralBench{
			{Design: "mix6", KeyBits: 100, EffectiveKeyBits: eff, Attacked: true, DIPs: 30, SeededDIPs: sdips},
			{Design: "gcd", Fabric: "3x3", KeyBits: 216, EffectiveKeyBits: 184, LeakedBits: 32},
		}
		return r
	}
	if text, bad := compareReports(mk(80, 20), mk(80, 20)); bad != 0 {
		t.Fatalf("identical structural rows flagged: bad=%d\n%s", bad, text)
	}
	wantOneBad(t, mk(80, 20), mk(95, 20), "CHANGED structural:mix6")
	wantOneBad(t, mk(80, 20), mk(80, 32), "CHANGED structural:mix6")
}
