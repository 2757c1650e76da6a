package core

import (
	"context"
	"reflect"
	"testing"

	"alice/internal/bench"
	"alice/internal/structural"
	"alice/internal/verilog"
)

// TestCharacterizedReportsAreFreshAnalyses checks that the structural
// report characterization stores on each fabric, and selection passes
// on, is exactly what a fresh analysis with the flow's seed yields, on
// every candidate of every corpus flow under cfg1 and cfg2.
func TestCharacterizedReportsAreFreshAnalyses(t *testing.T) {
	for _, b := range bench.All() {
		ast, err := verilog.Parse(b.Source())
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range []*Config{Cfg1(), Cfg2()} {
			cfg.SelectedOutputs = b.SelectedOutputs
			rep, err := RunPipeline(context.Background(), ast, cfg, RunOptions{Parallelism: 2})
			if err != nil {
				t.Fatalf("%s cfg%d: %v", b.Name, ci+1, err)
			}
			if rep.Selection == nil {
				continue // no candidates or clusters: nothing characterized
			}
			for i, c := range rep.Selection.Candidates {
				if c.Fabric == nil {
					continue
				}
				want, err := structural.Analyze(c.Fabric.LUTs, structural.Options{Seed: cfg.Seed})
				if err != nil {
					t.Fatalf("%s cfg%d candidate %d: %v", b.Name, ci+1, i, err)
				}
				if c.Structural != c.Fabric.Structural {
					t.Errorf("%s cfg%d candidate %d: selection's report is not the fabric's", b.Name, ci+1, i)
				}
				if !reflect.DeepEqual(c.Structural, want) {
					t.Errorf("%s cfg%d candidate %d: stored report %v, fresh analysis %v", b.Name, ci+1, i, c.Structural, want)
				}
			}
		}
	}
}

// characterizeGCD characterizes gcd's cfg1 clusters.
func characterizeGCD(t *testing.T, co CharacterizeOptions) (*Config, []FabricCandidate) {
	t.Helper()
	b, _ := bench.ByName("gcd")
	d, df := elab(t, b.Source())
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	fr, err := FilterModules(context.Background(), d, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := IdentifyClusters(context.Background(), fr.Candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := CharacterizeClusters(context.Background(), d, clusters, cfg, co)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, cands
}

// TestCachedCharacterizationKeepsReports checks that a second
// characterization through the same cache returns the reports the
// first one stored, without analyzing again.
func TestCachedCharacterizationKeepsReports(t *testing.T) {
	cache := NewCharacterizationCache()
	_, first := characterizeGCD(t, CharacterizeOptions{Parallelism: 2, Cache: cache})
	_, second := characterizeGCD(t, CharacterizeOptions{Parallelism: 2, Cache: cache})
	if hits, _, _ := cache.Stats(); hits != len(first) {
		t.Fatalf("second characterization hit the cache %d times, want %d", hits, len(first))
	}
	for i := range first {
		if first[i].Fabric == nil {
			continue
		}
		if first[i].Structural == nil {
			t.Fatalf("candidate %d: characterized fabric has no report", i)
		}
		if second[i].Structural != first[i].Structural {
			t.Errorf("candidate %d: cache hit returned another report", i)
		}
	}
}

// TestSelectReusesReports checks that selection over one candidate
// slice returns the same reports every time, and that a fabric without
// a report (a disk record written before characterization analyzed) is
// analyzed on the candidate copy with the same verdicts, leaving the
// shared fabric untouched.
func TestSelectReusesReports(t *testing.T) {
	cfg, cands := characterizeGCD(t, CharacterizeOptions{})
	s1, err := SelectEFPGAs(context.Background(), cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SelectEFPGAs(context.Background(), cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := make([]FabricCandidate, len(cands))
	for i, c := range cands {
		old[i] = FabricCandidate{Cluster: c.Cluster, Family: c.Family, Err: c.Err}
		if c.Fabric != nil {
			fab := *c.Fabric
			fab.Structural = nil
			old[i].Fabric = &fab
		}
	}
	s3, err := SelectEFPGAs(context.Background(), old, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if cands[i].Fabric == nil {
			continue
		}
		if !reflect.DeepEqual(s1.Candidates[i].Structural, s2.Candidates[i].Structural) {
			t.Errorf("candidate %d: two selections returned different reports", i)
		}
		if s3.Candidates[i].Structural == nil || !reflect.DeepEqual(s3.Candidates[i].Structural, s1.Candidates[i].Structural) {
			t.Errorf("candidate %d: a report-less fabric was analyzed to %v, want %v",
				i, s3.Candidates[i].Structural, s1.Candidates[i].Structural)
		}
		if old[i].Fabric.Structural != nil {
			t.Errorf("candidate %d: selection wrote a report onto the shared fabric", i)
		}
	}
	if s1.Best.FabricSizes() != s3.Best.FabricSizes() {
		t.Errorf("report-less fabrics selected %q, want %q", s3.Best.FabricSizes(), s1.Best.FabricSizes())
	}
}

// TestImplementKeepsReports checks that implementing the winning
// fabrics carries each characterized report over instead of analyzing
// again: the LUT network does not change.
func TestImplementKeepsReports(t *testing.T) {
	cfg, cands := characterizeGCD(t, CharacterizeOptions{})
	sel, err := SelectEFPGAs(context.Background(), cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]*structural.Report, len(sel.Best.Fabrics))
	for i, fc := range sel.Best.Fabrics {
		before[i] = fc.Fabric.Structural
	}
	if err := ImplementSolution(context.Background(), sel.Best, cfg, 1); err != nil {
		t.Fatal(err)
	}
	for i, fc := range sel.Best.Fabrics {
		if fc.Fabric.Bits == nil {
			t.Fatalf("fabric %d was not implemented", i)
		}
		if before[i] == nil || fc.Fabric.Structural != before[i] {
			t.Errorf("fabric %d: implemented fabric's report %p, characterized %p", i, fc.Fabric.Structural, before[i])
		}
	}
}
