package core

import (
	"context"
	"testing"

	"alice/internal/bench"
	"alice/internal/structural"
)

// characterizeGCD characterizes gcd's cfg1 clusters.
func characterizeGCD(t *testing.T, co CharacterizeOptions) (*Config, []FabricCandidate) {
	t.Helper()
	b, _ := bench.ByName("gcd")
	cfg := Cfg1()
	d, clusters := paperClusters(t, b, cfg)
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

// TestSelectReusesReports checks that selection passes on the very
// reports characterization made, every time it runs over one candidate
// slice, and analyzes nothing itself: a candidate without a report,
// which characterization never produces, stays without one.
func TestSelectReusesReports(t *testing.T) {
	cfg, cands := characterizeGCD(t, CharacterizeOptions{})
	bare := make([]FabricCandidate, len(cands))
	for i, c := range cands {
		bare[i] = c
		bare[i].Structural = nil
	}
	var sels []*SelectionResult
	for _, in := range [][]FabricCandidate{cands, cands, bare} {
		sel, err := SelectEFPGAs(context.Background(), in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sels = append(sels, sel)
	}
	for i := range cands {
		if cands[i].Fabric == nil {
			continue
		}
		if cands[i].Structural == nil {
			t.Fatalf("candidate %d: characterized fabric has no report", i)
		}
		for s := 0; s < 2; s++ {
			if sels[s].Candidates[i].Structural != cands[i].Structural {
				t.Errorf("selection %d, candidate %d: report is not characterization's", s+1, i)
			}
		}
		if sels[2].Candidates[i].Structural != nil {
			t.Errorf("candidate %d: selection analyzed a report-less fabric", i)
		}
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
