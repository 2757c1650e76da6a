package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"alice/internal/bench"
	"alice/internal/rtl"
)

// identifyClustersReference is the plain pairwise fixed point of
// Algorithm 2 that IdentifyClusters computes semi-naively: every round
// joins every pair of known clusters, and a round that finds nothing
// new ends the closure. It is the test oracle for IdentifyClusters,
// including the MaxClusters budget (singletons count against it).
func identifyClustersReference(ctx context.Context, cands []Candidate, cfg *Config) ([]Cluster, error) {
	var clusters []Cluster
	index := make(map[string]bool)
	for _, cand := range cands {
		for _, in := range cand.Instances {
			c := newCluster([]*rtl.InstanceNode{in})
			if c.Pins <= cfg.MaxIOPins && !index[c.Key()] {
				index[c.Key()] = true
				clusters = append(clusters, c)
			}
		}
	}
	budgetErr := fmt.Errorf("%w: over %d clusters; tighten constraints", ErrClusterBudget, cfg.MaxClusters)
	if cfg.MaxClusters > 0 && len(clusters) > cfg.MaxClusters {
		return nil, budgetErr
	}
	for {
		var fresh []Cluster
		n := len(clusters)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := i + 1; j < n; j++ {
				u := unionClusters(&clusters[i], &clusters[j])
				if len(u) == len(clusters[i].Instances) || len(u) == len(clusters[j].Instances) {
					continue // one contains the other; nothing new
				}
				c := newCluster(u)
				if c.Pins > cfg.MaxIOPins || !independent(c.Instances) || index[c.Key()] {
					continue
				}
				index[c.Key()] = true
				fresh = append(fresh, c)
				if cfg.MaxClusters > 0 && len(clusters)+len(fresh) > cfg.MaxClusters {
					return nil, budgetErr
				}
			}
		}
		if len(fresh) == 0 {
			break
		}
		clusters = append(clusters, fresh...)
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i].Instances) != len(clusters[j].Instances) {
			return len(clusters[i].Instances) < len(clusters[j].Instances)
		}
		return clusters[i].Key() < clusters[j].Key()
	})
	return clusters, nil
}

// newCluster builds a normalized cluster from instances.
func newCluster(insts []*rtl.InstanceNode) Cluster {
	sorted := append([]*rtl.InstanceNode(nil), insts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	pins := 0
	for _, in := range sorted {
		pins += in.PinCount()
	}
	return Cluster{Instances: sorted, Pins: pins}
}

// independent reports whether no instance in the set contains another.
func independent(insts []*rtl.InstanceNode) bool {
	for _, a := range insts {
		for _, b := range insts {
			if a != b && strings.HasPrefix(b.Path, a.Path+".") {
				return false
			}
		}
	}
	return true
}

// unionClusters merges two clusters into one instance set, a's members
// first.
func unionClusters(a, b *Cluster) []*rtl.InstanceNode {
	seen := make(map[string]bool)
	var out []*rtl.InstanceNode
	for _, in := range append(append([]*rtl.InstanceNode(nil), a.Instances...), b.Instances...) {
		if !seen[in.Path] {
			seen[in.Path] = true
			out = append(out, in)
		}
	}
	return out
}

// checkClosure runs IdentifyClusters and the reference on one input and
// requires the same clusters in the same order, or the same error.
func checkClosure(t *testing.T, name string, cands []Candidate, cfg *Config) {
	t.Helper()
	ctx := context.Background()
	want, wantErr := identifyClustersReference(ctx, cands, cfg)
	got, gotErr := IdentifyClusters(ctx, cands, cfg)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d clusters, reference %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: cluster %d is %s (%d pins), reference %s (%d pins)",
				name, i, got[i].String(), got[i].Pins, want[i].String(), want[i].Pins)
		}
	}
}

// TestIdentifyClustersMatchesReference compares the semi-naive bitset
// closure with the pairwise reference on every corpus design under cfg1
// and cfg2 candidates, across pin limits and cluster budgets.
func TestIdentifyClustersMatchesReference(t *testing.T) {
	for _, b := range bench.All() {
		d, df := elab(t, b.Source())
		for ci, base := range []*Config{Cfg1(), Cfg2()} {
			base.SelectedOutputs = b.SelectedOutputs
			fr, err := FilterModules(context.Background(), d, df, base)
			if err != nil {
				t.Fatalf("%s cfg%d: filter: %v", b.Name, ci+1, err)
			}
			for _, pins := range []int{8, 12, 14, 20, 40, 64, 96, 128, 200} {
				for _, budget := range []int{0, 2, 10, 50, 100_000} {
					cfg := *base
					cfg.MaxIOPins, cfg.MaxClusters = pins, budget
					checkClosure(t, fmt.Sprintf("%s cfg%d pins=%d budget=%d", b.Name, ci+1, pins, budget),
						fr.Candidates, &cfg)
				}
			}
		}
	}
}

// randomInstanceTree builds n instances below a root, each under the
// previous instance with probability deep and under a random earlier
// node otherwise, with width() pins each, and spreads them over
// candidates; some instances appear in two candidates, as shared
// submodules do.
func randomInstanceTree(rng *rand.Rand, n int, deep float64, width func() int) []Candidate {
	root := &rtl.InstanceNode{Name: "top", Path: "top"}
	nodes := []*rtl.InstanceNode{root}
	for i := 0; i < n; i++ {
		parent := nodes[len(nodes)-1]
		if rng.Float64() > deep {
			parent = nodes[rng.Intn(len(nodes))]
		}
		in := &rtl.InstanceNode{
			Name:   fmt.Sprintf("u%d", i),
			Path:   fmt.Sprintf("%s.u%d", parent.Path, i),
			Ports:  []rtl.PortInfo{{Name: "p", Width: width()}},
			Parent: parent,
		}
		parent.Children = append(parent.Children, in)
		nodes = append(nodes, in)
	}
	cands := make([]Candidate, 1+rng.Intn(4))
	for _, in := range nodes[1:] {
		c := &cands[rng.Intn(len(cands))]
		c.Instances = append(c.Instances, in)
		if rng.Intn(10) == 0 {
			c = &cands[rng.Intn(len(cands))]
			c.Instances = append(c.Instances, in)
		}
	}
	return cands
}

// TestIdentifyClustersRandomTrees compares the closure with the
// reference on random instance trees. Small trees mix any pin counts.
// Wide trees hold 65 to 154 instances, so bitsets span several words;
// most of their instances take more than half the pin limit, which
// keeps their closures small, and a few small ones join them.
func TestIdentifyClustersRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		cfg := Cfg1()
		n, deep := 2+rng.Intn(24), rng.Float64()
		width := func() int { return 1 + rng.Intn(16) }
		cfg.MaxIOPins = 4 + rng.Intn(48)
		cfg.MaxClusters = []int{1, 5, 40, 300}[rng.Intn(4)]
		if trial%2 == 0 {
			n = 65 + rng.Intn(90)
			width = func() int {
				if rng.Intn(n) < 5 {
					return 1 + rng.Intn(3)
				}
				return 7 + rng.Intn(6)
			}
			cfg.MaxIOPins = 12
			cfg.MaxClusters = []int{5, 2 * n, 4 * n}[rng.Intn(3)]
		}
		cands := randomInstanceTree(rng, n, deep, width)
		checkClosure(t, fmt.Sprintf("trial %d (%d instances, pins=%d, budget=%d)",
			trial, n, cfg.MaxIOPins, cfg.MaxClusters), cands, cfg)
	}
}

// TestClusterBudget checks that MaxClusters counts every cluster:
// singletons alone can exceed it, joins can, and a closure of exactly
// the budget passes.
func TestClusterBudget(t *testing.T) {
	b, _ := bench.ByName("gcd")
	d, df := elab(t, b.Source())
	base := Cfg1()
	base.SelectedOutputs = b.SelectedOutputs
	fr, err := FilterModules(context.Background(), d, df, base)
	if err != nil {
		t.Fatal(err)
	}
	// gcd's candidates are u_ctrl (12 pins), u_done (6) and u_sync (8):
	// at 12 pins no pair fits, so the closure is the three singletons.
	for _, tc := range []struct {
		name          string
		pins, budget  int
		wantClusters  int
		wantBudgetErr bool
	}{
		{"singletons over budget", 12, 2, 0, true},
		{"joins over budget", 64, 4, 0, true},
		{"exactly at budget", 12, 3, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := *base
			cfg.MaxIOPins, cfg.MaxClusters = tc.pins, tc.budget
			got, err := IdentifyClusters(context.Background(), fr.Candidates, &cfg)
			if tc.wantBudgetErr {
				if !errors.Is(err, ErrClusterBudget) {
					t.Fatalf("got %d clusters, err %v; want ErrClusterBudget", len(got), err)
				}
				return
			}
			if err != nil || len(got) != tc.wantClusters {
				t.Fatalf("got %d clusters, err %v; want %d clusters", len(got), err, tc.wantClusters)
			}
		})
	}
}
