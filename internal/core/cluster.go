package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"alice/internal/rtl"
)

// Cluster is a set of independent module instances meant to share one
// eFPGA (an element of C in Algorithm 2).
type Cluster struct {
	Instances []*rtl.InstanceNode // sorted by path
	Pins      int                 // aggregated I/O pin count (paper semantics)
}

// Key returns a canonical identity for set-based deduplication.
func (c *Cluster) Key() string {
	paths := make([]string, len(c.Instances))
	for i, in := range c.Instances {
		paths[i] = in.Path
	}
	return strings.Join(paths, "\x00")
}

// Modules returns the distinct module names in the cluster, sorted.
func (c *Cluster) Modules() []string {
	seen := make(map[string]bool)
	var out []string
	for _, in := range c.Instances {
		if !seen[in.Module.Name] {
			seen[in.Module.Name] = true
			out = append(out, in.Module.Name)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the cluster as its instance list.
func (c *Cluster) String() string {
	paths := make([]string, len(c.Instances))
	for i, in := range c.Instances {
		paths[i] = in.Path
	}
	return "{" + strings.Join(paths, ", ") + "}"
}

// IdentifyClusters implements Algorithm 2: start from singleton
// clusters of every candidate instance and recombine pairs to a fixed
// point, keeping clusters whose aggregated pin count respects the
// designer limit and none of whose instances contains another (an eFPGA
// cannot host both a module and its own submodule). MaxClusters counts
// every cluster, singletons included.
//
// The closure is semi-naive over instance bitsets. Each admitted
// instance gets an index in first-seen order; each cluster keeps its
// member set and the set of instances nested with a member (their
// ancestors and descendants). Round r joins only the pairs that include
// a cluster found in round r-1: a pair of older clusters was joined in
// an earlier round with the same outcome. Pairs are visited in the
// (i, j) order of the full pairwise loop, so the clusters found, and the
// point where the budget fires, are the full loop's. The closure checks
// ctx once per outer row.
func IdentifyClusters(ctx context.Context, cands []Candidate, cfg *Config) ([]Cluster, error) {
	overBudget := func(n int) error {
		if cfg.MaxClusters > 0 && n > cfg.MaxClusters {
			return fmt.Errorf("%w: over %d clusters; tighten constraints", ErrClusterBudget, cfg.MaxClusters)
		}
		return nil
	}

	// Cluster i is row i of members and of nested (w words each) and
	// pins[i]. The singletons come first: instance k is cluster k, so
	// pins[k] is also instance k's pin count.
	var nodes []*rtl.InstanceNode
	var pins []int
	seen := make(map[string]bool)
	for _, cand := range cands {
		for _, in := range cand.Instances {
			if p := in.PinCount(); !seen[in.Path] && p <= cfg.MaxIOPins {
				seen[in.Path] = true
				nodes = append(nodes, in)
				pins = append(pins, p)
			}
		}
	}
	if err := overBudget(len(nodes)); err != nil {
		return nil, err
	}
	w := (len(nodes) + 63) / 64
	members := make([]uint64, len(nodes)*w)
	nested := make([]uint64, len(nodes)*w)
	for k, a := range nodes {
		members[k*w+k/64] |= 1 << (k % 64)
		prefix := a.Path + "."
		for l, b := range nodes {
			if strings.HasPrefix(b.Path, prefix) {
				nested[k*w+l/64] |= 1 << (l % 64)
				nested[l*w+k/64] |= 1 << (k % 64)
			}
		}
	}
	// index holds every cluster's member words, little-endian, as a
	// string: the set's identity for deduplication.
	index := make(map[string]struct{}, len(nodes))
	key := make([]byte, 8*w)
	setKey := func(set []uint64) {
		for x, word := range set {
			binary.LittleEndian.PutUint64(key[8*x:], word)
		}
	}
	for k := range nodes {
		setKey(members[k*w : (k+1)*w])
		index[string(key)] = struct{}{}
	}

	union := make([]uint64, w)
	for prev, n := 0, len(pins); prev < n; prev, n = n, len(pins) {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j := max(i+1, prev); j < n; j++ {
				a, na := members[i*w:(i+1)*w], nested[i*w:(i+1)*w]
				b, nb := members[j*w:(j+1)*w], nested[j*w:(j+1)*w]
				aGrows, bGrows, clash := false, false, false
				for x := range union {
					union[x] = a[x] | b[x]
					aGrows = aGrows || b[x]&^a[x] != 0
					bGrows = bGrows || a[x]&^b[x] != 0
					clash = clash || na[x]&b[x] != 0
				}
				if !aGrows || !bGrows || clash {
					continue // one side contains the other, or a member nests in the other side
				}
				p := pins[i]
				for x := range union {
					for d := b[x] &^ a[x]; d != 0; d &= d - 1 {
						p += pins[64*x+bits.TrailingZeros64(d)]
					}
				}
				if p > cfg.MaxIOPins {
					continue
				}
				setKey(union)
				if _, dup := index[string(key)]; dup {
					continue
				}
				index[string(key)] = struct{}{}
				members = append(members, union...)
				for x := range union {
					nested = append(nested, na[x]|nb[x])
				}
				pins = append(pins, p)
				if err := overBudget(len(pins)); err != nil {
					return nil, err
				}
			}
		}
	}

	byPath := make([]int, len(nodes))
	for k := range byPath {
		byPath[k] = k
	}
	sort.Slice(byPath, func(x, y int) bool { return nodes[byPath[x]].Path < nodes[byPath[y]].Path })
	clusters := make([]Cluster, len(pins))
	for i := range clusters {
		set := members[i*w : (i+1)*w]
		var insts []*rtl.InstanceNode
		for _, k := range byPath {
			if set[k/64]&(1<<(k%64)) != 0 {
				insts = append(insts, nodes[k])
			}
		}
		clusters[i] = Cluster{Instances: insts, Pins: pins[i]}
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i].Instances) != len(clusters[j].Instances) {
			return len(clusters[i].Instances) < len(clusters[j].Instances)
		}
		return clusters[i].Key() < clusters[j].Key()
	})
	return clusters, nil
}
