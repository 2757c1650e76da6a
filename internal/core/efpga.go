package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"alice/internal/fabric"
	"alice/internal/openfpga"
	"alice/internal/rtl"
	"alice/internal/structural"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// designHash fingerprints the design's top name and full source (as
// printed from the elaborated AST), so characterization-cache entries
// never survive a logic change.
func designHash(d *rtl.Design) string {
	h := fnv.New64a()
	h.Write([]byte(d.Top.Name))
	h.Write([]byte{0})
	h.Write([]byte(verilog.Print(d.AST)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// sanitizePath turns a hierarchical instance path into an identifier
// fragment ("top.u_crp.sbox1" -> "u_crp_sbox1", dropping the root).
func sanitizePath(path string) string {
	if i := strings.IndexByte(path, '.'); i >= 0 {
		path = path[i+1:]
	}
	return strings.ReplaceAll(path, ".", "_")
}

// wrapperPortName names a wrapper/eFPGA data port for one instance port.
func wrapperPortName(inst *rtl.InstanceNode, port string) string {
	return sanitizePath(inst.Path) + "__" + port
}

// BuildClusterWrapper creates the top Verilog module that instantiates
// every member of a cluster (Sec. 6: "we create a top Verilog module
// that instantiates all independent modules"). Every member port is
// exposed as a prefixed wrapper port, so the wrapper's pin count equals
// the aggregated cluster pin count. Characterization synthesizes only
// one-instance wrappers and assembles each cluster's netlist from them,
// node for node as its own wrapper would synthesize.
func BuildClusterWrapper(c *Cluster, name string) *verilog.Module {
	m := &verilog.Module{Name: name}
	for _, inst := range c.Instances {
		prefix := sanitizePath(inst.Path)
		var conns []verilog.Connection
		for _, p := range inst.Ports {
			pn := wrapperPortName(inst, p.Name)
			var rng *verilog.Range
			if p.Width > 1 {
				rng = &verilog.Range{MSB: verilog.Num(uint64(p.Width - 1)), LSB: verilog.Num(0)}
			}
			m.Ports = append(m.Ports, &verilog.Port{Name: pn, Dir: p.Dir, Range: rng})
			conns = append(conns, verilog.Connection{Port: p.Name, Expr: verilog.ID(pn)})
		}
		var params []verilog.Connection
		for _, prm := range inst.Module.AST.Params {
			if prm.IsLocal {
				continue
			}
			if inst.Env[prm.Name] != inst.Module.Params[prm.Name] {
				params = append(params, verilog.Connection{
					Port: prm.Name,
					Expr: verilog.Num(uint64(inst.Env[prm.Name])),
				})
			}
		}
		m.Items = append(m.Items, &verilog.Instance{
			Module: inst.Module.Name,
			Name:   "u_" + prefix,
			Params: params,
			Conns:  conns,
		})
	}
	return m
}

// FabricCandidate couples a (cluster, fabric family) pair with its
// characterization outcome. With a single-family architecture space
// there is one candidate per cluster, as in the paper; a multi-family
// space yields one candidate per cluster per family, and selection
// picks across the whole grid.
type FabricCandidate struct {
	Cluster Cluster
	// Family is the fabric family the cluster was characterized
	// against (normalized).
	Family fabric.Params
	Fabric *openfpga.Fabric // nil when invalid
	Err    error            // why characterization failed
	// Score is the utilization reward used by the default ranking;
	// Slack is Eq. 1 exactly as printed in the paper (see select.go).
	Score float64
	Slack float64
	// Structural is the oracle-free structural analysis of the
	// programmed fabric (key-bit classification and effective key
	// length): the report characterization stored on the fabric. It is
	// nil only when the analysis failed; selection analyzes nothing.
	Structural *structural.Report
}

// Valid reports whether the eFPGA implementation is admissible: it
// exists and was not rejected by a selection-time constraint (e.g. the
// Fmax floor).
func (fc *FabricCandidate) Valid() bool { return fc.Fabric != nil && fc.Err == nil }

// CharacterizeOptions tunes the characterization stage.
type CharacterizeOptions struct {
	// Parallelism is the worker-pool width; values below 1 mean
	// sequential. The (cluster, family) characterizations are
	// independent, so any width produces the same candidates in the
	// same order.
	Parallelism int
	// Cache, when non-nil, memoizes per-cluster characterization across
	// runs and configurations (e.g. characterize once, select under
	// cfg1 and cfg2). Any Cache implementation works: the in-memory
	// CharacterizationCache, or a tiered memory-over-disk cache.
	Cache Cache
	// Progress, when non-nil, is called after each (cluster, family)
	// slot completes, one call at a time.
	Progress func(done, total int)
}

// CharacterizeClusters runs the eFPGA oracle (CreateEFPGA of Algorithm
// 3) on every candidate cluster, against every fabric family of the
// configuration's architecture space, fanning the independent
// (cluster, family) pairs out over a worker pool. The result is
// cluster-major, family-minor (candidate i*len(space)+f is cluster i
// under family f) regardless of parallelism.
//
// A cluster's wrapper netlist is the disjoint union of its members'
// netlists, and the same instances recur across many clusters. So each
// distinct (module, parameter environment) is synthesized and optimized
// once, through a one-instance wrapper, and mapped once per LUT size;
// each cluster's gate netlist and LUT network are assembled from those
// parts in exactly the node order its own wrapper would produce (see
// assembler), and families sharing a LUT size share the network. Each
// characterized fabric also gets its structural analysis (seeded with
// cfg.Seed, which the cache key covers) before it is cached, so a cache
// hit skips it too. It returns the context's error if the run is
// cancelled.
func CharacterizeClusters(ctx context.Context, d *rtl.Design, clusters []Cluster, cfg *Config, co CharacterizeOptions) ([]FabricCandidate, error) {
	space := cfg.archSpace()
	out := make([]FabricCandidate, len(clusters)*len(space))
	opts := openfpga.Options{
		MinW:         cfg.MinFabric,
		MaxW:         cfg.MaxFabric,
		FullPnR:      cfg.FullPnR,
		Seed:         cfg.Seed,
		RouteIters:   24,
		UnifyClocks:  true,
		TimingDriven: cfg.TimingDriven,
	}
	fp := ""
	if co.Cache != nil {
		// The key must identify the design by content, not just by top
		// name: a cache outliving one run (sweeps, RunBatch) would
		// otherwise serve stale fabrics for an edited design whose
		// hierarchy paths happen to match.
		fp = designHash(d) + "\x00" + cfg.characterizationFingerprint()
	}
	// The work unit is one (cluster, family) slot, so family-heavy
	// sweeps over few clusters still fill the pool. The slots share the
	// assembler's parts and each cluster's assembled netlist; the size
	// search never mutates a network.
	ks := make([]int, len(space))
	for f, fam := range space {
		ks[f] = fam.Normalized().LUTSize
	}
	asm := newAssembler(ctx, d, clusters, ks, opts)

	var (
		mu   sync.Mutex
		done int
	)
	one := func(slot int) {
		i, fam := slot/len(space), space[slot%len(space)]
		c := clusters[i]
		key := ""
		if co.Cache != nil {
			// The family parameters are part of the key: two arch-space
			// sweeps over the same design must not alias.
			key = c.Key() + "\x00" + fp + "\x00" + fmt.Sprintf("%+v", fam)
			if fab, err, ok := co.Cache.Lookup(key); ok {
				out[slot] = newCandidate(c, fam, fab, err)
				return
			}
		}
		n, err := asm.netlist(i)
		var fab *openfpga.Fabric
		if err == nil {
			var ln *techmap.LUTNetwork
			ln, err = asm.network(i, fam.Normalized().LUTSize)
			if err == nil {
				famOpts := opts
				famOpts.Params = fam
				fab, err = openfpga.CharacterizeLUTs(ctx, n, ln, c.Pins, famOpts)
			}
		}
		if fab != nil {
			fab.Structural, _ = structural.Analyze(fab.LUTs, structural.Options{Seed: cfg.Seed})
		}
		if ctx.Err() != nil {
			return // do not cache or report a cancellation artifact
		}
		if co.Cache != nil {
			co.Cache.Store(key, fab, err)
		}
		out[slot] = newCandidate(c, fam, fab, err)
	}

	ParallelFor(len(out), co.Parallelism, func(slot int) {
		if ctx.Err() != nil {
			return // drain
		}
		one(slot)
		if co.Progress != nil {
			mu.Lock()
			done++
			co.Progress(done, len(out))
			mu.Unlock()
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// newCandidate couples a characterization outcome with its cluster and
// family, taking the structural report from the fabric.
func newCandidate(c Cluster, fam fabric.Params, fab *openfpga.Fabric, err error) FabricCandidate {
	fc := FabricCandidate{Cluster: c, Family: fam, Fabric: fab, Err: err}
	if fab != nil {
		fc.Structural = fab.Structural
	}
	return fc
}
