// Package openfpga is the eFPGA customization oracle of the redaction
// flow: given (a wrapper around) the module cluster to redact, it finds
// the smallest admissible fabric, optionally runs the full
// pack/place/route/bitstream implementation, and reports the I/O and
// CLB utilizations the selection score of the paper (Eq. 1) needs.
// It stands in for the OpenFPGA + Yosys + VPR toolchain of the paper.
package openfpga

import (
	"context"
	"fmt"
	"math/rand"

	"alice/internal/bitstream"
	"alice/internal/fabric"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/pack"
	"alice/internal/place"
	"alice/internal/route"
	"alice/internal/rtl"
	"alice/internal/structural"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/timing"
	"alice/internal/verilog"
)

// Options controls fabric characterization.
type Options struct {
	// MinW and MaxW bound the permitted fabric sizes (the "range of
	// permitted fabric sizes" of Sec. 6).
	MinW int
	MaxW int
	// Params selects the fabric family (LUT size, cluster shape,
	// channel-width policy) the size search instantiates. The zero value
	// is the paper's 4-LUT, 4-BLE family.
	Params fabric.Params
	// FullPnR enables placement, routing, and bitstream generation. The
	// fast mode (default) sizes fabrics from capacity and packing only,
	// which is what the big Table-2 sweeps use.
	FullPnR bool
	// Seed feeds the placement annealer.
	Seed int64
	// RouteIters bounds PathFinder negotiation rounds.
	RouteIters int
	// UnifyClocks treats all clock pins as one clock domain (used for
	// multi-module cluster wrappers).
	UnifyClocks bool
	// TimingDriven steers placement and routing by connection
	// criticality (from static timing analysis) instead of pure
	// wirelength/congestion. Off, the implementation is bit-identical
	// to the classic flow; timing is still analyzed and reported.
	TimingDriven bool
}

// timingTradeoff is the fraction of the annealer's cost carried by the
// criticality term in timing-driven mode (VPR's classic 0.5 blend).
const timingTradeoff = 0.5

// DefaultOptions returns the options used throughout the paper's
// evaluation: fabrics from 2x2 to 20x20, fast characterization.
func DefaultOptions() Options {
	return Options{MinW: 2, MaxW: 20, FullPnR: false, Seed: 1, RouteIters: 24}
}

// Fabric is a characterized eFPGA implementation of one module cluster.
type Fabric struct {
	Arch fabric.Arch
	// Pins is the aggregated I/O pin count charged to the cluster
	// (paper semantics: the sum over member modules).
	Pins int
	// Synthesis artifacts.
	Netlist *netlist.Netlist
	LUTs    *techmap.LUTNetwork
	Packing *pack.Packing
	// Full-P&R artifacts (nil in fast mode).
	RR        *fabric.RRGraph
	Placement *place.Placement
	Routing   *route.Result
	Bits      *bitstream.Bits
	// Timing is the static timing analysis of the implementation:
	// exact (routed wire delays) after Implement, a placement-free
	// estimate in fast mode. Never nil for a characterized fabric.
	Timing *timing.Report
	// Structural is the oracle-free structural analysis of the
	// programmed LUT network. The flow's characterization fills it in,
	// so the characterization cache carries it with the fabric; nil
	// when the fabric was characterized without it.
	Structural *structural.Report
	// Utilizations for the Eq. 1 score.
	IOUtil  float64
	CLBUtil float64
}

// ConfigBits returns the bitstream length (the attacker's key size):
// exact when the fabric was fully implemented, modeled otherwise.
func (f *Fabric) ConfigBits() int {
	if f.Bits != nil {
		return f.Bits.N
	}
	return f.Arch.ConfigBits()
}

// Characterize implements CreateEFPGA of Algorithm 3: synthesize the
// cluster wrapper named top, map it to the family's K-input LUTs, and
// search the smallest admissible fabric in [MinW, MaxW]. The
// fabric-range search checks ctx between candidate widths (and the
// place/route machinery underneath checks it in its own hot loops).
func Characterize(ctx context.Context, ast *verilog.Design, top string, pins int, o Options) (*Fabric, error) {
	n, err := Synthesize(ctx, ast, top, o)
	if err != nil {
		return nil, err
	}
	return CharacterizeNetlist(ctx, n, pins, o)
}

// Synthesize elaborates and synthesizes the module named top down to an
// optimized gate netlist — the family-independent front half of
// Characterize. Callers exploring an architecture space synthesize once
// and call CharacterizeNetlist per fabric family.
func Synthesize(ctx context.Context, ast *verilog.Design, top string, o Options) (*netlist.Netlist, error) {
	res, err := SynthesizeRaw(ctx, ast, top, o)
	if err != nil {
		return nil, err
	}
	return opt.Optimize(res.Netlist), nil
}

// SynthesizeRaw is Synthesize without the optimization: it returns the
// synthesis result itself, phase boundaries included, for callers that
// optimize the netlist their own way.
func SynthesizeRaw(ctx context.Context, ast *verilog.Design, top string, o Options) (*synth.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := rtl.Elaborate(ast, top)
	if err != nil {
		return nil, err
	}
	return synth.SynthesizeOpts(d, synth.Options{UnifyClocks: o.UnifyClocks})
}

// CharacterizeNetlist maps an optimized gate netlist onto the family's
// LUT size and searches the smallest admissible fabric — the
// family-dependent back half of Characterize.
func CharacterizeNetlist(ctx context.Context, n *netlist.Netlist, pins int, o Options) (*Fabric, error) {
	ln, err := MapNetlist(n, o.Params)
	if err != nil {
		return nil, err
	}
	return CharacterizeLUTs(ctx, n, ln, pins, o)
}

// MapNetlist technology-maps a gate netlist at the family's LUT size
// and prepares it for fabric implementation (constant outputs rewired
// to constant-generator LUTs). The mapping depends only on the LUT
// size, so callers sweeping several families that share a K can map
// once and call CharacterizeLUTs per family.
func MapNetlist(n *netlist.Netlist, p fabric.Params) (*techmap.LUTNetwork, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ln, err := techmap.MapK(n, p.Normalized().LUTSize)
	if err != nil {
		return nil, err
	}
	RewriteConstPOs(ln)
	return ln, nil
}

// CharacterizeLUTs searches the family's width range for the smallest
// admissible fabric of an already-mapped network. The network must
// have been mapped at the family's LUT size (MapNetlist).
func CharacterizeLUTs(ctx context.Context, n *netlist.Netlist, ln *techmap.LUTNetwork, pins int, o Options) (*Fabric, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := o.Params.Validate(); err != nil {
		return nil, err
	}
	if k := o.Params.Normalized().LUTSize; ln.K != k {
		return nil, fmt.Errorf("openfpga: network mapped at K=%d but family %s has K=%d",
			ln.K, o.Params.Name(), k)
	}
	return characterizeLUTs(ctx, n, ln, pins, o)
}

// characterizeLUTs searches the permitted fabric range for the smallest
// implementation of an already-mapped network.
func characterizeLUTs(ctx context.Context, n *netlist.Netlist, ln *techmap.LUTNetwork, pins int, o Options) (*Fabric, error) {
	if o.MinW < 1 {
		o.MinW = 1
	}
	params := o.Params.Normalized()
	var lastErr error
	for w := o.MinW; w <= o.MaxW; w++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		arch := params.At(w)
		if !arch.FitsIO(pins) {
			lastErr = fmt.Errorf("openfpga: %d pins exceed %s capacity %d", pins, arch.Name(), arch.IOCapacity())
			continue
		}
		if !arch.FitsLUTs(ln.NumLUTs(), ln.NumFFs()) {
			lastErr = fmt.Errorf("openfpga: %d LUTs exceed %s capacity %d", ln.NumLUTs(), arch.Name(), arch.LUTCapacity())
			continue
		}
		// Real I/O of the netlist must also fit (clock/reset handled by
		// dedicated networks, so only data pins count here).
		if len(ln.PIs)+len(ln.POs) > arch.IOCapacity() {
			lastErr = fmt.Errorf("openfpga: netlist I/O %d exceeds %s", len(ln.PIs)+len(ln.POs), arch.Name())
			continue
		}
		p, err := pack.Pack(ln, arch)
		if err != nil {
			lastErr = err
			continue
		}
		f := &Fabric{
			Arch:    arch,
			Pins:    pins,
			Netlist: n,
			LUTs:    ln,
			Packing: p,
			IOUtil:  float64(pins) / float64(arch.IOCapacity()),
			CLBUtil: float64(p.NumCLBs()) / float64(arch.CLBCount()),
		}
		if !o.FullPnR {
			// Copy the report out of the Analysis so the fabric (often
			// cached across runs) does not pin the STA's edge/criticality
			// scratch in memory.
			rep := timing.EstimatePacked(p).Report
			f.Timing = &rep
			return f, nil
		}
		if err := Implement(ctx, f, o); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue // try a larger fabric: more routing resources
		}
		return f, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("openfpga: empty fabric range [%d,%d]", o.MinW, o.MaxW)
	}
	return nil, fmt.Errorf("openfpga: no admissible fabric in [%dx%d, %dx%d]: %w",
		o.MinW, o.MinW, o.MaxW, o.MaxW, lastErr)
}

// Recharacterize reruns the fabric-size search for an already
// synthesized fabric, typically to upgrade a fast-mode result to a full
// implementation (possibly on a larger fabric if routing demands it).
// The fabric's own family overrides o.Params: the LUT network was
// mapped for that family's LUT size. The new fabric keeps the
// structural report, since its LUT network is the same.
func Recharacterize(ctx context.Context, f *Fabric, o Options) (*Fabric, error) {
	if o.MinW < f.Arch.W {
		o.MinW = f.Arch.W
	}
	o.Params = f.Arch.Params()
	nf, err := characterizeLUTs(ctx, f.Netlist, f.LUTs, f.Pins, o)
	if nf != nil {
		nf.Structural = f.Structural
	}
	return nf, err
}

// Implement runs placement, routing, and bitstream generation on a
// fast-characterized fabric, upgrading it in place. In timing-driven
// mode the placer minimizes criticality-weighted wirelength (seeded by
// a packing-level STA), the router blends congestion against delay per
// connection (seeded by a placement-level STA), and the final report
// carries the exact routed timing; the default mode produces the
// classic implementation bit for bit and still reports its timing.
func Implement(ctx context.Context, f *Fabric, o Options) error {
	g := fabric.BuildRRGraph(f.Arch)
	var popts place.Options
	if o.TimingDriven {
		popts.Timing = &place.TimingCost{
			Crit:     timing.EstimatePacked(f.Packing).PlaceCrit(),
			Tradeoff: timingTradeoff,
		}
	}
	pl, err := place.PlaceOpts(ctx, f.Packing, o.Seed, popts)
	if err != nil {
		return err
	}
	var ropts route.Options
	if o.TimingDriven {
		dm := f.Arch.DelayModel()
		ropts.Timing = &route.TimingCost{
			Crit:       timing.AnalyzePlaced(pl, g).RouteCrit(),
			NodeDelay:  g.NodeDelays(dm),
			DelayScale: float32(1 / dm.WireDelay),
		}
	}
	rt, err := route.RouteOpts(ctx, pl, g, o.RouteIters, ropts)
	if err != nil {
		return err
	}
	if err := rt.Validate(); err != nil {
		return err
	}
	bits, err := bitstream.Generate(pl, rt)
	if err != nil {
		return err
	}
	f.RR, f.Placement, f.Routing, f.Bits = g, pl, rt, bits
	rep := timing.AnalyzeRouted(pl, rt).Report
	f.Timing = &rep
	return nil
}

// VerifyBitstream decodes the generated bitstream back into a circuit
// and checks it against the mapped LUT network over random stimulus.
// This closes the loop: fabric + bitstream == redacted module.
func VerifyBitstream(f *Fabric, steps int, seed int64) error {
	if f.Bits == nil {
		return fmt.Errorf("openfpga: fabric has no bitstream (fast mode); call Implement first")
	}
	dec, err := bitstream.Decode(f.RR, f.Bits)
	if err != nil {
		return err
	}
	// Align decoded pad-ordered I/O with the original network's order.
	piPerm := make([]int, len(f.LUTs.PIs)) // original PI index -> decoded index
	decPI := make(map[string]int)
	for j, name := range dec.PINames {
		decPI[name] = j
	}
	for i, pi := range f.LUTs.PIs {
		pad := f.Placement.PIPad[pi]
		name := bitstream.PadName(pad.Tile, pad.Pin)
		j, ok := decPI[name]
		if !ok {
			// An unused input never appears in the decoded network; mark
			// it so stimulus for it is simply dropped.
			piPerm[i] = -1
			continue
		}
		piPerm[i] = j
	}
	poPerm := make([]int, len(f.LUTs.POs))
	decPO := make(map[string]int)
	for j, name := range dec.PONames {
		decPO[name] = j
	}
	for i := range f.LUTs.POs {
		pad := f.Placement.POPad[i]
		name := bitstream.PadName(pad.Tile, pad.Pin)
		j, ok := decPO[name]
		if !ok {
			return fmt.Errorf("openfpga: output %s missing from decoded fabric", f.LUTs.PONames[i])
		}
		poPerm[i] = j
	}

	// The sweep runs bit-parallel: each step drives 64 independent
	// random sequences through both machines (every lane of a word is
	// its own stimulus stream), so coverage is 64 patterns per network
	// walk. LUTSim remains the single-pattern reference elsewhere.
	r := rand.New(rand.NewSource(seed))
	s1 := techmap.NewLUTWordSim(f.LUTs)
	s2 := techmap.NewLUTWordSim(dec)
	s1.Reset()
	s2.Reset()
	in1 := make([]uint64, len(f.LUTs.PIs))
	in2 := make([]uint64, len(dec.PIs))
	for step := 0; step < steps; step++ {
		for i := range in1 {
			in1[i] = r.Uint64()
			if j := piPerm[i]; j >= 0 {
				in2[j] = in1[i]
			}
		}
		o1, err := s1.EvalChecked(in1)
		if err != nil {
			return fmt.Errorf("openfpga: mapped fabric rejects stimulus: %w", err)
		}
		s1.Advance()
		// The decoded network is derived from the bitstream, not from
		// the mapped network, so drive it through the checked entry
		// point: a PI-count mismatch is a decode diagnostic, not an
		// internal invariant.
		o2, err := s2.EvalChecked(in2)
		if err != nil {
			return fmt.Errorf("openfpga: decoded fabric rejects stimulus: %w", err)
		}
		s2.Advance()
		for i := range o1 {
			if o1[i] != o2[poPerm[i]] {
				return fmt.Errorf("openfpga: bitstream mismatch at step %d output %s",
					step, f.LUTs.PONames[i])
			}
		}
	}
	return nil
}

// RewriteConstPOs replaces constant primary outputs with constant-
// generator LUTs (a LUT whose sole input is the always-0 unused
// crossbar source), so every output pad has a routable driver. All
// outputs of one constant share one generator, appended after the
// network's nodes. MapNetlist applies it; a caller that builds a
// network from separately mapped parts applies it once to the whole.
func RewriteConstPOs(ln *techmap.LUTNetwork) {
	var c0LUT, c1LUT int32 = -1, -1
	mk := func(mask uint64) int32 {
		id := int32(len(ln.Nodes))
		ln.Nodes = append(ln.Nodes, techmap.LNode{
			Kind: techmap.LLUT, Mask: mask, In: []int32{constZeroNode(ln)},
		})
		return id
	}
	for i, po := range ln.POs {
		switch ln.Nodes[po].Kind {
		case techmap.LConst0:
			if c0LUT < 0 {
				c0LUT = mk(0x0000)
			}
			ln.POs[i] = c0LUT
		case techmap.LConst1:
			if c1LUT < 0 {
				c1LUT = mk(0x0001) // input stuck at 0 selects mask bit 0
			}
			ln.POs[i] = c1LUT
		}
	}
}

// constZeroNode finds the LConst0 node (index 0 by construction in both
// techmap and decode outputs, but search defensively).
func constZeroNode(ln *techmap.LUTNetwork) int32 {
	for i, n := range ln.Nodes {
		if n.Kind == techmap.LConst0 {
			return int32(i)
		}
	}
	return 0
}
