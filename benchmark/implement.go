package main

import (
	"bytes"
	"context"
	"fmt"

	"alice"
	"alice/internal/bitstream"
	"alice/internal/fabric"
	"alice/internal/openfpga"
	"alice/internal/pack"
	"alice/internal/place"
	"alice/internal/route"
	"alice/internal/timing"
)

// implementDesigns are the designs whose cfg1 winning fabrics
// implement_corpus places and routes: seven fabrics from 3x3 to 13x13.
// des3 is left out: its set-up flow alone takes seconds, repeated for
// the set-up median it would not fit a run.
var implementDesigns = []string{"fir", "sha256", "sasc", "usb_phy", "gcd"}

// verifySteps is the bitstream co-simulation length (64 random patterns
// per step) after each implementation.
const verifySteps = 100

// implementRouteIters and placeTimingTradeoff mirror the library's
// implementation settings (core.ImplementSolution and openfpga), so the
// kernel replay reproduces the stage; a drift shows as a reported
// output mismatch, not a failure.
const (
	implementRouteIters = 32
	placeTimingTradeoff = 0.5
)

// runImplement is the implement_corpus workload. Set-up runs the
// fast-mode cfg1 flows; each item implements a fresh copy of one
// winning solution, in default or timing-driven mode, and verifies every
// bitstream against its LUT network.
func runImplement(ctx context.Context, r *run) error {
	sols := make(map[string]*alice.Solution)
	cfgs := make(map[string]*alice.Config)
	if err := r.timeSetup(func() error {
		for _, name := range implementDesigns {
			var err error
			if sols[name], cfgs[name], err = winningSolution(ctx, name); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var items []item
	for _, name := range implementDesigns {
		for _, td := range []bool{false, true} {
			cfg := *cfgs[name]
			cfg.TimingDriven = td
			items = append(items, implementItem(name, sols[name], &cfg))
		}
	}
	r.runItems(ctx, items)
	return nil
}

func implementItem(design string, base *alice.Solution, cfg *alice.Config) item {
	name := design + "/default"
	if cfg.TimingDriven {
		name = design + "/timing"
	}
	eng := alice.NewEngine(alice.WithConfig(cfg))
	return item{
		name: name,
		run: func(ctx context.Context) error {
			sol := copySolution(base)
			if err := eng.Implement(ctx, sol); err != nil {
				return err
			}
			for i, fc := range sol.Fabrics {
				if err := openfpga.VerifyBitstream(fc.Fabric, verifySteps, 1); err != nil {
					return fmt.Errorf("fabric %d: %w", i, err)
				}
			}
			return nil
		},
		trace: func(ctx context.Context, tr *tracer) error {
			a0 := tr.allocMB()
			it := tr.begin(nil, "implement.item")
			it.Cover = true
			sol := copySolution(base)
			st := tr.begin(it, "core.implement")
			st.Cover = true
			err := eng.Implement(ctx, sol)
			tr.end(st)
			if err != nil {
				tr.end(it, "item", name)
				return err
			}
			// Each fabric is verified, and later replayed, around its own
			// call, so two fabrics of one design never share a time.
			for i, fc := range sol.Fabrics {
				sp := tr.begin(it, "openfpga.verify_bitstream")
				err = openfpga.VerifyBitstream(fc.Fabric, verifySteps, 1)
				tr.end(sp, "fabric", i)
				if err != nil {
					tr.end(it, "item", name)
					return fmt.Errorf("fabric %d: %w", i, err)
				}
			}
			tr.endItem(it, name, a0)
			for i := range sol.Fabrics {
				if err := replayImplement(ctx, tr, st, i, base.Fabrics[i].Fabric, sol.Fabrics[i].Fabric, cfg); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// copySolution copies a solution deep enough that implementing it
// leaves the fast-mode original untouched: Implement replaces each
// candidate's fabric.
func copySolution(s *alice.Solution) *alice.Solution {
	c := &alice.Solution{Score: s.Score}
	for _, fc := range s.Fabrics {
		f := *fc
		c.Fabrics = append(c.Fabrics, &f)
	}
	return c
}

// replayImplement re-runs one fabric's implementation through the
// kernels openfpga.Implement calls, in its order, at the width the stage
// settled on, and compares placement cost, routing iterations and the
// bitstream with the stage's.
func replayImplement(ctx context.Context, tr *tracer, parent *span, i int, fast, impl *openfpga.Fabric, cfg *alice.Config) error {
	arch := impl.Arch
	fsp := tr.begin(parent, "implement.fabric")
	defer tr.end(fsp, "fabric", i, "arch", arch.Name())

	sp := tr.begin(fsp, "pack.pack")
	p, err := pack.Pack(fast.LUTs, arch)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("replay fabric %d: %w", i, err)
	}
	sp = tr.begin(fsp, "fabric.rrgraph")
	g := fabric.BuildRRGraph(arch)
	tr.end(sp)

	var popts place.Options
	if cfg.TimingDriven {
		sp = tr.begin(fsp, "timing.sta")
		popts.Timing = &place.TimingCost{Crit: timing.EstimatePacked(p).PlaceCrit(), Tradeoff: placeTimingTradeoff}
		tr.end(sp, "phase", "packed")
	}
	sp = tr.begin(fsp, "place.place")
	pl, err := place.PlaceOpts(ctx, p, cfg.Seed, popts)
	if err != nil {
		tr.end(sp)
		return fmt.Errorf("replay fabric %d: %w", i, err)
	}
	tr.end(sp, "cost", pl.Cost)

	var ropts route.Options
	if cfg.TimingDriven {
		sp = tr.begin(fsp, "timing.sta")
		dm := arch.DelayModel()
		ropts.Timing = &route.TimingCost{
			Crit:       timing.AnalyzePlaced(pl, g).RouteCrit(),
			NodeDelay:  g.NodeDelays(dm),
			DelayScale: float32(1 / dm.WireDelay),
		}
		tr.end(sp, "phase", "placed")
	}
	sp = tr.begin(fsp, "route.route")
	rt, err := route.RouteOpts(ctx, pl, g, implementRouteIters, ropts)
	if err == nil {
		err = rt.Validate()
	}
	if err != nil {
		tr.end(sp)
		return fmt.Errorf("replay fabric %d: %w", i, err)
	}
	tr.end(sp, "iterations", rt.Iterations)

	sp = tr.begin(fsp, "bitstream.generate")
	bits, err := bitstream.Generate(pl, rt)
	if err != nil {
		tr.end(sp)
		return fmt.Errorf("replay fabric %d: %w", i, err)
	}
	tr.end(sp, "bits", bits.N)

	sp = tr.begin(fsp, "timing.sta")
	timing.AnalyzeRouted(pl, rt)
	tr.end(sp, "phase", "routed")

	switch {
	case pl.Cost != impl.Placement.Cost:
		tr.mismatch("fabric %d %s: place cost %g, stage %g", i, arch.Name(), pl.Cost, impl.Placement.Cost)
	case rt.Iterations != impl.Routing.Iterations:
		tr.mismatch("fabric %d %s: %d route iterations, stage %d", i, arch.Name(), rt.Iterations, impl.Routing.Iterations)
	case !bytes.Equal(bits.B, impl.Bits.B):
		tr.mismatch("fabric %d %s: bitstream differs from the stage's", i, arch.Name())
	}
	return nil
}
