package main

import (
	"context"
	"fmt"

	"alice"
)

// probeDesign is the design of the layer probe: the smallest design that
// reaches every layer, with two fabrics and a structural leak.
const probeDesign = "gcd"

// traceProbe traces, as pass 0, one gcd item of every workload before a
// traced run's own passes. A traced run reports every per-layer metric,
// but each workload reaches only its own layers, and a layer it never
// reaches would read 0 on every run; such a layer reads its value on the
// probe instead (see tracer.perPass).
func traceProbe(ctx context.Context, r *run) error {
	r.tr.pass = 0
	b, ok := alice.BenchmarkByName(probeDesign)
	if !ok {
		return fmt.Errorf("unknown design %s", probeDesign)
	}
	fc := flowCase{design: probeDesign, cfg: 1}
	for _, c := range flowCorpus {
		if c.design == fc.design && c.cfg == fc.cfg {
			fc = c
		}
	}
	r.check("probe "+fc.name(), flowItem(fc, b).trace(ctx, r.tr))

	sol, cfg, err := winningSolution(ctx, probeDesign)
	if err != nil {
		return err
	}
	r.check("probe implement", implementItem(probeDesign, sol, cfg).trace(ctx, r.tr))

	ac := attackCorpus[0]
	// The probe's one attack stands in for both kinds of attack item.
	ac.dipHeavy, ac.singleQuery = true, true
	ln, err := ac.network(sol)
	if err != nil {
		return err
	}
	r.check("probe attack", attackItem(ac, ln).trace(ctx, r.tr))

	// Two key weights, so that the second misses the memo but hits the
	// characterization cache.
	reqs, err := serveMix([]string{probeDesign}, []float64{0.25, 0.5})
	if err != nil {
		return err
	}
	return servePass(ctx, r, reqs)
}
