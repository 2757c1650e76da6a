// Command timing_sweep walks the security-vs-delay frontier of the
// timing-driven flow on one benchmark: it sweeps the selection's delay
// weight (gamma) across an architecture space, with and without
// criticality-driven place & route, and reports for each point the
// chosen fabrics, the key length the attacker faces (the bitstream
// bits, the headline security metric of the redaction threat model),
// and the exact routed Fmax — the trade-off surface "Not All Fabrics
// Are Created Equal" argues must be navigated, now with delay as a
// first-class axis. (For a measured SAT-attack cost per family, see
// `alicebench -arch`; at usb_phy's key sizes the live attack takes
// hours, so this sweep prices security by key bits.)
package main

import (
	"context"
	"fmt"
	"log"

	"alice"
)

func main() {
	const design = "usb_phy"
	b, ok := alice.BenchmarkByName(design)
	if !ok {
		log.Fatalf("unknown benchmark %q", design)
	}
	ctx := context.Background()

	// One characterization cache across the sweep: the delay weight only
	// changes selection, so every point of a given timing mode after the
	// first re-selects over cached fabrics.
	cache := alice.NewCharacterizationCache()
	space := []alice.ArchParams{
		{LUTSize: 3, BLEsPerCLB: 4},
		{LUTSize: 4, BLEsPerCLB: 4},
		{LUTSize: 5, BLEsPerCLB: 4},
		{LUTSize: 6, BLEsPerCLB: 8},
		{LUTSize: 4, BLEsPerCLB: 4, ChannelWidth: 8}, // narrow channels: cheaper key, slower wires
	}

	fmt.Printf("security-vs-delay frontier on %s (cfg1 budgets, arch space of %d families)\n\n", design, len(space))
	fmt.Printf("%-7s %-7s %-24s %9s %9s\n", "gamma", "timing", "fabrics", "key bits", "Fmax")

	for _, td := range []bool{false, true} {
		for _, gamma := range []float64{0, 0.5, 1, 2} {
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = b.SelectedOutputs
			cfg.DelayWeight = gamma
			cfg.TimingDriven = td
			cfg.ArchSpace = space
			eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithCache(cache))
			rep, err := eng.RunSource(ctx, b.Source())
			if err != nil {
				log.Fatal(err)
			}
			if rep.Err != nil || rep.Solution == nil {
				fmt.Printf("%-7.1f %-7v no admissible solution: %v\n", gamma, td, rep.Err)
				continue
			}
			// Implement the winners so Fmax is the exact routed value.
			if err := eng.Implement(ctx, rep.Solution); err != nil {
				log.Fatal(err)
			}
			keyBits, worstNs := 0, 0.0
			for _, fc := range rep.Solution.Fabrics {
				keyBits += fc.Fabric.ConfigBits()
				if t := fc.Fabric.Timing; t != nil && t.CritPathNs > worstNs {
					worstNs = t.CritPathNs
				}
			}
			fmt.Printf("%-7.1f %-7v %-24s %9d %6.0fMHz\n",
				gamma, td, rep.FabricSizes, keyBits, 1000/worstNs)
		}
	}

	fmt.Println("\nReading the frontier: gamma=0 rows reproduce the paper's")
	fmt.Println("utilization-only choice; growing gamma steers selection toward")
	fmt.Println("faster (here: larger-key) fabric sets, and timing=true buys extra")
	fmt.Println("Fmax at identical security by steering place & route instead of")
	fmt.Println("the selection.")
}
