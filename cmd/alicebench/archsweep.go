package main

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"alice"
)

// archSweepFamilies is the fabric-family grid of the architecture
// sweep: the paper's K4N4 plus the LUT-size and cluster-size neighbours
// highlighted by "Not All Fabrics Are Created Equal".
var archSweepFamilies = []alice.ArchParams{
	{LUTSize: 3, BLEsPerCLB: 4},
	{LUTSize: 4, BLEsPerCLB: 4}, // the paper's fabric
	{LUTSize: 5, BLEsPerCLB: 4},
	{LUTSize: 6, BLEsPerCLB: 4},
	{LUTSize: 4, BLEsPerCLB: 8},
}

// runArchSweep redacts one benchmark once per fabric family and reports
// the security/overhead trade-off per family: the fabrics the flow
// picks, the bitstream length (the attacker's key), the utilizations,
// and the measured oracle-guided SAT-attack cost against the winning
// fabrics' functional configuration. The per-family attacks are
// independent, so they run concurrently across a worker pool while the
// rows print in grid order.
func runArchSweep(w io.Writer, designName string) {
	b, ok := alice.BenchmarkByName(designName)
	if !ok {
		check(fmt.Errorf("unknown benchmark %q", designName))
	}
	ctx := context.Background()
	fmt.Fprintf(w, "Architecture sweep on %s (cfg1 budgets)\n", b.Name)
	fmt.Fprintf(w, "%-6s %-16s %9s %7s %8s %9s %6s %10s %9s\n",
		"family", "fabrics", "key bits", "IOutil", "CLButil", "Fmax", "DIPs", "conflicts", "atk time")
	rows := make([]string, len(archSweepFamilies))
	var wg sync.WaitGroup
	for fi, fam := range archSweepFamilies {
		wg.Add(1)
		go func(fi int, fam alice.ArchParams) {
			defer wg.Done()
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = b.SelectedOutputs
			cfg.ArchSpace = []alice.ArchParams{fam}
			eng := alice.NewEngine(alice.WithConfig(cfg))
			rep, err := eng.RunSource(ctx, b.Source())
			check(err)
			if rep.Err != nil || rep.Solution == nil {
				rows[fi] = fmt.Sprintf("%-6s no admissible solution: %v", fam.Name(), rep.Err)
				return
			}
			keyBits, dips, conflicts := 0, 0, 0
			survived := false
			var io, clb, worstNs float64
			start := time.Now()
			for _, fc := range rep.Solution.Fabrics {
				keyBits += fc.Fabric.ConfigBits()
				io += fc.Fabric.IOUtil / float64(len(rep.Solution.Fabrics))
				clb += fc.Fabric.CLBUtil / float64(len(rep.Solution.Fabrics))
				if t := fc.Fabric.Timing; t != nil && t.CritPathNs > worstNs {
					worstNs = t.CritPathNs
				}
				// Attack the functional configuration of each winning fabric:
				// the LUT masks are the key the foundry attacker must recover.
				row, err := attackFabric(ctx, b.Name, fc.Fabric.Arch.Name(), fc.Fabric.LUTs)
				check(err)
				// Surviving the budget is the strongest row of the sweep.
				survived = survived || row.BudgetExhausted
				dips += row.DIPs
				conflicts += row.Conflicts
			}
			fmax := "-"
			if worstNs > 0 {
				fmax = fmt.Sprintf("%.0f MHz", 1000/worstNs)
			}
			dipsCol := fmt.Sprint(dips)
			if survived {
				dipsCol = ">" + dipsCol
			}
			rows[fi] = fmt.Sprintf("%-6s %-16s %9d %6.0f%% %7.0f%% %9s %6s %10d %9s%s",
				fam.Name(), rep.FabricSizes, keyBits, io*100, clb*100, fmax,
				dipsCol, conflicts, time.Since(start).Round(time.Millisecond),
				map[bool]string{true: "  (survived the attack budget)", false: ""}[survived])
		}(fi, fam)
	}
	wg.Wait()
	for _, r := range rows {
		fmt.Fprintln(w, r)
	}
}
