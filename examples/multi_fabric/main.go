// multi_fabric demonstrates architecture-space redaction: the same
// design is redacted under different fabric families (LUT size K,
// BLEs/CLB N), and the flow picks different winning fabrics per family
// — the security/overhead lever of "Not All Fabrics Are Created Equal",
// layered on the ALICE flow.
//
// Part 1 clusters DES3 S-boxes into shared eFPGAs under three
// arch-space configurations and shows that the winning fabrics (and the
// bits-of-key the attacker must recover) differ per family. Part 2
// measures oracle-guided SAT-attack cost against GCD's winning fabrics
// for the fast-to-attack families, showing that attack resilience is
// NOT monotonic in key bits: the fabric family matters. (Run
// `alicebench -arch` for the full sweep including the slow-to-attack
// families K4N4 and K4N8, whose attacks run minutes — the point of the
// paper's security argument.)
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"alice"
	"alice/internal/attack"
)

func main() {
	ctx := context.Background()

	// Part 1: DES3 S-box clustering under three architecture spaces.
	fmt.Println("== DES3: winning fabrics per architecture space ==")
	b, _ := alice.BenchmarkByName("des3")
	spaces := []struct {
		name     string
		families []alice.ArchParams
	}{
		{"paper fabric {K4N4}", nil}, // empty space = the default family
		{"small LUTs  {K3N4}", []alice.ArchParams{{LUTSize: 3}}},
		{"open grid   {K3N4,K4N4,K5N4,K4N8}", []alice.ArchParams{
			{LUTSize: 3}, {LUTSize: 4}, {LUTSize: 5}, {LUTSize: 4, BLEsPerCLB: 8},
		}},
	}
	seen := map[string]bool{}
	for _, sp := range spaces {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		// Keep the exploration small for this demo: clusters of at most
		// three S-boxes (36 aggregated pins).
		cfg.MaxIOPins = 36
		cfg.ArchSpace = sp.families
		eng := alice.NewEngine(
			alice.WithConfig(cfg),
			alice.WithParallelism(runtime.GOMAXPROCS(0)),
		)
		rep, err := eng.RunSource(ctx, b.Source())
		if err != nil {
			log.Fatal(err)
		}
		if rep.Err != nil {
			log.Fatal(rep.Err)
		}
		keyBits := 0
		for _, f := range rep.Solution.Fabrics {
			keyBits += f.Fabric.ConfigBits()
		}
		seen[rep.FabricSizes] = true
		fmt.Printf("  %-36s -> fabrics [%s], key %d bits, %d redacted S-boxes\n",
			sp.name, rep.FabricSizes, keyBits, rep.Redacted)

		// The redaction itself is family-independent plumbing: verify the
		// functional model co-simulates for the widest space too.
		if sp.families != nil && len(sp.families) == 4 {
			ast, err := alice.Parse(b.Source())
			if err != nil {
				log.Fatal(err)
			}
			d, err := eng.Elaborate(ctx, ast)
			if err != nil {
				log.Fatal(err)
			}
			red, err := eng.Redact(ctx, d, rep.Solution, true)
			if err != nil {
				log.Fatal(err)
			}
			if err := alice.VerifyRedaction(b.Source(), red, 200, 9); err != nil {
				log.Fatal(err)
			}
			fmt.Println("     co-simulation: redacted DES3 == original ✔")
		}
	}
	if len(seen) > 1 {
		fmt.Printf("  %d distinct winning-fabric sets across the arch spaces ✔\n", len(seen))
	}

	// Part 2: measured SAT-attack cost per family on GCD's winners.
	fmt.Println()
	fmt.Println("== GCD: per-family attack resilience (fast families) ==")
	fmt.Printf("  %-6s %-22s %9s %6s %11s %9s\n",
		"family", "fabrics", "key bits", "DIPs", "conflicts", "time")
	g, _ := alice.BenchmarkByName("gcd")
	for _, fam := range []alice.ArchParams{{LUTSize: 3}, {LUTSize: 5}, {LUTSize: 6}} {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = g.SelectedOutputs
		cfg.ArchSpace = []alice.ArchParams{fam}
		eng := alice.NewEngine(alice.WithConfig(cfg))
		rep, err := eng.RunSource(ctx, g.Source())
		if err != nil {
			log.Fatal(err)
		}
		if rep.Err != nil {
			log.Fatal(rep.Err)
		}
		keyBits, dips, conflicts := 0, 0, 0
		start := time.Now()
		for _, fc := range rep.Solution.Fabrics {
			keyBits += fc.Fabric.ConfigBits()
			// A fabric that survives the budget is the strongest row.
			v, err := attack.Evaluate(ctx, fc.Fabric.LUTs, attack.Options{
				MaxIters: 20000, Seed: 1, MaxConflicts: 250_000,
			})
			if err != nil {
				log.Fatal(err)
			}
			dips += v.DIPs
			conflicts += v.Conflicts
		}
		fmt.Printf("  %-6s %-22s %9d %6d %11d %9s\n",
			fam.Name(), rep.FabricSizes, keyBits, dips, conflicts,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println("  (key bits and attack cost move independently: fabric choice is a real lever)")
}
