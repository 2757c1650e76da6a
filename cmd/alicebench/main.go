// Command alicebench regenerates the tables and figures of the ALICE
// paper from the reconstructed benchmark suite.
//
// Usage:
//
//	alicebench -table 1            # Table 1: benchmark characteristics
//	alicebench -table 2 -cfg 1     # Table 2 under cfg1 (64 I/O, 2 eFPGAs)
//	alicebench -table 2 -cfg 2     # Table 2 under cfg2 (96 I/O, 1 eFPGA)
//	alicebench -figure 4           # Fig. 4: GCD area comparison
//	alicebench -attack             # SAT-attack cost vs key size (Sec. 2)
//	alicebench -arch [-design gcd] # fabric-family sweep: security vs overhead
//	alicebench -json               # benchmark sweep -> BENCH.json (deterministic results)
//	alicebench -compare BENCH.json # rerun the sweep; fail unless every row equals the baseline's
//	alicebench -shard -data DIR    # the -json sweep as resumable lease-owned units
//	alicebench -structural gcd     # per-fabric structural key analysis as JSON
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"alice"
	"alice/internal/celllib"
)

func main() {
	var (
		table   = flag.Int("table", 0, "regenerate a paper table (1 or 2)")
		figure  = flag.Int("figure", 0, "regenerate a paper figure (4)")
		cfgNum  = flag.Int("cfg", 1, "configuration for table 2")
		attack  = flag.Bool("attack", false, "run the SAT-attack scaling experiment")
		only    = flag.String("design", "", "restrict table 2 (or -arch, default gcd) to one design")
		archSw  = flag.Bool("arch", false, "sweep fabric families and report security vs overhead per family")
		jsonOut = flag.Bool("json", false, "run the benchmark sweep and write its deterministic results as JSON")
		outPath = flag.String("out", "BENCH.json", "output path for -json, -compare and -shard (required with -grid)")
		compare = flag.String("compare", "", "baseline BENCH.json: rerun the sweep and fail unless every row equals the baseline's")
		shard   = flag.Bool("shard", false, "run the -json sweep as resumable lease-owned units; any number of processes may share one -data dir, and re-running resumes after a crash")
		dataDir = flag.String("data", "bench-shards", "shared coordination/result directory for -shard")
		workers = flag.Int("workers", 0, "worker pool width for -shard (0 = GOMAXPROCS)")
		workID  = flag.String("worker-id", "", "stable worker identity for -shard (default w<pid>); reusing a crashed worker's id adopts its leases without waiting out the TTL")
		leaseT  = flag.Duration("lease-ttl", 10*time.Second, "lease TTL for -shard: a worker silent this long is presumed dead and its units are reclaimed")
		gridSel = flag.String("grid", "", "comma-separated unit-id prefixes restricting the -shard grid (e.g. attack:,structural:); needs -out")
		structD = flag.String("structural", "", "run the flow on one design and print its per-fabric structural key analysis as JSON")
	)
	flag.Parse()
	switch {
	case *structD != "":
		structuralRows(*structD)
	case *compare != "":
		compareBench(*compare, *outPath)
	case *shard:
		if *gridSel != "" && !flagSet("out") {
			// A partial sweep must never replace the committed baseline.
			fmt.Fprintln(os.Stderr, "alicebench: -grid runs part of the sweep; name its report with -out (the default, BENCH.json, is the full sweep's)")
			os.Exit(2)
		}
		runSharded(*dataDir, *workID, *workers, *leaseT, *gridSel, *outPath)
	case *archSw:
		d := *only
		if d == "" {
			d = "gcd"
		}
		runArchSweep(os.Stdout, d)
	case *jsonOut:
		benchJSON(*outPath)
	case *table == 1:
		table1()
	case *table == 2:
		table2(*cfgNum, *only)
	case *figure == 4:
		figure4()
	case *attack:
		attackScaling()
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func table1() {
	fmt.Println("Table 1: Characteristics of the selected benchmarks")
	fmt.Printf("%-8s %-10s %8s %10s %18s\n", "Suite", "Design", "Modules", "Instances", "I/O pins [min,max]")
	for _, b := range alice.Benchmarks() {
		c, err := alice.Characterize(b.Source())
		check(err)
		fmt.Printf("%-8s %-10s %8d %10d        [%d, %d]\n",
			b.Suite, b.Name, c.Modules, c.Instances, c.MinPins, c.MaxPins)
	}
}

func table2(cfgNum int, only string) {
	fmt.Printf("Table 2: ALICE results under cfg%d\n", cfgNum)
	fmt.Printf("%-10s %4s | %9s %3s | %9s %4s | %9s %7s %6s | %-12s %s\n",
		"Design", "Inst", "FiltTime", "|R|", "ClusTime", "|C|",
		"SelTime", "#valid", "|S|", "eFPGAs", "#redacted")
	ctx := context.Background()
	for _, b := range alice.Benchmarks() {
		if only != "" && b.Name != only {
			continue
		}
		var cfg *alice.Config
		if cfgNum == 1 {
			cfg = alice.Cfg1()
		} else {
			cfg = alice.Cfg2()
		}
		cfg.SelectedOutputs = b.SelectedOutputs
		eng := alice.NewEngine(alice.WithConfig(cfg))
		rep, err := eng.RunSource(ctx, b.Source())
		check(err)
		fmt.Println(rep.Row())
	}
}

func figure4() {
	fmt.Println("Figure 4: physical area of the two GCD solutions (model)")
	b, _ := alice.BenchmarkByName("gcd")
	ctx := context.Background()
	// One cache across both configurations: the GCD clusters are
	// characterized once and selected twice.
	cache := alice.NewCharacterizationCache()

	run := func(cfg *alice.Config, label string) {
		cfg.SelectedOutputs = b.SelectedOutputs
		eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithCache(cache))
		rep, err := eng.RunSource(ctx, b.Source())
		check(err)
		if rep.Err != nil {
			check(rep.Err)
		}
		var widths []int
		for _, f := range rep.Solution.Fabrics {
			widths = append(widths, f.Fabric.Arch.W)
		}
		area := celllib.SolutionArea(widths, celllib.GCDCoreArea)
		fmt.Printf("  %-22s fabrics %-12s -> %8.0f um^2\n", label, rep.FabricSizes, area)
	}
	run(alice.Cfg1(), "cfg1 (flow choice):")
	run(alice.Cfg2(), "cfg2 (flow choice):")

	fmt.Println("  calibration points (paper layouts):")
	two4 := celllib.SolutionArea([]int{4, 4}, celllib.GCDCoreArea)
	one5 := celllib.SolutionArea([]int{5}, celllib.GCDCoreArea)
	fmt.Printf("  %-22s              -> %8.0f um^2 (paper: 52,629)\n", "two 4x4:", two4)
	fmt.Printf("  %-22s              -> %8.0f um^2 (paper: 54,512)\n", "one 5x5:", one5)
	fmt.Printf("  ratio one-5x5 / two-4x4 = %.3f (paper: %.3f)\n", one5/two4, 54512.0/52629.0)
}

func attackScaling() {
	fmt.Println("SAT-attack cost vs configuration size (threat model, Sec. 2.1)")
	runAttackScaling(os.Stdout)
}

// structuralRows prints the per-fabric structural-analysis rows of one
// design's cfg1 solution as a JSON array on stdout — the CI smoke path
// asserting every fabric's effective key length is consistent.
func structuralRows(design string) {
	res, err := runStructuralFlowUnit(context.Background(), design)
	check(err)
	if len(res.Structural) == 0 {
		check(fmt.Errorf("design %s produced no solution fabrics to analyze", design))
	}
	data, err := json.MarshalIndent(res.Structural, "", "  ")
	check(err)
	fmt.Println(string(data))
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "alicebench:", err)
		os.Exit(1)
	}
}
