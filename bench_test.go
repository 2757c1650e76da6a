// Benchmarks regenerating every table and figure of the ALICE paper
// (DAC 2022) plus ablations of the flow's choices (score direction, I/O
// budget, Eq. 1 weights, fast vs full characterization). Each benchmark
// logs the regenerated rows so `go test -bench . -benchmem` doubles as
// an experiment harness.
package alice_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"alice"
	"alice/internal/attack"
	"alice/internal/celllib"
	"alice/internal/core"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// BenchmarkTable1Characteristics regenerates Table 1: benchmark
// characteristics (modules, instances, I/O pin range).
func BenchmarkTable1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range alice.Benchmarks() {
			c, err := alice.Characterize(bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Table1 %-8s %-10s modules=%d (paper %d) instances=%d (paper %d) pins=[%d,%d] (paper [%d,%d])",
					bm.Suite, bm.Name, c.Modules, bm.PaperModules, c.Instances, bm.PaperInstances,
					c.MinPins, c.MaxPins, bm.PaperMinPins, bm.PaperMaxPins)
			}
		}
	}
}

func runTable2(b *testing.B, mkcfg func() *alice.Config, label string) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		for _, bm := range alice.Benchmarks() {
			cfg := mkcfg()
			cfg.SelectedOutputs = bm.SelectedOutputs
			eng := alice.NewEngine(alice.WithConfig(cfg))
			rep, err := eng.RunSource(ctx, bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Table2 %s %s", label, rep.Row())
			}
		}
	}
}

// BenchmarkTable2Cfg1 regenerates Table 2 under cfg1 (64 I/O pins, up
// to two eFPGAs) for all seven designs.
func BenchmarkTable2Cfg1(b *testing.B) { runTable2(b, alice.Cfg1, "cfg1") }

// BenchmarkTable2Cfg2 regenerates Table 2 under cfg2 (96 I/O pins, one
// eFPGA) for all seven designs.
func BenchmarkTable2Cfg2(b *testing.B) { runTable2(b, alice.Cfg2, "cfg2") }

// BenchmarkFigure4AreaComparison regenerates the Fig. 4 comparison: the
// area of the two GCD solutions under the calibrated fabric model.
func BenchmarkFigure4AreaComparison(b *testing.B) {
	bm, _ := alice.BenchmarkByName("gcd")
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		var lines []string
		cache := alice.NewCharacterizationCache()
		for _, c := range []struct {
			label string
			cfg   *alice.Config
		}{{"cfg1", alice.Cfg1()}, {"cfg2", alice.Cfg2()}} {
			c.cfg.SelectedOutputs = bm.SelectedOutputs
			eng := alice.NewEngine(alice.WithConfig(c.cfg), alice.WithCache(cache))
			rep, err := eng.RunSource(ctx, bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
			var widths []int
			for _, f := range rep.Solution.Fabrics {
				widths = append(widths, f.Fabric.Arch.W)
			}
			area := celllib.SolutionArea(widths, celllib.GCDCoreArea)
			lines = append(lines, fmt.Sprintf("Figure4 %s: fabrics %-10s area %.0f um^2",
				c.label, rep.FabricSizes, area))
		}
		if i == 0 {
			for _, l := range lines {
				b.Log(l)
			}
			b.Logf("Figure4 calibration: two 4x4 = %.0f um^2 (paper 52629), one 5x5 = %.0f um^2 (paper 54512)",
				celllib.SolutionArea([]int{4, 4}, celllib.GCDCoreArea),
				celllib.SolutionArea([]int{5}, celllib.GCDCoreArea))
		}
	}
}

// BenchmarkAttackVsFabricSize runs the oracle-guided SAT attack on
// growing configurations (threat model of Sec. 2.1): key bits up, cost
// up.
func BenchmarkAttackVsFabricSize(b *testing.B) {
	targets := []struct {
		name string
		src  string
	}{
		{"xor2", `module t (input wire [1:0] a, output wire y);
  assign y = a[0] ^ a[1];
endmodule`},
		{"add4", `module t (input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);
  assign y = a + b;
endmodule`},
		{"mix6", `module t (input wire [5:0] a, input wire [5:0] k, output wire [5:0] y);
  assign y = (a + k) ^ {a[2:0], k[5:3]};
endmodule`},
	}
	for i := 0; i < b.N; i++ {
		for _, tgt := range targets {
			ast, err := verilog.Parse(tgt.src)
			if err != nil {
				b.Fatal(err)
			}
			d, err := rtl.Elaborate(ast, "")
			if err != nil {
				b.Fatal(err)
			}
			res, err := synth.Synthesize(d)
			if err != nil {
				b.Fatal(err)
			}
			ln, err := techmap.Map(opt.Optimize(res.Netlist))
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			ar, err := attack.RecoverBitstreamOpts(ln, attack.Options{MaxIters: 5000, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			if bad := attack.VerifyKey(ln, ar.Masks, 200, 2); bad != 0 {
				b.Fatalf("%s: wrong key", tgt.name)
			}
			if i == 0 {
				b.Logf("Attack %-6s key=%4d bits DIPs=%4d conflicts=%6d time=%s",
					tgt.name, ar.KeyBits, ar.Iterations, ar.Conflicts,
					time.Since(start).Round(time.Millisecond))
			}
		}
	}
}

// BenchmarkAblationScoreDirection compares the two readings of Eq. 1
// (reward-maximizing default vs literal slack-minimizing) on GCD cfg1.
func BenchmarkAblationScoreDirection(b *testing.B) {
	bm, _ := alice.BenchmarkByName("gcd")
	for i := 0; i < b.N; i++ {
		for _, dir := range []struct {
			name string
			d    core.ScoreDirection
		}{{"reward-max", alice.ScoreMaximize}, {"slack-min", alice.ScoreMinimize}} {
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = bm.SelectedOutputs
			cfg.Direction = dir.d
			rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Ablation score %-10s -> fabrics [%s], %d redacted",
					dir.name, rep.FabricSizes, rep.Redacted)
			}
		}
	}
}

// BenchmarkAblationMaxIOSweep sweeps the per-eFPGA I/O budget on GCD,
// showing how the candidate set, cluster count, and chosen fabrics move
// (the design-space knob of Sec. 7).
func BenchmarkAblationMaxIOSweep(b *testing.B) {
	bm, _ := alice.BenchmarkByName("gcd")
	for i := 0; i < b.N; i++ {
		for _, maxIO := range []int{32, 48, 64, 96, 128} {
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = bm.SelectedOutputs
			cfg.MaxIOPins = maxIO
			rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				sizes := rep.FabricSizes
				if rep.Err != nil {
					sizes = "(none)"
				}
				b.Logf("Ablation maxIO=%3d -> |R|=%2d |C|=%3d valid=%3d |S|=%4d fabrics [%s]",
					maxIO, rep.R, rep.C, rep.ValidEFPGAs, rep.S, sizes)
			}
		}
	}
}

// BenchmarkAblationAlphaBeta sweeps the Eq. 1 weights on GCD cfg2.
func BenchmarkAblationAlphaBeta(b *testing.B) {
	bm, _ := alice.BenchmarkByName("gcd")
	for i := 0; i < b.N; i++ {
		for _, w := range []struct{ a, bta float64 }{{1, 1}, {1, 0}, {0, 1}, {2, 1}} {
			cfg := alice.Cfg2()
			cfg.SelectedOutputs = bm.SelectedOutputs
			cfg.Alpha, cfg.Beta = w.a, w.bta
			rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.Logf("Ablation alpha=%.0f beta=%.0f -> fabrics [%s], %d redacted",
					w.a, w.bta, rep.FabricSizes, rep.Redacted)
			}
		}
	}
}

// BenchmarkAblationFastVsFullCharacterization compares fast-mode fabric
// sizing against full place&route + bitstream on SASC, checking the two
// modes agree on the chosen fabric.
func BenchmarkAblationFastVsFullCharacterization(b *testing.B) {
	bm, _ := alice.BenchmarkByName("sasc")
	for i := 0; i < b.N; i++ {
		var sizes [2]string
		for mode := 0; mode < 2; mode++ {
			cfg := alice.Cfg1()
			cfg.SelectedOutputs = bm.SelectedOutputs
			cfg.FullPnR = mode == 1
			rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), bm.Source())
			if err != nil {
				b.Fatal(err)
			}
			if rep.Err != nil {
				b.Fatal(rep.Err)
			}
			sizes[mode] = rep.FabricSizes
			if i == 0 {
				label := "fast"
				if mode == 1 {
					label = "full-pnr"
				}
				b.Logf("Ablation characterization %-8s -> fabrics [%s]", label, rep.FabricSizes)
			}
		}
		if sizes[0] != sizes[1] {
			b.Logf("note: fast and full characterization disagree: %s vs %s", sizes[0], sizes[1])
		}
	}
}

// BenchmarkCharacterizationParallelism measures the headline Engine
// speedup: DES3's independent clusters characterized sequentially vs
// across the worker pool (same solutions either way — see
// TestParallelCharacterizationEquivalence).
func BenchmarkCharacterizationParallelism(b *testing.B) {
	bm, _ := alice.BenchmarkByName("des3")
	ctx := context.Background()
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := alice.Cfg1()
				cfg.SelectedOutputs = bm.SelectedOutputs
				cfg.MaxIOPins = 36 // three-S-box clusters: 92 characterizations
				eng := alice.NewEngine(alice.WithConfig(cfg), alice.WithParallelism(par))
				rep, err := eng.RunSource(ctx, bm.Source())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Err != nil {
					b.Fatal(rep.Err)
				}
			}
		})
	}
}

// BenchmarkSynthesisPipeline measures the substrate itself: full
// synthesis down to mapped LUTs for the largest benchmark (DES3).
func BenchmarkSynthesisPipeline(b *testing.B) {
	bm, _ := alice.BenchmarkByName("des3")
	src := bm.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ast, err := verilog.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		d, err := rtl.Elaborate(ast, "")
		if err != nil {
			b.Fatal(err)
		}
		res, err := synth.Synthesize(d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := techmap.Map(opt.Optimize(res.Netlist)); err != nil {
			b.Fatal(err)
		}
	}
}
