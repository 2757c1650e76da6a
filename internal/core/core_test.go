package core

import (
	"context"
	"strings"
	"testing"

	"alice/internal/bench"
	"alice/internal/rtl"
	"alice/internal/verilog"
)

func elab(t *testing.T, src string) (*rtl.Design, *rtl.Dataflow) {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	df, err := rtl.NewDataflow(context.Background(), d)
	if err != nil {
		t.Fatalf("dataflow: %v", err)
	}
	return d, df
}

// runFlow runs the flow on a parsed design sequentially.
func runFlow(ast *verilog.Design, cfg *Config) (*Report, error) {
	return RunPipeline(context.Background(), ast, cfg, RunOptions{Parallelism: 1})
}

// runSource runs the flow on Verilog text sequentially.
func runSource(t *testing.T, src string, cfg *Config) (*Report, error) {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return runFlow(ast, cfg)
}

func TestLoadConfig(t *testing.T) {
	cfg, err := LoadConfig(`
top: gcd
selected_outputs:
  - result
  - done
efpga:
  max_io_pins: 96
  max_instances: 1
  max_fabric: 18
score:
  alpha: 2.0
  beta: 0.5
  direction: minimize
flow:
  top_score_only: false
  seed: 7
`)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Top != "gcd" || cfg.MaxIOPins != 96 || cfg.MaxEFPGAs != 1 ||
		cfg.MaxFabric != 18 || cfg.Alpha != 2.0 || cfg.Beta != 0.5 ||
		cfg.Direction != ScoreMinimize || cfg.TopScoreOnly || cfg.Seed != 7 {
		t.Errorf("config parsed wrong: %+v", cfg)
	}
	if len(cfg.SelectedOutputs) != 2 {
		t.Errorf("outputs: %v", cfg.SelectedOutputs)
	}
	if _, err := LoadConfig("efpga:\n  max_io_pins: 0\n"); err == nil {
		t.Error("expected validation error")
	}
}

func TestFilterModulesDES3(t *testing.T) {
	b, _ := bench.ByName("des3")
	d, df := elab(t, b.Source())
	for _, cfg := range []*Config{Cfg1(), Cfg2()} {
		cfg.SelectedOutputs = b.SelectedOutputs
		fr, err := FilterModules(context.Background(), d, df, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(fr.Candidates) != 8 {
			t.Fatalf("maxIO=%d: |R| = %d, want 8 (the S-boxes): %+v",
				cfg.MaxIOPins, len(fr.Candidates), fr.Rejected)
		}
		for _, c := range fr.Candidates {
			if !strings.HasPrefix(c.Module.Name, "sbox") {
				t.Errorf("unexpected candidate %s", c.Module.Name)
			}
			if c.Pins != 12 {
				t.Errorf("%s pins = %d, want 12", c.Module.Name, c.Pins)
			}
		}
	}
}

func TestFilterIIRCfg1Empty(t *testing.T) {
	b, _ := bench.ByName("iir")
	d, df := elab(t, b.Source())
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	fr, err := FilterModules(context.Background(), d, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Candidates) != 0 {
		t.Fatalf("IIR cfg1 should have no candidates, got %d", len(fr.Candidates))
	}
}

func TestClusterCountsDES3(t *testing.T) {
	b, _ := bench.ByName("des3")
	d, df := elab(t, b.Source())
	// cfg1: clusters of up to five 12-pin S-boxes: sum C(8,k), k=1..5.
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	fr, err := FilterModules(context.Background(), d, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := IdentifyClusters(context.Background(), fr.Candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 218 {
		t.Errorf("cfg1 |C| = %d, want 218", len(clusters))
	}
	// cfg2: all 255 non-empty subsets.
	cfg2 := Cfg2()
	cfg2.SelectedOutputs = b.SelectedOutputs
	fr2, err := FilterModules(context.Background(), d, df, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	clusters2, err := IdentifyClusters(context.Background(), fr2.Candidates, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters2) != 255 {
		t.Errorf("cfg2 |C| = %d, want 255", len(clusters2))
	}
}

func TestClusterIndependence(t *testing.T) {
	// A module and its own submodule cannot share a cluster.
	src := `
module top (input wire a, output wire y, output wire z);
  outer u_outer (.a(a), .y(y));
  leaf u_leaf (.x(a), .y(z));
endmodule
module outer (input wire a, output wire y);
  leaf u_inner (.x(a), .y(y));
endmodule
module leaf (input wire x, output wire y);
  assign y = ~x;
endmodule`
	d, df := elab(t, src)
	cfg := Cfg1()
	cfg.TopScoreOnly = false
	fr, err := FilterModules(context.Background(), d, df, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := IdentifyClusters(context.Background(), fr.Candidates, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range clusters {
		for _, x := range c.Instances {
			for _, y := range c.Instances {
				if x != y && strings.HasPrefix(y.Path, x.Path+".") {
					t.Errorf("cluster %s contains nested instances", c.String())
				}
			}
		}
	}
}

func TestFullFlowGCDCfg1(t *testing.T) {
	b, _ := bench.ByName("gcd")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := runSource(t, b.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("flow stopped: %v", rep.Err)
	}
	if rep.R != 9 {
		t.Errorf("|R| = %d, want 9 (68-pin comparator excluded)", rep.R)
	}
	if rep.Solution == nil || len(rep.Solution.Fabrics) == 0 {
		t.Fatal("no solution")
	}
	if len(rep.Solution.Fabrics) > 2 {
		t.Errorf("cfg1 allows at most 2 eFPGAs, got %d", len(rep.Solution.Fabrics))
	}
	t.Logf("gcd cfg1: %s", rep.Row())
	t.Logf("%s", rep.Summary())
}

func TestFullFlowGCDCfg2(t *testing.T) {
	b, _ := bench.ByName("gcd")
	cfg := Cfg2()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := runSource(t, b.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatalf("flow stopped: %v", rep.Err)
	}
	if rep.R != 10 {
		t.Errorf("|R| = %d, want 10", rep.R)
	}
	if len(rep.Solution.Fabrics) != 1 {
		t.Errorf("cfg2 allows 1 eFPGA, got %d", len(rep.Solution.Fabrics))
	}
	t.Logf("gcd cfg2: %s", rep.Row())
}

func TestFullFlowIIRCfg1Diagnostic(t *testing.T) {
	b, _ := bench.ByName("iir")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := runSource(t, b.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err == nil {
		t.Fatal("IIR under cfg1 must stop with a diagnostic")
	}
	if rep.R != 0 {
		t.Errorf("|R| = %d, want 0", rep.R)
	}
}

func TestRedactionEquivalenceGCD(t *testing.T) {
	b, _ := bench.ByName("gcd")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runFlow(ast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// Functional (programmed) redaction must match the original.
	red, err := GenerateRedactedDesign(d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRedaction(d, red, 300, 11); err != nil {
		t.Fatal(err)
	}
	// The regenerated Verilog must be parseable and carry the eFPGA.
	out := red.Print()
	if _, err := verilog.Parse(out); err != nil {
		t.Fatalf("redacted Verilog does not reparse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "alice_efpga_") {
		t.Error("no eFPGA instance in redacted design")
	}
	// Unprogrammed (black-box) redaction must NOT match: outputs stuck.
	stub, err := GenerateRedactedDesign(d, rep.Solution, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRedaction(d, stub, 50, 11); err == nil {
		t.Error("unprogrammed fabric unexpectedly passes verification")
	}
}

func TestRedactionEquivalenceSASC(t *testing.T) {
	b, _ := bench.ByName("sasc")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runFlow(ast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.R != 1 || rep.C != 1 {
		t.Errorf("sasc: |R|=%d |C|=%d, want 1/1 (paper row)", rep.R, rep.C)
	}
	red, err := GenerateRedactedDesign(d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyRedaction(d, red, 400, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRedactionNestedParentDES3(t *testing.T) {
	// DES3 S-boxes live inside crp: the insertion point is crp and the
	// config ports must propagate through crp to the top module.
	b, _ := bench.ByName("des3")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	cfg.MaxEFPGAs = 1
	// Limit clusters to pairs of S-boxes to keep this test fast; the
	// full-size sweep lives in the Table-2 bench.
	cfg.MaxIOPins = 24
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runFlow(ast, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	red, err := GenerateRedactedDesign(d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	out := red.Print()
	if !strings.Contains(out, "cfg_en") {
		t.Error("config ports missing")
	}
	if err := VerifyRedaction(d, red, 150, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEFPGAsBudget(t *testing.T) {
	b, _ := bench.ByName("usb_phy")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	rep, err := runSource(t, b.Source(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.R != 2 {
		t.Errorf("usb_phy |R| = %d, want 2", rep.R)
	}
	if rep.C != 3 {
		t.Errorf("usb_phy |C| = %d, want 3", rep.C)
	}
}
