package core

import (
	"context"
	"strings"
	"testing"

	"alice/internal/bench"
	"alice/internal/rtl"
	"alice/internal/verilog"
)

func elab(t testing.TB, src string) (*rtl.Design, *rtl.Dataflow) {
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
