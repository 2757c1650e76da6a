package core

import (
	"strings"
	"testing"
)

// TestLoadConfigTable exercises LoadConfig key by key, including the
// direction default: an absent score.direction must keep the
// DefaultConfig ranking (maximize), even when a score: section is
// present for alpha/beta.
func TestLoadConfigTable(t *testing.T) {
	tests := []struct {
		name    string
		yaml    string
		wantErr string
		check   func(t *testing.T, cfg *Config)
	}{
		{
			name: "minimal config keeps defaults",
			yaml: "top: gcd\n",
			check: func(t *testing.T, cfg *Config) {
				def := DefaultConfig()
				if cfg.MaxIOPins != def.MaxIOPins || cfg.MaxEFPGAs != def.MaxEFPGAs ||
					cfg.Direction != def.Direction || cfg.TopScoreOnly != def.TopScoreOnly ||
					cfg.MinFabric != def.MinFabric || cfg.MaxFabric != def.MaxFabric {
					t.Errorf("defaults not preserved: %+v", cfg)
				}
			},
		},
		{
			name: "score section without direction keeps maximize",
			yaml: "score:\n  alpha: 2.0\n  beta: 0.5\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.Direction != ScoreMaximize {
					t.Errorf("direction = %v, want ScoreMaximize (the DefaultConfig value)", cfg.Direction)
				}
				if cfg.Alpha != 2.0 || cfg.Beta != 0.5 {
					t.Errorf("alpha/beta = %v/%v", cfg.Alpha, cfg.Beta)
				}
			},
		},
		{
			name: "direction minimize",
			yaml: "score:\n  direction: minimize\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.Direction != ScoreMinimize {
					t.Errorf("direction = %v, want ScoreMinimize", cfg.Direction)
				}
			},
		},
		{
			name: "direction maximize",
			yaml: "score:\n  direction: maximize\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.Direction != ScoreMaximize {
					t.Errorf("direction = %v, want ScoreMaximize", cfg.Direction)
				}
			},
		},
		{
			name:    "direction rejects unknown value",
			yaml:    "score:\n  direction: sideways\n",
			wantErr: "must be minimize or maximize",
		},
		{
			name: "efpga budgets",
			yaml: "efpga:\n  max_io_pins: 96\n  max_instances: 1\n  min_fabric: 3\n  max_fabric: 18\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.MaxIOPins != 96 || cfg.MaxEFPGAs != 1 || cfg.MinFabric != 3 || cfg.MaxFabric != 18 {
					t.Errorf("efpga budgets wrong: %+v", cfg)
				}
			},
		},
		{
			name: "flow toggles and seed",
			yaml: "flow:\n  top_score_only: false\n  full_pnr: true\n  implement_winner: true\n  seed: 7\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.TopScoreOnly || !cfg.FullPnR || !cfg.ImplementWinner || cfg.Seed != 7 {
					t.Errorf("flow section wrong: %+v", cfg)
				}
			},
		},
		{
			name: "top and selected outputs",
			yaml: "top: gcd\nselected_outputs:\n  - result\n  - done\n",
			check: func(t *testing.T, cfg *Config) {
				if cfg.Top != "gcd" || len(cfg.SelectedOutputs) != 2 {
					t.Errorf("top/outputs wrong: %+v", cfg)
				}
			},
		},
		{
			name:    "validation rejects zero pins",
			yaml:    "efpga:\n  max_io_pins: 0\n",
			wantErr: "max_io_pins must be positive",
		},
		{
			name:    "validation rejects inverted fabric range",
			yaml:    "efpga:\n  min_fabric: 9\n  max_fabric: 3\n",
			wantErr: "invalid fabric range",
		},
		{
			name:    "root must be a mapping",
			yaml:    "- just\n- a\n- list\n",
			wantErr: "root must be a mapping",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := LoadConfig(tc.yaml)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, cfg)
		})
	}
}

// TestLoadConfigArchSpace parses an arch_space block and checks the
// cartesian expansion, the policy fields, and the rejection of bad
// values.
func TestLoadConfigArchSpace(t *testing.T) {
	cfg, err := LoadConfig(`
efpga:
  max_io_pins: 48
arch_space:
  lut_sizes: [3, 5]
  bles_per_clb: [4, 8]
  clb_inputs: auto
  channel_width: 20
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.ArchSpace) != 4 {
		t.Fatalf("|arch space| = %d, want 4", len(cfg.ArchSpace))
	}
	want := []struct{ k, n int }{{3, 4}, {3, 8}, {5, 4}, {5, 8}}
	for i, w := range want {
		p := cfg.ArchSpace[i]
		if p.LUTSize != w.k || p.BLEsPerCLB != w.n {
			t.Errorf("family %d = K%dN%d, want K%dN%d", i, p.LUTSize, p.BLEsPerCLB, w.k, w.n)
		}
		if p.ChannelWidth != 20 {
			t.Errorf("family %d channel width = %d, want 20", i, p.ChannelWidth)
		}
		// auto clb_inputs follows the VPR rule.
		if wantIn := (w.k*(w.n+1) + 1) / 2; p.CLBInputs != wantIn {
			t.Errorf("family %d CLB inputs = %d, want %d", i, p.CLBInputs, wantIn)
		}
	}

	// A single scalar is a one-element list; omitted keys default to 4.
	cfg, err = LoadConfig("arch_space:\n  lut_sizes: 5\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.ArchSpace) != 1 || cfg.ArchSpace[0].LUTSize != 5 || cfg.ArchSpace[0].BLEsPerCLB != 4 {
		t.Fatalf("scalar arch space = %+v", cfg.ArchSpace)
	}

	// Out-of-range LUT sizes and bad policies are rejected.
	if _, err := LoadConfig("arch_space:\n  lut_sizes: [9]\n"); err == nil {
		t.Error("lut_sizes: [9] accepted")
	}
	if _, err := LoadConfig("arch_space:\n  clb_inputs: sometimes\n"); err == nil {
		t.Error("clb_inputs: sometimes accepted")
	}
}

// TestLoadConfigArchSpaceRejectsZero: an explicit 0 must not silently
// normalize to the default family.
func TestLoadConfigArchSpaceRejectsZero(t *testing.T) {
	if _, err := LoadConfig("arch_space:\n  lut_sizes: [0, 5]\n"); err == nil {
		t.Error("lut_sizes: [0, 5] accepted")
	}
	if _, err := LoadConfig("arch_space:\n  bles_per_clb: [-1]\n"); err == nil {
		t.Error("bles_per_clb: [-1] accepted")
	}
}
