package alice

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestMalformedInputNeverPanics drives the full CLI path — parse, flow,
// redaction, functional-model regeneration, co-simulation — over a
// corpus of malformed or degenerate user Verilog and requires a typed
// error (or a clean flow diagnostic) from every stage: a raw Go panic
// crashing cmd/alice on bad input is the bug class this regression-
// guards.
func TestMalformedInputNeverPanics(t *testing.T) {
	sub := "module sub(input [7:0] a, output [7:0] z); assign z = ~a; endmodule\n"
	cases := map[string]string{
		"syntax":       "module m(; endmodule",
		"garbage":      ")(*&^%$#@!",
		"empty":        "",
		"noModules":    "// just a comment\n",
		"unknownMod":   "module top(input a, output z); nosuch u0(.a(a), .z(z)); endmodule",
		"portMismatch": "module top(input a, output z); s u0(.a(a), .q(z)); endmodule\nmodule s(input a, output z); assign z = a; endmodule",
		"recursion":    "module top(input a, output z); top u0(.a(a), .z(z)); endmodule",
		"undriven":     "module top(input [7:0] a, output [7:0] z); sub u0(.a(a)); endmodule\n" + sub,
		"widthAbuse":   "module top(input [3:0] a, output z); assign z = a[9]; endmodule",
		"combLoop":     "module top(input a, output z); wire w; assign w = w ^ a; assign z = w; endmodule",
		"contention":   "module top(input a, output z); assign z = a; assign z = ~a; endmodule",
		"dupPorts":     "module top(input a, input a, output z); assign z = a; endmodule",
		"zeroParam":    "module top(input a, output z); p #(.W(0)) u0(.a(a), .z(z)); endmodule\nmodule p #(parameter W=4) (input a, output z); wire [W-1:0] x; assign z = x[W-1] & a; endmodule",
		"negParam":     "module top(input a, output z); p #(.W(-2)) u0(.a(a), .z(z)); endmodule\nmodule p #(parameter W=4) (input a, output z); wire [W-1:0] x; assign z = x[W-1] & a; endmodule",
		"sanitizeCollision": "module top(input [7:0] a, output [7:0] z1, output [7:0] z2);\n" +
			"sub u_x(.a(a), .z(z1)); sub2 u(.x__a(a), .x__z(z2)); endmodule\n" + sub +
			"module sub2(input [7:0] x__a, output [7:0] x__z); assign x__z = x__a ^ 8'h5; endmodule",
		"unknownPortConn": "module top(input a, output z); s u0(.a(a), .nope(z)); endmodule\n" +
			"module s(input a, output z); assign z = a; endmodule",
		"constOutputs":     "module top(input a, output z0, output z1); assign z0 = 1'b0; assign z1 = 1'b1; endmodule",
		"outputSelfAssign": "module top(input a, output z); assign z = z; endmodule",
		"seqSelfFeedback": "module top(input clk, input rst, input d, output q);\n" +
			"reg r;\nalways @(posedge clk or posedge rst) begin\n" +
			"  if (rst) r <= 1'b0; else r <= d ^ q;\nend\nassign q = r;\nendmodule",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("library panicked on malformed input: %v", r)
				}
			}()
			rep, err := NewEngine(WithConfig(Cfg1())).RunSource(context.Background(), src)
			if err != nil {
				return // typed hard failure: the CLI prints it and exits
			}
			if rep.Err != nil {
				// Flow diagnostics must be stage-attributed FlowErrors.
				var fe *FlowError
				if !errors.As(rep.Err, &fe) {
					t.Fatalf("flow diagnostic is not a *FlowError: %v", rep.Err)
				}
				return
			}
			// The design survived the flow; drive the -functional-model +
			// verification tail the CLI and examples use.
			red, err := GenerateRedactedDesign(src, rep.Solution, true)
			if err != nil {
				return
			}
			if err := VerifyRedaction(src, red, 8, 1); err != nil {
				return
			}
		})
	}
}

// TestVerifyRedactionPortLossIsTyped: a redaction that lost a port of
// the original design must come back as a stage-attributed FlowError
// from co-simulation, not a panic from the vector sim.
func TestVerifyRedactionPortLossIsTyped(t *testing.T) {
	src := "module top(input [7:0] a, output [7:0] z); sub u0(.a(a), .z(z)); endmodule\n" +
		"module sub(input [7:0] a, output [7:0] z); assign z = ~a; endmodule"
	rep, err := NewEngine(WithConfig(Cfg1())).RunSource(context.Background(), src)
	if err != nil || rep.Err != nil {
		t.Fatalf("flow: %v / %v", err, rep.Err)
	}
	red, err := GenerateRedactedDesign(src, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: verify against an original with an extra output the
	// redaction cannot have.
	bigger := "module top(input [7:0] a, output [7:0] z, output extra);\n" +
		"sub u0(.a(a), .z(z)); assign extra = ^a; endmodule\n" +
		"module sub(input [7:0] a, output [7:0] z); assign z = ~a; endmodule"
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("VerifyRedaction panicked: %v", r)
		}
	}()
	err = VerifyRedaction(bigger, red, 4, 1)
	if err == nil {
		t.Fatal("divergent verification unexpectedly passed")
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageVerify {
		t.Fatalf("want a StageVerify FlowError, got: %v", err)
	}
}

// TestConfigValidationRejectsBadValues is the table-driven rejection
// suite for config-load-time validation: nonsensical arch-space and
// timing values must fail fast with the offending field named, instead
// of surfacing deep inside characterization.
func TestConfigValidationRejectsBadValues(t *testing.T) {
	yaml := func(body string) string { return body }
	cases := []struct {
		name, src, wantSub string
	}{
		{"lutZero", "arch_space:\n  lut_sizes: [0]\n", "lut_sizes"},
		{"lutNegative", "arch_space:\n  lut_sizes: [-3]\n", "lut_sizes"},
		{"lutTooBig", "arch_space:\n  lut_sizes: [9]\n", "lut_sizes"},
		{"bleZero", "arch_space:\n  bles_per_clb: [0]\n", "bles_per_clb"},
		{"bleNegative", "arch_space:\n  bles_per_clb: [-1]\n", "bles_per_clb"},
		{"bleTooBig", "arch_space:\n  bles_per_clb: [40]\n", "bles_per_clb"},
		{"cwZero", "arch_space:\n  channel_width: 0\n", "channel_width"},
		{"cwNegative", "arch_space:\n  channel_width: -4\n", "channel_width"},
		{"cwGarbage", "arch_space:\n  channel_width: wide\n", "channel_width"},
		{"clbInZero", "arch_space:\n  clb_inputs: 0\n", "clb_inputs"},
		{"clbInNegative", "arch_space:\n  clb_inputs: -2\n", "clb_inputs"},
		{"clbInTooSmall", "arch_space:\n  lut_sizes: [6]\n  clb_inputs: 3\n", "arch_space"},
		{"delayWeightNeg", "timing:\n  delay_weight: -0.5\n", "delay_weight"},
		{"fmaxFloorNeg", "timing:\n  fmax_floor_mhz: -100\n", "fmax_floor_mhz"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := LoadConfig(yaml(c.src))
			if err == nil {
				t.Fatalf("config accepted:\n%s", c.src)
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not name %q", err, c.wantSub)
			}
		})
	}

	// Acceptance side of the table: valid values load and land in the
	// right fields.
	cfg, err := LoadConfig("timing:\n  driven: true\n  delay_weight: 0.75\n  fmax_floor_mhz: 250\n" +
		"arch_space:\n  lut_sizes: [3, 5]\n  bles_per_clb: [4]\n  channel_width: 20\n")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.TimingDriven || cfg.DelayWeight != 0.75 || cfg.FmaxFloorMHz != 250 {
		t.Fatalf("timing block mis-parsed: %+v", cfg)
	}
	if len(cfg.ArchSpace) != 2 || cfg.ArchSpace[0].ChannelWidth != 20 {
		t.Fatalf("arch space mis-parsed: %+v", cfg.ArchSpace)
	}
}
