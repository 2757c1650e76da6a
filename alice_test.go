package alice_test

import (
	"context"
	"strings"
	"testing"

	"alice"
)

// TestFacadeEndToEnd exercises the public API: characterization, config
// loading, flow run, redaction, and verification.
func TestFacadeEndToEnd(t *testing.T) {
	b, ok := alice.BenchmarkByName("sasc")
	if !ok {
		t.Fatal("benchmark missing")
	}
	c, err := alice.Characterize(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if c.Modules != 2 || c.Instances != 3 {
		t.Errorf("characteristics: %+v", c)
	}

	cfg, err := alice.LoadConfig(`
efpga:
  max_io_pins: 64
  max_instances: 2
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SelectedOutputs = b.SelectedOutputs

	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.Solution == nil {
		t.Fatal("no solution")
	}

	red, err := alice.GenerateRedactedDesign(b.Source(), rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.VerifyRedaction(b.Source(), red, 200, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(red.Print(), "alice_efpga_") {
		t.Error("redacted output missing eFPGA instance")
	}
}

// chipMid nests the design a flow is configured for: chip instantiates
// mid, and mid instantiates two leaves.
const chipMid = `
module leaf_add(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a + b;
endmodule

module leaf_xor(input wire [3:0] a, input wire [3:0] b, output wire [3:0] y);
  assign y = a ^ b;
endmodule

module mid(input wire [3:0] a, input wire [3:0] b, output wire [3:0] s, output wire [3:0] x);
  leaf_add u_add (.a(a), .b(b), .y(s));
  leaf_xor u_xor (.a(a), .b(b), .y(x));
endmodule

module chip(input wire [3:0] a, input wire [3:0] b, input wire [3:0] c,
            output wire [3:0] z, output wire [3:0] w);
  wire [3:0] s, x;
  mid u_mid (.a(a), .b(b), .s(s), .x(x));
  assign z = s & c;
  assign w = x | c;
endmodule
`

// TestRedactionKeepsConfiguredTop: a flow run with cfg.Top = "mid" is
// redacted and verified against mid, not against chip, the top that
// elaboration would infer.
func TestRedactionKeepsConfiguredTop(t *testing.T) {
	cfg := alice.DefaultConfig()
	cfg.Top = "mid"
	rep, err := alice.NewEngine(alice.WithConfig(cfg)).RunSource(context.Background(), chipMid)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solution == nil {
		t.Fatalf("no solution: %v", rep.Err)
	}
	red, err := alice.GenerateRedactedDesign(chipMid, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if red.Top != "mid" {
		t.Fatalf("redaction top = %q, want mid", red.Top)
	}
	if err := alice.VerifyRedaction(chipMid, red, 200, 1); err != nil {
		t.Fatal(err)
	}
}

// TestAllBenchmarksListed ensures the suite matches the paper's seven
// designs.
func TestAllBenchmarksListed(t *testing.T) {
	names := map[string]bool{}
	for _, b := range alice.Benchmarks() {
		names[b.Name] = true
	}
	for _, want := range []string{"des3", "fir", "iir", "sha256", "sasc", "usb_phy", "gcd"} {
		if !names[want] {
			t.Errorf("benchmark %s missing", want)
		}
	}
	if len(names) != 7 {
		t.Errorf("got %d benchmarks, want 7", len(names))
	}
}

// TestParseFacade checks the re-exported parser.
func TestParseFacade(t *testing.T) {
	d, err := alice.Parse("module m (input wire a, output wire y); assign y = ~a; endmodule")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Modules) != 1 || d.Modules[0].Name != "m" {
		t.Errorf("parsed: %+v", d.Modules)
	}
	if _, err := alice.Parse("module broken"); err == nil {
		t.Error("expected parse error")
	}
}
