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
