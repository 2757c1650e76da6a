package alice

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"alice/internal/core"
	"alice/internal/structural"
)

// sequentialFlow parses src and runs the whole flow on it through a
// sequential Engine. It returns the engine and the elaborated design
// too, for redaction and co-simulation.
func sequentialFlow(t *testing.T, src string, cfg *Config) (*Engine, *ElaboratedDesign, *Report) {
	t.Helper()
	ctx := context.Background()
	ast, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	eng := NewEngine(WithConfig(cfg), WithParallelism(1))
	d, err := eng.Elaborate(ctx, ast)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Run(ctx, ast)
	if err != nil {
		t.Fatal(err)
	}
	return eng, d, rep
}

func TestFullFlowGCDCfg1(t *testing.T) {
	b, _ := BenchmarkByName("gcd")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	_, _, rep := sequentialFlow(t, b.Source(), cfg)
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
	b, _ := BenchmarkByName("gcd")
	cfg := Cfg2()
	cfg.SelectedOutputs = b.SelectedOutputs
	_, _, rep := sequentialFlow(t, b.Source(), cfg)
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
	b, _ := BenchmarkByName("iir")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	_, _, rep := sequentialFlow(t, b.Source(), cfg)
	if rep.Err == nil {
		t.Fatal("IIR under cfg1 must stop with a diagnostic")
	}
	if rep.R != 0 {
		t.Errorf("|R| = %d, want 0", rep.R)
	}
}

func TestRedactionEquivalenceGCD(t *testing.T) {
	ctx := context.Background()
	b, _ := BenchmarkByName("gcd")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	eng, d, rep := sequentialFlow(t, b.Source(), cfg)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	// Functional (programmed) redaction must match the original.
	red, err := eng.Redact(ctx, d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyRedaction(d, red, 300, 11); err != nil {
		t.Fatal(err)
	}
	// The regenerated Verilog must be parseable and carry the eFPGA.
	out := red.Print()
	if _, err := Parse(out); err != nil {
		t.Fatalf("redacted Verilog does not reparse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "alice_efpga_") {
		t.Error("no eFPGA instance in redacted design")
	}
	// Unprogrammed (black-box) redaction must NOT match: outputs stuck.
	stub, err := eng.Redact(ctx, d, rep.Solution, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyRedaction(d, stub, 50, 11); err == nil {
		t.Error("unprogrammed fabric unexpectedly passes verification")
	}
}

func TestRedactionEquivalenceSASC(t *testing.T) {
	b, _ := BenchmarkByName("sasc")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	eng, d, rep := sequentialFlow(t, b.Source(), cfg)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	if rep.R != 1 || rep.C != 1 {
		t.Errorf("sasc: |R|=%d |C|=%d, want 1/1 (paper row)", rep.R, rep.C)
	}
	red, err := eng.Redact(context.Background(), d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.VerifyRedaction(d, red, 400, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRedactionNestedParentDES3(t *testing.T) {
	// DES3 S-boxes live inside crp: the insertion point is crp and the
	// config ports must propagate through crp to the top module.
	b, _ := BenchmarkByName("des3")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	cfg.MaxEFPGAs = 1
	// Limit clusters to pairs of S-boxes to keep this test fast; the
	// full-size sweep lives in the Table-2 bench.
	cfg.MaxIOPins = 24
	eng, d, rep := sequentialFlow(t, b.Source(), cfg)
	if rep.Err != nil {
		t.Fatal(rep.Err)
	}
	red, err := eng.Redact(context.Background(), d, rep.Solution, true)
	if err != nil {
		t.Fatal(err)
	}
	out := red.Print()
	if !strings.Contains(out, "cfg_en") {
		t.Error("config ports missing")
	}
	if err := core.VerifyRedaction(d, red, 150, 3); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEFPGAsBudget(t *testing.T) {
	b, _ := BenchmarkByName("usb_phy")
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	_, _, rep := sequentialFlow(t, b.Source(), cfg)
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

// TestCharacterizedReportsAreFreshAnalyses checks that the structural
// report characterization stores on each fabric, and selection passes
// on, is exactly what a fresh analysis with the flow's seed yields, on
// every candidate of every corpus flow under cfg1 and cfg2.
func TestCharacterizedReportsAreFreshAnalyses(t *testing.T) {
	for _, b := range Benchmarks() {
		ast, err := Parse(b.Source())
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range []*Config{Cfg1(), Cfg2()} {
			cfg.SelectedOutputs = b.SelectedOutputs
			rep, err := NewEngine(WithConfig(cfg), WithParallelism(2)).Run(context.Background(), ast)
			if err != nil {
				t.Fatalf("%s cfg%d: %v", b.Name, ci+1, err)
			}
			if rep.Selection == nil {
				continue // no candidates or clusters: nothing characterized
			}
			for i, c := range rep.Selection.Candidates {
				if c.Fabric == nil {
					continue
				}
				want, err := structural.Analyze(c.Fabric.LUTs, structural.Options{Seed: cfg.Seed})
				if err != nil {
					t.Fatalf("%s cfg%d candidate %d: %v", b.Name, ci+1, i, err)
				}
				if c.Structural != c.Fabric.Structural {
					t.Errorf("%s cfg%d candidate %d: selection's report is not the fabric's", b.Name, ci+1, i)
				}
				if !reflect.DeepEqual(c.Structural, want) {
					t.Errorf("%s cfg%d candidate %d: stored report %v, fresh analysis %v", b.Name, ci+1, i, c.Structural, want)
				}
			}
		}
	}
}

// TestFlowErrorWrapping checks the stage-attribution helper: sentinels
// survive errors.Is through the wrapper, and double-wrapping is
// avoided.
func TestFlowErrorWrapping(t *testing.T) {
	err := stageErr(StageSelect, "gcd", ErrNoSolution)
	if !errors.Is(err, ErrNoSolution) {
		t.Errorf("errors.Is lost the sentinel: %v", err)
	}
	var fe *FlowError
	if !errors.As(err, &fe) || fe.Stage != StageSelect || fe.Design != "gcd" {
		t.Errorf("attribution wrong: %+v", fe)
	}
	if want := "core: stage select on gcd: no admissible solution"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}

	rewrapped := stageErr(StageRedact, "other", err)
	var fe2 *FlowError
	if !errors.As(rewrapped, &fe2) || fe2.Stage != StageSelect {
		t.Errorf("stageErr double-wrapped an already attributed error: %v", rewrapped)
	}
	if stageErr(StageFilter, "x", nil) != nil {
		t.Error("stageErr(nil) != nil")
	}
}

// TestStageErrorClasses checks how Run sorts a stage failure: a plain
// error is the stage's diagnostic, carried on the report and on the
// end event with a zero count; a cancellation, or a failure the stage
// marks hardError, is the run's error and sends no end event.
func TestStageErrorClasses(t *testing.T) {
	var events []Event
	eng := NewEngine(WithObserver(func(ev Event) { events = append(events, ev) }))
	boom := errors.New("boom")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name     string
		ctx      context.Context
		err      error
		wantHard error
	}{
		{"diagnostic", context.Background(), boom, nil},
		{"hard", context.Background(), hardError{boom}, boom},
		{"cancelled", cancelled, boom, context.Canceled},
	} {
		events = nil
		rep := &Report{Design: "top"}
		_, err := eng.stage(c.ctx, rep, StageFilter, func() (int, error) { return 3, c.err })
		if err != c.wantHard {
			t.Errorf("%s: run error %v, want %v", c.name, err, c.wantHard)
		}
		var ends []Event
		for _, ev := range events {
			if ev.Kind == EventStageEnd {
				ends = append(ends, ev)
			}
		}
		if c.wantHard != nil {
			if rep.Err != nil || len(ends) != 0 {
				t.Errorf("%s: diagnostic %v and %d end events, want none", c.name, rep.Err, len(ends))
			}
			continue
		}
		var fe *FlowError
		if !errors.As(rep.Err, &fe) || fe.Stage != StageFilter || fe.Design != "top" || !errors.Is(rep.Err, boom) {
			t.Errorf("%s: diagnostic %v, want boom attributed to the filter stage of top", c.name, rep.Err)
		}
		if len(ends) != 1 || ends[0].Count != 0 || ends[0].Err != rep.Err {
			t.Errorf("%s: end events %+v, want one with count 0 carrying the diagnostic", c.name, ends)
		}
	}

	// Filter marks a failed dataflow analysis hard.
	ast, err := Parse("module top(input wire a, output wire y); assign y = a; endmodule")
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.Elaborate(context.Background(), ast)
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Filter(cancelled, d)
	var h hardError
	if !errors.As(err, &h) || !errors.Is(err, context.Canceled) {
		t.Errorf("Filter under a cancelled context returned %v, want a hard cancellation", err)
	}
}
