package main

import (
	"fmt"
	"io"

	"alice/internal/attack"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// attackTargets are combinational cores of growing size; the attack
// cost (distinguishing inputs, conflicts, time) grows with the number
// of configuration bits, which is the paper's security argument. mix8
// (228 key bits) was far beyond the pre-overhaul engine's reach at the
// corpus budget — it rode in with the PR-5 attack overhaul as the
// first production-key-size row.
var attackTargets = []struct {
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
	{"sbox6", `module t (input wire [5:0] a, output wire [3:0] y);
  assign y = {a[0] ^ a[5], a[1] & a[4] | a[2], a[3] ^ (a[1] & a[0]), ^a};
endmodule`},
	{"mix8", `module t (input wire [7:0] a, input wire [7:0] k, output wire [7:0] y);
  assign y = (a + k) ^ {a[3:0], k[7:4]};
endmodule`},
	// inv8 is the structurally degenerate end of the corpus: every LUT
	// reduces to an inverter, so the oracle-free structural analysis
	// leaks the whole key and seeding the SAT attack with it needs zero
	// distinguishing inputs (the structural sweep rows record both DIP
	// counts). It anchors the claim that redacting trivial logic buys
	// no security.
	{"inv8", `module t (input wire [7:0] a, output wire [7:0] y);
  assign y = ~a;
endmodule`},
}

// attackBudget bounds the distinguishing inputs per corpus attack, and
// fabricConflictBudget bounds the solver conflicts per fabric attack —
// a fabric that survives it is reported as such (the security result),
// not as an error. The per-target budgets are the attack engine's own
// defaults (shared with the serve daemon).
const (
	attackBudget         = attack.DefaultMaxIters
	fabricConflictBudget = 250_000
)

// targetNetwork synthesizes and maps the named corpus target.
func targetNetwork(name string) (*techmap.LUTNetwork, error) {
	for _, tgt := range attackTargets {
		if tgt.name != name {
			continue
		}
		ast, err := verilog.Parse(tgt.src)
		if err != nil {
			return nil, err
		}
		d, err := rtl.Elaborate(ast, "")
		if err != nil {
			return nil, err
		}
		res, err := synth.Synthesize(d)
		if err != nil {
			return nil, err
		}
		return techmap.Map(opt.Optimize(res.Netlist))
	}
	return nil, fmt.Errorf("unknown attack target %q", name)
}

// runAttackScaling renders the attack rows of the sweep grid, run on
// this process.
func runAttackScaling(w io.Writer) {
	fmt.Fprintf(w, "%-8s %10s %8s %12s\n", "target", "key bits", "DIPs", "conflicts")
	rep, err := sweepLocal(filterGrid(sweepGrid(), "attack:"))
	check(err)
	for _, a := range rep.Attacks {
		if a.BudgetExhausted {
			// Budget exhaustion is the security result the sweep is after:
			// the design survived the attack budget.
			fmt.Fprintf(w, "%-8s %10d %8s %12d  (survived the attack budget)\n",
				a.Target, a.KeyBits, ">"+fmt.Sprint(a.DIPs), a.Conflicts)
			continue
		}
		fmt.Fprintf(w, "%-8s %10d %8d %12d\n", a.Target, a.KeyBits, a.DIPs, a.Conflicts)
	}
}
