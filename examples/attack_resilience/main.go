// attack_resilience quantifies the threat model of Sec. 2.1: an
// oracle-guided SAT attack tries to recover the configuration of
// redacted logic, and its cost grows with the number of configuration
// (key) bits — the source of eFPGA redaction's resilience.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"alice"
	"alice/internal/attack"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
)

var targets = []struct {
	name string
	src  string
}{
	{"2-input parity", `module t (input wire [1:0] a, output wire y);
  assign y = a[0] ^ a[1];
endmodule`},
	{"4-bit adder", `module t (input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);
  assign y = a + b;
endmodule`},
	{"6-bit mixer", `module t (input wire [5:0] a, input wire [5:0] k, output wire [5:0] y);
  assign y = (a + k) ^ {a[2:0], k[5:3]};
endmodule`},
	// 228 key bits: beyond the pre-overhaul engine's reach (the 6-bit
	// mixer alone took it ~34s; this one did not finish). The key-cone
	// reduced, assumption-based engine cracks it in seconds.
	{"8-bit mixer", `module t (input wire [7:0] a, input wire [7:0] k, output wire [7:0] y);
  assign y = (a + k) ^ {a[3:0], k[7:4]};
endmodule`},
}

func main() {
	fmt.Println("Oracle-guided SAT attack on LUT configurations (scan model):")
	fmt.Printf("%-16s %10s %8s %12s %10s\n", "target", "key bits", "DIPs", "conflicts", "time")
	for _, tgt := range targets {
		ast, err := alice.Parse(tgt.src)
		if err != nil {
			log.Fatal(err)
		}
		d, err := rtl.Elaborate(ast, "")
		if err != nil {
			log.Fatal(err)
		}
		res, err := synth.Synthesize(d)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := techmap.Map(opt.Optimize(res.Netlist))
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		v, err := attack.Evaluate(context.Background(), ln, attack.Options{MaxIters: 20000, Seed: 1})
		if err != nil {
			log.Fatalf("%s: %v", tgt.name, err)
		}
		if !v.Cracked {
			log.Fatalf("%s: not cracked within %d distinguishing inputs", tgt.name, v.DIPs)
		}
		fmt.Printf("%-16s %10d %8d %12d %10s\n",
			tgt.name, v.KeyBits, v.DIPs, v.Conflicts,
			time.Since(start).Round(time.Millisecond))
	}
	fmt.Println()
	fmt.Println("The full bitstream additionally hides the routing (thousands of")
	fmt.Println("bits for the paper's fabrics), so real fabrics sit far beyond")
	fmt.Println("these toy key sizes — the quantitative core of the security claim.")
}
