package attack

import (
	"testing"

	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

func mapDesign(t testing.TB, src string) *techmap.LUTNetwork {
	t.Helper()
	ast, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Synthesize(d)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := techmap.Map(opt.Optimize(res.Netlist))
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func TestAttackRecoversCombinational(t *testing.T) {
	ln := mapDesign(t, `
module f (input wire [3:0] a, input wire [3:0] b, output wire [3:0] y, output wire c);
  assign {c, y} = a + b;
endmodule`)
	// NoWarmup: this test pins the DIP loop itself, so the warm-up
	// (default-on) must not pre-solve the key.
	res, err := RecoverBitstreamOpts(ln, Options{MaxIters: 200, Seed: 1, NoWarmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("expected at least one distinguishing input")
	}
	if bad := VerifyKey(ln, res.Masks, 500, 2); bad != 0 {
		t.Fatalf("recovered key wrong on %d patterns", bad)
	}
	t.Logf("key bits %d, DIPs %d, conflicts %d", res.KeyBits, res.Iterations, res.Conflicts)
}

func TestAttackRecoversSequentialScan(t *testing.T) {
	ln := mapDesign(t, `
module g (input wire clk, input wire rst, input wire [2:0] d, output reg [2:0] q);
  always @(posedge clk or posedge rst) begin
    if (rst) q <= 3'd0;
    else q <= q + d;
  end
endmodule`)
	if len(ln.FFs) != 3 {
		t.Fatalf("FFs = %d", len(ln.FFs))
	}
	res, err := RecoverBitstreamOpts(ln, Options{MaxIters: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if bad := VerifyKey(ln, res.Masks, 500, 4); bad != 0 {
		t.Fatalf("recovered key wrong on %d patterns", bad)
	}
}

func TestAttackCostGrowsWithKeySize(t *testing.T) {
	small := mapDesign(t, `
module s (input wire [1:0] a, output wire y);
  assign y = a[0] ^ a[1];
endmodule`)
	big := mapDesign(t, `
module b (input wire [3:0] a, input wire [3:0] k, output wire [3:0] y);
  assign y = (a + k) ^ {a[1:0], k[3:2]};
endmodule`)
	rs, err := RecoverBitstreamOpts(small, Options{MaxIters: 300, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RecoverBitstreamOpts(big, Options{MaxIters: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rb.KeyBits <= rs.KeyBits {
		t.Errorf("key sizes: big %d <= small %d", rb.KeyBits, rs.KeyBits)
	}
	t.Logf("small: %d key bits, %d DIPs; big: %d key bits, %d DIPs",
		rs.KeyBits, rs.Iterations, rb.KeyBits, rb.Iterations)
}
