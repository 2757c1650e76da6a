package attack

import "testing"

// benchTargets mirrors the alicebench attack corpus: combinational
// cores of growing key size. mix6 is the hardest pre-overhaul-feasible
// design and the headline before/after number of PERFORMANCE.md.
var benchTargets = []struct {
	name string
	src  string
}{
	{"add4", `module t (input wire [3:0] a, input wire [3:0] b, output wire [4:0] y);
  assign y = a + b;
endmodule`},
	{"sbox6", `module t (input wire [5:0] a, output wire [3:0] y);
  assign y = {a[0] ^ a[5], a[1] & a[4] | a[2], a[3] ^ (a[1] & a[0]), ^a};
endmodule`},
	{"mix6", `module t (input wire [5:0] a, input wire [5:0] k, output wire [5:0] y);
  assign y = (a + k) ^ {a[2:0], k[5:3]};
endmodule`},
}

// BenchmarkAttack runs the production oracle-guided attack engine on
// the attack corpus (the security-evaluation hot kernel). Run with
// -benchtime 1x in CI smoke; the per-target stats are logged once.
func BenchmarkAttack(b *testing.B) {
	for _, tgt := range benchTargets {
		b.Run(tgt.name, func(b *testing.B) {
			ln := mapDesign(b, tgt.src)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RecoverBitstreamOpts(ln, Options{MaxIters: 5000, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.Logf("key=%d bits DIPs=%d conflicts=%d reductions=%d deleted=%d",
						res.KeyBits, res.Iterations, res.Conflicts, res.Reductions, res.DeletedClauses)
				}
			}
		})
	}
}
