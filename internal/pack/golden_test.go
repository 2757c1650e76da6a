package pack

import (
	"fmt"
	"hash/fnv"
	"testing"

	"alice/internal/bench"
	"alice/internal/fabric"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/techmap"
	"alice/internal/verilog"
)

// corpusLUTNetwork synthesizes, optimizes and maps one benchmark at
// LUT size k.
func corpusLUTNetwork(tb testing.TB, name string, k int) *techmap.LUTNetwork {
	tb.Helper()
	b, ok := bench.ByName(name)
	if !ok {
		tb.Fatalf("no benchmark %s", name)
	}
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		tb.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		tb.Fatal(err)
	}
	res, err := synth.SynthesizeOpts(d, synth.Options{UnifyClocks: true})
	if err != nil {
		tb.Fatal(err)
	}
	ln, err := techmap.MapK(opt.Optimize(res.Netlist), k)
	if err != nil {
		tb.Fatal(err)
	}
	return ln
}

// fingerprintCLBs hashes every CLB's BLE list and external inputs, in
// order: the order fixes pin and slot assignment downstream.
func fingerprintCLBs(clbs []CLB) string {
	h := fnv.New64a()
	for i, c := range clbs {
		fmt.Fprintf(h, "c%d:", i)
		for _, b := range c.BLEs {
			fmt.Fprintf(h, "%d/%d,", b.LUT, b.FF)
		}
		fmt.Fprintf(h, "in%v;", c.Inputs)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenFamilies are the K=4 fabric families TestPackGolden packs
// under: the paper's N=4, I=10; single-BLE and wide clusters; and I=K,
// where pins run out, so infeasible candidates and the gain-0 fallback
// both occur.
var goldenFamilies = []fabric.Params{
	{},
	{BLEsPerCLB: 1},
	{BLEsPerCLB: 8},
	{CLBInputs: 4},
}

// goldenPack pins the CLBs of every benchmark's K=4 network under each
// of goldenFamilies, in that order. The fingerprints were captured
// from the packer that scored every unplaced BLE for every CLB slot;
// the touched-set packer must keep them.
var goldenPack = map[string][4]string{
	"des3":    {"0756f3cd9de8dc44", "6f1294c0753361b5", "c794e7b46da3c77b", "c79a09e4a1ef17b6"},
	"fir":     {"01ba3b434281c34b", "cf88d67ae7e9c583", "89a099eee2f6351f", "a27150d04406cd8b"},
	"iir":     {"a121e1cb4fdd42f2", "125c2ff0e35e8df6", "bbfa65de644d1e95", "b63efd0f34d65f22"},
	"sha256":  {"45c17611e00b0f4a", "d75a14b8ab3157fd", "f57accc08aae5fe5", "4087c5e7d9935452"},
	"sasc":    {"b4e4000ac55dbf67", "717eb2d5971436ab", "2b67aeb6a7f0b758", "e08e5eeb39cd15f8"},
	"usb_phy": {"8284c35441cdf0bf", "42ea436a528fec3c", "eba8e5fea9049b3e", "2fda7c93f0c72098"},
	"gcd":     {"f614dfb4192fc05c", "c029edd872bd9889", "62597803c9fe19d4", "4b366ff682351cd3"},
}

func TestPackGolden(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			ln := corpusLUTNetwork(t, b.Name, techmap.DefaultK)
			w := 1
			for w*w < ln.NumLUTs()+ln.NumFFs() {
				w++
			}
			for i, fam := range goldenFamilies {
				p, err := Pack(ln, fam.At(w))
				if err != nil {
					t.Fatalf("%s: %v", fam.Name(), err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("%s: %v", fam.Name(), err)
				}
				if got, want := fingerprintCLBs(p.CLBs), goldenPack[b.Name][i]; got != want {
					t.Errorf("%s: CLB fingerprint = %s, golden %s", fam.Name(), got, want)
				}
			}
		})
	}
}
