package techmap

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"alice/internal/bench"
	"alice/internal/netlist"
	"alice/internal/opt"
	"alice/internal/rtl"
	"alice/internal/synth"
	"alice/internal/verilog"
)

// goldenK4 pins the exact K=4 mapping of every reconstructed benchmark,
// captured from the fixed-K=4 mapper this runtime-K mapper replaced
// (and from the determinism-fixed synthesis frontend). Any change to
// these fingerprints means the refactor altered the default mapping —
// which the architecture-space work must not do.
var goldenK4 = map[string]string{
	"des3":    "f188ca1ba3af87cc",
	"fir":     "19bd09f6a72812c0",
	"iir":     "0d3cac2120a640cd",
	"sha256":  "0af6a778a328aa18",
	"sasc":    "dd9cee6aba25ba65",
	"usb_phy": "964c16985d1ab3d2",
	"gcd":     "c3136707497138f2",
}

// fingerprintLUTNetwork canonically hashes the full network structure:
// node kinds, masks, fanins, port lists and names.
func fingerprintLUTNetwork(ln *LUTNetwork) string {
	h := fnv.New64a()
	wr := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	wr("name=%s;", ln.Name)
	for i, n := range ln.Nodes {
		wr("n%d:%d:%x:", i, n.Kind, n.Mask)
		for _, in := range n.In {
			wr("%d,", in)
		}
		wr(";")
	}
	wr("pis=%v;pinames=%v;pos=%v;ponames=%v;ffs=%v", ln.PIs, ln.PINames, ln.POs, ln.PONames, ln.FFs)
	return fmt.Sprintf("%016x", h.Sum64())
}

func benchNetlist(t testing.TB, b bench.Benchmark) *netlist.Netlist {
	t.Helper()
	ast, err := verilog.Parse(b.Source())
	if err != nil {
		t.Fatal(err)
	}
	d, err := rtl.Elaborate(ast, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.SynthesizeOpts(d, synth.Options{UnifyClocks: true})
	if err != nil {
		t.Fatal(err)
	}
	return opt.Optimize(res.Netlist)
}

// TestGoldenK4Mapping gates that the runtime-K mapper at K = 4 is
// output-identical to the fixed-K mapper it replaced, benchmark by
// benchmark, and that Map == MapK(·, 4).
func TestGoldenK4Mapping(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			n := benchNetlist(t, b)
			ln, err := Map(n)
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprintLUTNetwork(ln)
			if want := goldenK4[b.Name]; got != want {
				t.Errorf("K=4 mapping fingerprint = %s, golden %s", got, want)
			}
			ln4, err := MapK(n, 4)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprintLUTNetwork(ln4) != got {
				t.Error("MapK(n, 4) differs from Map(n)")
			}
		})
	}
}

// goldenMapK pins MapK at the other LUT sizes on every benchmark
// (index K; the K=4 entry is goldenK4): K=2 lowers Mux gates first,
// and K=5 and K=6 fill the wider cut arrays. The fingerprints were
// captured from the mapper that enumerated cuts without leaf
// signatures or reused scratch; the faster enumeration must keep them.
var goldenMapK = map[string][MaxK + 1]string{
	"des3":    {2: "58f89841d4a083ca", 3: "26905de40e399aa3", 5: "1168df00c62e5124", 6: "4f2cd5c3982180c5"},
	"fir":     {2: "cc7556ab9796fb1b", 3: "cbf08daf99cc3a3f", 5: "7ca600179119414d", 6: "6fca11435816b11a"},
	"iir":     {2: "23e42424c08d0328", 3: "e292f85d03ee7775", 5: "6299e14a170bfa49", 6: "6d825da2c44b3543"},
	"sha256":  {2: "90abc0fcb6dac637", 3: "6823e0b4a3f0541c", 5: "12e39f0c285c9cd5", 6: "5cc4b949e8ae9fdf"},
	"sasc":    {2: "bc8b5443ef5029b9", 3: "4a368cb6ee255577", 5: "e902009345d3fa18", 6: "4556c643e343f49f"},
	"usb_phy": {2: "366c73796772436a", 3: "5c9c48787f3843ac", 5: "d8859f937eeda409", 6: "6bbb42fb6c6b21ed"},
	"gcd":     {2: "625fa1e1e76f67f4", 3: "5d0385538ff0e6ba", 5: "7362792f4735d347", 6: "f37e853ccea58c36"},
}

// TestGoldenMapKAllK gates the mapping of every benchmark at every
// supported K against its pinned fingerprint.
func TestGoldenMapKAllK(t *testing.T) {
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			n := benchNetlist(t, b)
			for k := MinK; k <= MaxK; k++ {
				want := goldenMapK[b.Name][k]
				if k == DefaultK {
					want = goldenK4[b.Name]
				}
				ln, err := MapK(n, k)
				if err != nil {
					t.Fatalf("K=%d: %v", k, err)
				}
				if got := fingerprintLUTNetwork(ln); got != want {
					t.Errorf("K=%d mapping fingerprint = %s, golden %s", k, got, want)
				}
			}
		})
	}
}

// TestGoldenDeterministic reruns the frontend + mapper and demands a
// bit-identical network: the synthesis frontend's sorted map traversal
// makes whole-flow fingerprints reproducible across runs.
func TestGoldenDeterministic(t *testing.T) {
	for _, name := range []string{"gcd", "usb_phy"} {
		b, _ := bench.ByName(name)
		n1 := benchNetlist(t, b)
		n2 := benchNetlist(t, b)
		ln1, err := Map(n1)
		if err != nil {
			t.Fatal(err)
		}
		ln2, err := Map(n2)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprintLUTNetwork(ln1) != fingerprintLUTNetwork(ln2) {
			t.Errorf("%s: two frontend+map runs produced different networks", name)
		}
	}
}

// TestMapKRange rejects out-of-range LUT sizes.
func TestMapKRange(t *testing.T) {
	bd := netlist.NewBuilder("t")
	a := bd.Input("a")
	bd.Output("y", bd.Not(a))
	for _, k := range []int{0, 1, 7, -3} {
		if _, err := MapK(bd.N, k); err == nil {
			t.Errorf("MapK(k=%d) should fail", k)
		}
	}
}

// TestMapKEquivalenceAcrossK maps random netlists at every supported K
// and checks structural validity, the per-K input bound, and sequential
// equivalence against the gate netlist.
func TestMapKEquivalenceAcrossK(t *testing.T) {
	for k := MinK; k <= MaxK; k++ {
		k := k
		t.Run(fmt.Sprintf("K%d", k), func(t *testing.T) {
			for seed := int64(0); seed < 30; seed++ {
				r := rand.New(rand.NewSource(seed))
				n := opt.Optimize(randomNetlist(r))
				ln, err := MapK(n, k)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if ln.K != k {
					t.Fatalf("network K = %d, want %d", ln.K, k)
				}
				for i, nd := range ln.Nodes {
					if nd.Kind == LLUT && len(nd.In) > k {
						t.Fatalf("seed %d: LUT %d has %d inputs at K=%d", seed, i, len(nd.In), k)
					}
				}
				if err := ln.Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !equalOverRandom(t, n, ln, seed+17, 25) {
					t.Fatalf("seed %d: K=%d mapping is not equivalent", seed, k)
				}
			}
		})
	}
}

// TestMapKBenchmarkEquivalence maps the small sequential benchmarks at
// K in {3, 5, 6} and co-simulates against the gate netlist.
func TestMapKBenchmarkEquivalence(t *testing.T) {
	for _, name := range []string{"gcd", "usb_phy"} {
		b, _ := bench.ByName(name)
		n := benchNetlist(t, b)
		base, err := Map(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{3, 5, 6} {
			ln, err := MapK(n, k)
			if err != nil {
				t.Fatalf("%s K=%d: %v", name, k, err)
			}
			if !equalOverRandom(t, n, ln, 42, 200) {
				t.Errorf("%s: K=%d mapping differs from netlist", name, k)
			}
			// Larger K must never use more LUTs than the K=4 mapping in
			// these corpus designs (sanity of the cut enumeration).
			if k > 4 && ln.NumLUTs() > base.NumLUTs() {
				t.Errorf("%s: K=%d used %d LUTs vs %d at K=4", name, k, ln.NumLUTs(), base.NumLUTs())
			}
		}
	}
}

// TestLeafPats pins the canonical leaf variable patterns: bit r of
// pattern i must equal bit i of the row index r.
func TestLeafPats(t *testing.T) {
	for i := 0; i < MaxK; i++ {
		for r := 0; r < 64; r++ {
			want := uint64(r>>uint(i)) & 1
			got := (leafPats[i] >> uint(r)) & 1
			if got != want {
				t.Fatalf("leafPats[%d] bit %d = %d, want %d", i, r, got, want)
			}
		}
	}
}
