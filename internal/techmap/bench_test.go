package techmap

import (
	"fmt"
	"testing"

	"alice/internal/bench"
)

// TestMapAllocs bounds the mapper's allocations per netlist node at
// the paper's K=4: cut enumeration and truth tables run in scratch the
// mapper owns, so each node costs about one exact-size cut list and
// each LUT its input slice. Per-node candidate, cut or memo
// allocations creeping back in push the rate past the bound.
func TestMapAllocs(t *testing.T) {
	for _, b := range bench.All() {
		n := benchNetlist(t, b)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := MapK(n, DefaultK); err != nil {
				t.Fatal(err)
			}
		})
		if perNode := allocs / float64(len(n.Nodes)); perNode >= 4 {
			t.Errorf("%s: MapK allocated %.1f objects per netlist node (%d nodes), want < 4",
				b.Name, perNode, len(n.Nodes))
		}
	}
}

// BenchmarkMapK measures technology mapping of three corpus designs
// (small, arithmetic-heavy, large) at the narrowest, default and
// widest LUT sizes.
func BenchmarkMapK(b *testing.B) {
	for _, name := range []string{"gcd", "sha256", "des3"} {
		bm, _ := bench.ByName(name)
		n := benchNetlist(b, bm)
		for _, k := range []int{2, 4, 6} {
			b.Run(fmt.Sprintf("%s/K%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := MapK(n, k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
