package pack

import (
	"fmt"
	"testing"

	"alice/internal/fabric"
)

// BenchmarkPack measures packing three corpus designs (small,
// arithmetic-heavy, large) onto a 40x40 fabric of the paper's family
// at LUT sizes 2 and 4.
func BenchmarkPack(b *testing.B) {
	for _, name := range []string{"gcd", "sha256", "des3"} {
		for _, k := range []int{2, 4} {
			ln := corpusLUTNetwork(b, name, k)
			arch := fabric.Params{LUTSize: k}.At(40)
			b.Run(fmt.Sprintf("%s/K%d", name, k), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Pack(ln, arch); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
