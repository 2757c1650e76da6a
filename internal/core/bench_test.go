package core

import (
	"context"
	"testing"

	"alice/internal/bench"
)

// BenchmarkCharacterizeClusters times the characterization stage alone,
// at parallelism 1 with no cache, on the two runs whose clusters repeat
// their instances most: gcd cfg2 (164 clusters over 10 distinct
// instances) and des3 cfg1 (218 clusters over 8).
func BenchmarkCharacterizeClusters(b *testing.B) {
	for _, c := range []struct {
		design string
		cfg    func() *Config
		name   string
	}{{"gcd", Cfg2, "gcd_cfg2"}, {"des3", Cfg1, "des3_cfg1"}} {
		bm, _ := bench.ByName(c.design)
		cfg := c.cfg()
		d, clusters := paperClusters(b, bm, cfg)
		b.Run(c.name, func(b *testing.B) {
			for b.Loop() {
				if _, err := CharacterizeClusters(context.Background(), d, clusters, cfg, CharacterizeOptions{Parallelism: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
