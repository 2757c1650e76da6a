package alice_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"alice"
)

// TestEngineConcurrentSharedCache drives one shared
// CharacterizationCache from every direction at once — RunBatch fan-out
// plus direct parallel Run calls on a second engine — and checks the
// runs stay deterministic: every report must select the same fabrics
// as a clean sequential run, and each solution fabric must carry the
// reference's structural report (the reports are made in the
// characterization workers and shared through the cache). Run with
// -race, this is the regression test for the Cache interface's
// concurrency contract.
func TestEngineConcurrentSharedCache(t *testing.T) {
	b, ok := alice.BenchmarkByName("gcd")
	if !ok {
		t.Fatal("gcd benchmark missing")
	}
	mkCfg := func() *alice.Config {
		cfg := alice.Cfg1()
		cfg.SelectedOutputs = b.SelectedOutputs
		return cfg
	}

	// Reference: sequential, uncached.
	ref, err := alice.NewEngine(alice.WithConfig(mkCfg())).RunSource(context.Background(), b.Source())
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	cache := alice.NewCharacterizationCache()
	ctx := context.Background()

	var wg sync.WaitGroup
	reports := make(chan *alice.Report, 32)
	errs := make(chan error, 32)

	// Direction 1: RunBatch over several copies of the design, all
	// through the shared cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng := alice.NewEngine(alice.WithConfig(mkCfg()), alice.WithCache(cache), alice.WithParallelism(4))
		jobs := make([]alice.BatchJob, 6)
		for i := range jobs {
			jobs[i] = alice.BatchJob{Name: "gcd", Source: b.Source()}
		}
		for _, res := range eng.RunBatch(ctx, jobs) {
			if res.Err != nil {
				errs <- res.Err
				continue
			}
			reports <- res.Report
		}
	}()

	// Direction 2: parallel Run calls on a second engine sharing the
	// same cache (the serve daemon's shape: one engine per job, one
	// cache per process).
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := alice.NewEngine(alice.WithConfig(mkCfg()), alice.WithCache(cache))
			ast, err := alice.Parse(b.Source())
			if err != nil {
				errs <- err
				return
			}
			rep, err := eng.Run(ctx, ast)
			if err != nil {
				errs <- err
				return
			}
			reports <- rep
		}()
	}
	wg.Wait()
	close(reports)
	close(errs)

	for err := range errs {
		t.Errorf("concurrent run failed: %v", err)
	}
	n := 0
	for rep := range reports {
		n++
		if rep.Err != nil {
			t.Errorf("concurrent run diagnostic: %v", rep.Err)
			continue
		}
		if rep.FabricSizes != ref.FabricSizes {
			t.Errorf("concurrent run selected %q, sequential reference %q", rep.FabricSizes, ref.FabricSizes)
			continue
		}
		for i, f := range rep.Solution.Fabrics {
			want := ref.Solution.Fabrics[i].Structural
			if f.Fabric.Structural == nil || !reflect.DeepEqual(f.Fabric.Structural, want) || !reflect.DeepEqual(f.Structural, want) {
				t.Errorf("concurrent run fabric %d: structural report differs from the sequential reference's", i)
			}
		}
	}
	if n != 12 {
		t.Fatalf("got %d reports, want 12", n)
	}
	if hits, misses, entries := cache.Stats(); hits == 0 || entries == 0 {
		t.Errorf("shared cache never hit (hits=%d misses=%d entries=%d)", hits, misses, entries)
	}
}
