package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepGridIDsStableAndUnique(t *testing.T) {
	grid := sweepGrid()
	if len(grid) == 0 {
		t.Fatal("empty sweep grid")
	}
	seen := make(map[string]bool)
	for _, u := range grid {
		id := u.id()
		if seen[id] {
			t.Fatalf("duplicate unit id %s", id)
		}
		seen[id] = true
	}
}

func TestFilterGrid(t *testing.T) {
	grid := sweepGrid()
	attacks := filterGrid(grid, "attack:")
	if len(attacks) != len(attackTargets) {
		t.Fatalf("attack: filter kept %d units, want %d", len(attacks), len(attackTargets))
	}
	one := filterGrid(grid, "attack:xor2, impl:gcd")
	if len(one) != 2 {
		t.Fatalf("two-prefix filter kept %d units, want 2", len(one))
	}
	if len(filterGrid(grid, "nosuch:")) != 0 {
		t.Fatal("bogus prefix matched units")
	}
	if len(filterGrid(grid, "")) != len(grid) {
		t.Fatal("empty selector must keep the full grid")
	}
}

// cannedRunner returns a deterministic per-unit result without running
// any real flow: sweep-engine tests exercise the coordination
// machinery, not the benchmarks.
func cannedRunner(calls *atomic.Int64) func(ctx context.Context, u sweepUnit) (unitResult, error) {
	return func(ctx context.Context, u sweepUnit) (unitResult, error) {
		if calls != nil {
			calls.Add(1)
		}
		if err := ctx.Err(); err != nil {
			return unitResult{}, err
		}
		return unitResult{Attacks: []attackBench{{
			Target:  u.Target,
			KeyBits: int(len(u.id())),
			DIPs:    7,
		}}}, nil
	}
}

// newTestWorker builds a shard worker with a canned runner and a short
// lease TTL.
func newTestWorker(t *testing.T, dir, id string, ttl time.Duration, grid []sweepUnit, calls *atomic.Int64) *shardWorker {
	t.Helper()
	w, err := newShardWorker(dir, id, ttl, 2, grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.runner = cannedRunner(calls)
	return w
}

func runToCompletion(t *testing.T, w *shardWorker) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.run(ctx, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, done, err := w.complete(); err != nil || !done {
		t.Fatalf("sweep incomplete (err=%v)", err)
	}
}

// mergedBytes merges w's committed rows and returns the bytes
// writeReport writes for them.
func mergedBytes(t *testing.T, w *shardWorker) []byte {
	t.Helper()
	rep, err := w.merge()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := writeReport(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestShardMergeDeterministic pins the acceptance property of the
// sharded runner: a second worker on a completed data dir recomputes
// nothing and reproduces the report byte for byte — even when the dir
// holds nothing but a copy of the done markers.
func TestShardMergeDeterministic(t *testing.T) {
	dir := t.TempDir()
	grid := filterGrid(sweepGrid(), "attack:")
	var calls atomic.Int64

	w1 := newTestWorker(t, dir, "w1", time.Second, grid, &calls)
	runToCompletion(t, w1)
	b1 := mergedBytes(t, w1)
	ran := calls.Load()
	if ran != int64(len(grid)) {
		t.Fatalf("first pass ran %d units, want %d", ran, len(grid))
	}

	// A fresh worker (a separate process in production) finds every
	// unit committed: zero recomputes, pure merge.
	w2 := newTestWorker(t, dir, "w2", time.Second, grid, &calls)
	runToCompletion(t, w2)
	b2 := mergedBytes(t, w2)
	if calls.Load() != ran {
		t.Fatalf("resumed run recomputed units: %d calls, want %d", calls.Load(), ran)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("resumed merge is not byte-identical:\n%s\nvs\n%s", b1, b2)
	}

	// The done markers alone are the sweep's state: a fresh worker on a
	// directory holding only a copy of done/ recomputes nothing either.
	bare := t.TempDir()
	if err := os.CopyFS(filepath.Join(bare, "done"), os.DirFS(filepath.Join(dir, "done"))); err != nil {
		t.Fatal(err)
	}
	w3 := newTestWorker(t, bare, "w3", time.Second, grid, &calls)
	runToCompletion(t, w3)
	b3 := mergedBytes(t, w3)
	if calls.Load() != ran {
		t.Fatalf("worker on copied done/ recomputed units: %d calls, want %d", calls.Load(), ran)
	}
	if !bytes.Equal(b1, b3) {
		t.Fatalf("merge from copied done/ is not byte-identical:\n%s\nvs\n%s", b1, b3)
	}
}

// TestShardReclaimsKilledWorkerUnit simulates a worker killed mid-unit:
// its lease sits unexpired and unreleased on disk, and no result was
// committed. A different worker must wait out the TTL, reclaim the unit
// at the next epoch, and complete the grid.
func TestShardReclaimsKilledWorkerUnit(t *testing.T) {
	dir := t.TempDir()
	grid := filterGrid(sweepGrid(), "attack:xor2,attack:add4")
	if len(grid) != 2 {
		t.Fatalf("grid = %d units, want 2", len(grid))
	}

	// The victim claims a unit and "dies": no release, no renewal.
	dead := newTestWorker(t, dir, "dead", 300*time.Millisecond, grid, nil)
	if _, err := dead.lm.Acquire(grid[0].id()); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	surv := newTestWorker(t, dir, "surv", 300*time.Millisecond, grid, &calls)
	runToCompletion(t, surv)
	if got := surv.lm.Stats().Reclaims; got < 1 {
		t.Fatalf("survivor reclaimed %d leases, want >= 1", got)
	}
	commits, err := surv.lm.Commits()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range grid {
		c, ok := commits[u.id()]
		if !ok || c.Worker != "surv" {
			t.Fatalf("unit %s committed by %+v, want surv", u.id(), c)
		}
	}
	rep, err := surv.merge()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attacks) != 2 {
		t.Fatalf("merged %d attack rows, want 2", len(rep.Attacks))
	}
}

// TestShardAdoptsOwnLeaseAfterRestart pins the crash-restart fast
// path: a worker restarted under the same -worker-id re-acquires its
// own unexpired lease immediately (an adoption, no TTL wait).
func TestShardAdoptsOwnLeaseAfterRestart(t *testing.T) {
	dir := t.TempDir()
	grid := filterGrid(sweepGrid(), "attack:xor2")

	first := newTestWorker(t, dir, "w1", time.Hour, grid, nil)
	// Crash: the hour-long lease stays on disk.
	if _, err := first.lm.Acquire(grid[0].id()); err != nil {
		t.Fatal(err)
	}

	reborn := newTestWorker(t, dir, "w1", time.Hour, grid, nil)
	start := time.Now()
	runToCompletion(t, reborn)
	if e := time.Since(start); e > 30*time.Second {
		t.Fatalf("adoption took %s, should not wait out the TTL", e)
	}
	st := reborn.lm.Stats()
	if st.Adoptions < 1 {
		t.Fatalf("stats = %+v, want at least one adoption", st)
	}
}

// TestShardFailingUnitAbortsSweep pins failure propagation: a unit
// whose compute errors deterministically must abort the run with that
// error, not spin forever re-offering the unit.
func TestShardFailingUnitAbortsSweep(t *testing.T) {
	dir := t.TempDir()
	grid := filterGrid(sweepGrid(), "attack:xor2")
	w := newTestWorker(t, dir, "w1", time.Second, grid, nil)
	w.runner = func(ctx context.Context, u sweepUnit) (unitResult, error) {
		return unitResult{}, fmt.Errorf("boom: synthetic unit failure")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := w.run(ctx, time.Second)
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("boom")) {
		t.Fatalf("run error = %v, want the unit failure", err)
	}
	// The failed unit's lease was released, so a fixed-up retry need
	// not wait out the TTL.
	if _, held, err := w.lm.Holder(grid[0].id()); err != nil || held {
		t.Fatalf("failed unit still holds its lease (held=%v err=%v)", held, err)
	}
}

// TestShardDrainReleasesLeases pins the graceful-drain satellite: a
// canceled run stops claiming units and releases the leases its
// in-flight units held, so a successor need not wait out the TTL.
func TestShardDrainReleasesLeases(t *testing.T) {
	dir := t.TempDir()
	grid := filterGrid(sweepGrid(), "attack:")
	w := newTestWorker(t, dir, "w1", time.Hour, grid, nil)
	started := make(chan struct{}, len(grid))
	block := make(chan struct{})
	w.runner = func(ctx context.Context, u sweepUnit) (unitResult, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return unitResult{}, ctx.Err()
		case <-block:
			return cannedRunner(nil)(ctx, u)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.run(ctx, 2*time.Second) }()
	<-started // at least one unit is mid-compute and holds a lease
	cancel()  // SIGINT analog
	if err := <-errc; err == nil {
		t.Fatal("canceled run returned nil error")
	}
	close(block)
	// Every lease the worker held must be released: with an hour-long
	// TTL, anything left would block a successor for an hour.
	for _, u := range grid {
		if _, held, err := w.lm.Holder(u.id()); err != nil {
			t.Fatal(err)
		} else if held {
			t.Fatalf("unit %s still held after drain", u.id())
		}
	}
}

// TestSweepLocalLeavesNoDirectory pins the -json path: the sweep runs
// through the same slot pool over a temporary directory, which is gone
// by the time the report comes back.
func TestSweepLocalLeavesNoDirectory(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	rep, err := sweepLocal(filterGrid(sweepGrid(), "attack:xor2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attacks) != 1 || rep.Attacks[0].Target != "xor2" {
		t.Fatalf("attacks = %+v, want the xor2 row", rep.Attacks)
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("sweep left %d entries in the temporary directory", len(ents))
	}
}
