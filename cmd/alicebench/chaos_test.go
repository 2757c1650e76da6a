package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"alice/internal/lease"
)

// TestShardChaosKillZombieFence is the acceptance chaos test: three
// workers share one sweep, one is killed mid-unit, one stalls past the
// lease TTL and wakes up as a zombie. The sweep must complete, the
// zombie's late commit must be fenced with a typed stale-epoch error,
// every unit must end with exactly one committed result, and the
// merged BENCH.json must be byte-identical to a single-process run.
func TestShardChaosKillZombieFence(t *testing.T) {
	const ttl = 300 * time.Millisecond
	grid := filterGrid(sweepGrid(), "attack:")
	if len(grid) < 3 {
		t.Fatalf("grid = %d units, want >= 3", len(grid))
	}
	dir := t.TempDir()

	// Worker "dead" claims a unit and is killed mid-unit: its lease
	// stays on disk, unreleased and renewing never again.
	dead := newTestWorker(t, dir, "dead", ttl, grid, nil)
	if _, err := dead.lm.Acquire(grid[0].id()); err != nil {
		t.Fatal(err)
	}

	// Worker "zombie" claims a different unit, computes its rows — and
	// then stalls holding them: no renewals, no commit, until the
	// survivor has long since reclaimed and committed the unit.
	zombie := newTestWorker(t, dir, "zombie", ttl, grid, nil)
	zu := grid[1]
	zl, err := zombie.lm.Acquire(zu.id())
	if err != nil {
		t.Fatal(err)
	}
	zres, err := cannedRunner(nil)(context.Background(), zu)
	if err != nil {
		t.Fatal(err)
	}
	zres.Attacks[0].DIPs = -1 // unlike the survivor's row, so a leak shows
	zrows, err := json.Marshal(zres)
	if err != nil {
		t.Fatal(err)
	}

	// The survivor runs the whole grid: it must wait out both TTLs,
	// reclaim the dead worker's unit and the zombie's, and finish.
	var calls atomic.Int64
	surv := newTestWorker(t, dir, "surv", ttl, grid, &calls)
	runToCompletion(t, surv)
	if got := surv.lm.Stats().Reclaims; got < 2 {
		t.Fatalf("survivor reclaimed %d leases, want >= 2 (dead + zombie)", got)
	}

	// The zombie wakes up and tries its late commit: it must be fenced
	// with the typed stale-epoch error — never a silent success, never
	// an untyped failure.
	err = zombie.lm.Commit(zl, zrows)
	var stale *lease.StaleEpochError
	if !errors.As(err, &stale) {
		t.Fatalf("zombie commit error = %v (%T), want *lease.StaleEpochError", err, err)
	}
	if stale.Unit != zu.id() || stale.Epoch >= stale.CurrentEpoch {
		t.Fatalf("stale-epoch detail %+v is inconsistent", stale)
	}
	if zombie.lm.Stats().Fenced != 1 {
		t.Fatalf("zombie fence counter = %d, want 1", zombie.lm.Stats().Fenced)
	}

	// Exactly one committed result per unit: one done marker each, and
	// every one names the survivor (the only worker that finished).
	commits, err := surv.lm.Commits()
	if err != nil {
		t.Fatal(err)
	}
	if len(commits) != len(grid) {
		t.Fatalf("%d commits for %d units", len(commits), len(grid))
	}
	ents, err := os.ReadDir(filepath.Join(dir, "done"))
	if err != nil {
		t.Fatal(err)
	}
	markers := 0
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".done" {
			markers++
		}
	}
	if markers != len(grid) {
		t.Fatalf("%d done markers on disk for %d units", markers, len(grid))
	}
	for id, c := range commits {
		if c.Worker != "surv" {
			t.Fatalf("unit %s committed by %q, want surv", id, c.Worker)
		}
	}

	// The merge must never see the zombie's rows and be byte-identical
	// to a clean single-process run of the same grid.
	solo := newTestWorker(t, t.TempDir(), "solo", ttl, grid, nil)
	runToCompletion(t, solo)
	chaosBytes, soloBytes := mergedBytes(t, surv), mergedBytes(t, solo)
	if !bytes.Equal(chaosBytes, soloBytes) {
		t.Fatalf("chaos-schedule merge differs from single-process run:\n%s\nvs\n%s",
			chaosBytes, soloBytes)
	}
}
