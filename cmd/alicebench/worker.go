package main

// The fault-tolerant multi-process sweep engine behind -shard and -json.
//
// N alicebench processes share one data directory and coordinate unit
// ownership through internal/lease: a unit is claimed with an
// epoch-fenced lease file, computed under a heartbeat Guard, and
// committed with the lease manager's exactly-once done marker, which
// carries the unit's JSON rows. A worker that dies mid-unit stops
// renewing; after the TTL any survivor reclaims the unit at the next
// epoch. A worker that merely stalled (a zombie) wakes to find its
// commit fenced with a typed *lease.StaleEpochError — its rows never
// enter the merge.
//
// The merge decodes the done markers in canonical grid order. Since
// exactly one result per unit ever commits and the grid order is fixed,
// the merged BENCH.json is byte-identical regardless of worker count,
// crash schedule, or reclamation history, and a sweep's whole state is
// the files in its data directory.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"syscall"
	"time"

	"alice/internal/lease"
)

// shardWorker is one sweep worker process: a lease manager over the
// shared directory and a pool of slots that claim, compute and commit
// units.
type shardWorker struct {
	workers  int
	grid     []sweepUnit
	poll     time.Duration
	lm       *lease.Manager
	progress func(format string, args ...any)
	// runner executes one unit; tests substitute a canned runner.
	runner func(ctx context.Context, u sweepUnit) (unitResult, error)

	mu sync.Mutex
	// claimed holds the units a slot of this process has leased, so no
	// sibling slot adopts (and thereby fences) the lease.
	claimed map[string]bool
	// settled is closed and replaced whenever a local unit settles,
	// waking the slots that found nothing to claim.
	settled chan struct{}
}

// newShardWorker opens the worker's lease manager on dataDir.
func newShardWorker(dataDir, workerID string, ttl time.Duration, workers int, grid []sweepUnit, progress func(format string, args ...any)) (*shardWorker, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if progress == nil {
		progress = func(string, ...any) {}
	}
	lm, err := lease.Open(dataDir, workerID, lease.Options{TTL: ttl})
	if err != nil {
		return nil, err
	}
	w := &shardWorker{
		workers:  workers,
		grid:     grid,
		poll:     lm.TTL() / 3,
		lm:       lm,
		progress: progress,
		runner:   runUnit,
		claimed:  make(map[string]bool),
		settled:  make(chan struct{}),
	}
	if w.poll <= 0 {
		w.poll = time.Millisecond
	}
	return w, nil
}

// run drives the slot pool until the grid is fully committed, a unit
// fails, or ctx is canceled (SIGINT/SIGTERM graceful drain: stop
// claiming new units, give in-flight ones the drain budget to finish
// and commit, then cancel them; each gives its lease back).
func (w *shardWorker) run(ctx context.Context, drain time.Duration) error {
	claiming, stopClaiming := context.WithCancelCause(ctx)
	defer stopClaiming(nil)
	work, cancelWork := context.WithCancel(context.WithoutCancel(ctx))
	defer cancelWork()
	stopDrain := context.AfterFunc(ctx, func() { time.AfterFunc(drain, cancelWork) })
	defer stopDrain()

	var wg sync.WaitGroup
	for range w.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.slot(claiming, work); err != nil {
				stopClaiming(err)
			}
		}()
	}
	wg.Wait()
	return context.Cause(claiming)
}

// slot claims, computes and commits units until every unit is
// committed or ctx stops the claiming. Units compute under work, which
// outlives ctx by the drain budget.
func (w *shardWorker) slot(ctx, work context.Context) error {
	for ctx.Err() == nil {
		w.mu.Lock()
		wake := w.settled
		w.mu.Unlock()
		l, u, done, err := w.claim()
		if err != nil || done {
			return err
		}
		if l == nil {
			select {
			case <-ctx.Done():
			case <-wake:
			case <-time.After(w.poll):
			}
			continue
		}
		if err := w.process(work, l, u); err != nil {
			return err
		}
		w.mu.Lock()
		delete(w.claimed, u.id())
		close(w.settled)
		w.settled = make(chan struct{})
		w.mu.Unlock()
	}
	return nil
}

// claim leases the first uncommitted grid unit that no slot of this
// process holds, skipping units under a live foreign lease or committed
// meanwhile. It returns a nil lease when nothing is claimable now, and
// done once every unit is committed.
func (w *shardWorker) claim() (*lease.Lease, sweepUnit, bool, error) {
	commits, err := w.lm.Commits()
	if err != nil {
		return nil, sweepUnit{}, false, err
	}
	done := true
	for _, u := range w.grid {
		id := u.id()
		if _, ok := commits[id]; ok {
			continue
		}
		done = false
		w.mu.Lock()
		mine := w.claimed[id]
		w.claimed[id] = true
		w.mu.Unlock()
		if mine {
			continue
		}
		l, err := w.lm.Acquire(id)
		if err == nil {
			return l, u, false, nil
		}
		w.mu.Lock()
		delete(w.claimed, id)
		w.mu.Unlock()
		var held *lease.HeldError
		var comm *lease.CommittedError
		if !errors.As(err, &held) && !errors.As(err, &comm) {
			return nil, sweepUnit{}, false, err
		}
	}
	return nil, sweepUnit{}, done, nil
}

// process computes u under l and commits its rows. A lost lease, a
// fenced commit and a unit already committed elsewhere are logged, not
// returned; so is a unit the drain cut short.
func (w *shardWorker) process(work context.Context, l *lease.Lease, u sweepUnit) error {
	id := u.id()
	committed := false
	defer func() {
		if !committed {
			// Give the unit back at once so no claimant waits out the
			// TTL — the graceful half of every exit without a commit.
			_ = w.lm.Release(l)
		}
	}()
	gctx, stopGuard := w.lm.Guard(work, l)
	defer stopGuard()

	res, err := w.runner(gctx, u)
	if err != nil {
		switch {
		case work.Err() != nil:
			w.progress("  %s interrupted", id)
			return nil
		case gctx.Err() != nil:
			w.progress("  %s lost: %v", id, context.Cause(gctx))
			return nil
		}
		return fmt.Errorf("unit %s: %w", id, err)
	}
	rows, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("unit %s: %w", id, err)
	}
	err = w.lm.Commit(l, rows)
	var stale *lease.StaleEpochError
	var comm *lease.CommittedError
	switch {
	case err == nil:
		committed = true
		w.progress("  %s committed (epoch %d)", id, l.Epoch)
	case errors.As(err, &stale):
		w.progress("  %s fenced: epoch %d superseded by worker %s", id, l.Epoch, stale.Holder)
	case errors.As(err, &comm):
		w.progress("  %s already committed by worker %s", id, comm.By.Worker)
	default:
		return fmt.Errorf("unit %s: %w", id, err)
	}
	return nil
}

// complete reports whether every grid unit has a committed result, and
// how many do.
func (w *shardWorker) complete() (int, bool, error) {
	commits, err := w.lm.Commits()
	if err != nil {
		return 0, false, err
	}
	n := 0
	for _, u := range w.grid {
		if _, ok := commits[u.id()]; ok {
			n++
		}
	}
	return n, n == len(w.grid), nil
}

// merge assembles the report from the rows the done markers carry, in
// canonical grid order.
func (w *shardWorker) merge() (*benchReport, error) {
	commits, err := w.lm.Commits()
	if err != nil {
		return nil, err
	}
	results := make([]unitResult, len(w.grid))
	for i, u := range w.grid {
		c, ok := commits[u.id()]
		if !ok {
			return nil, fmt.Errorf("unit %s has no committed result", u.id())
		}
		if err := json.Unmarshal(c.Result, &results[i]); err != nil {
			return nil, fmt.Errorf("unit %s: decoding committed result: %w", u.id(), err)
		}
	}
	return mergeUnits(results), nil
}

// sweepLocal runs grid on one process over a temporary data directory,
// removed on return, and merges the rows. An interrupt cancels the
// in-flight units at once: nothing outlives the directory to resume.
func sweepLocal(grid []sweepUnit) (*benchReport, error) {
	dir, err := os.MkdirTemp("", "alicebench-sweep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, err := newShardWorker(dir, "local", 0, 0, grid, nil)
	if err != nil {
		return nil, err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := w.run(ctx, 0); err != nil {
		return nil, err
	}
	return w.merge()
}

// runSharded is the -shard entry point: a resumable, multi-process
// BENCH.json sweep coordinated under dataDir. Any number of processes
// may run this concurrently on the same directory (each with a unique
// -worker-id); re-running after a crash resumes exactly where the dead
// worker stopped, and a complete sweep just re-merges, byte-
// identically.
func runSharded(dataDir, workerID string, workers int, ttl time.Duration, gridSelector, outPath string, noWarmup bool) {
	if workerID == "" {
		workerID = fmt.Sprintf("w%d", os.Getpid())
	}
	grid := filterGrid(sweepGrid(noWarmup), gridSelector)
	if len(grid) == 0 {
		check(fmt.Errorf("grid selector %q matches no sweep units", gridSelector))
	}
	w, err := newShardWorker(dataDir, workerID, ttl, workers, grid, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	check(err)
	fmt.Printf("sharded sweep: %d units, worker %s (%d slots, lease TTL %s)\n",
		len(grid), workerID, w.workers, w.lm.TTL())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	runErr := w.run(ctx, w.lm.TTL())
	n, done, err := w.complete()
	check(err)
	if !done {
		if ctx.Err() != nil {
			fmt.Printf("sweep interrupted: %d/%d units committed, leases released; resume with the same -data\n",
				n, len(grid))
			os.Exit(1)
		}
		if runErr != nil {
			check(runErr)
		}
		check(fmt.Errorf("sweep incomplete: %d/%d units committed", n, len(grid)))
	}
	rep, err := w.merge()
	check(err)
	check(writeReport(rep, outPath))
	ls := w.lm.Stats()
	fmt.Printf("wrote %s: %d flow runs, %d implementations, %d attacks, %d sim rows, %d structural rows\n",
		outPath, len(rep.Designs), len(rep.Implement), len(rep.Attacks), len(rep.Sims), len(rep.Structural))
	fmt.Printf("worker %s: %d acquired, %d adopted, %d reclaimed, %d committed, %d fenced\n",
		workerID, ls.Acquires, ls.Adoptions, ls.Reclaims, ls.Commits, ls.Fenced)
}
