package alice

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// cfg1Winner runs the fast-mode cfg1 flow of a paper design and returns
// its winning solution with the configuration it ran under.
func cfg1Winner(t *testing.T, name string) (*Solution, *Config) {
	t.Helper()
	b, ok := BenchmarkByName(name)
	if !ok {
		t.Fatalf("no benchmark %s", name)
	}
	cfg := Cfg1()
	cfg.SelectedOutputs = b.SelectedOutputs
	r, err := NewEngine(WithConfig(cfg)).RunSource(context.Background(), b.Source())
	if err != nil || r.Err != nil {
		t.Fatalf("%s: %v / %v", name, err, r.Err)
	}
	return r.Solution, cfg
}

// fastCopy copies a solution so that implementing the copy leaves the
// fast-mode original untouched: Implement replaces each candidate's
// fabric.
func fastCopy(s *Solution) *Solution {
	c := &Solution{Score: s.Score}
	for _, f := range s.Fabrics {
		fc := *f
		c.Fabrics = append(c.Fabrics, &fc)
	}
	return c
}

// TestImplementParallelMatchesSequential: the two-fabric cfg1 winners
// (gcd 4x4+3x3, usb_phy 5x5+5x5) implement to the same bitstreams,
// placement costs, routing iterations and Fmax whether Implement runs
// their fabrics one at a time or both at once. Run it with -race
// -count=10.
func TestImplementParallelMatchesSequential(t *testing.T) {
	for _, name := range []string{"gcd", "usb_phy"} {
		sol, cfg := cfg1Winner(t, name)
		if len(sol.Fabrics) != 2 {
			t.Fatalf("%s: %d fabrics, want 2", name, len(sol.Fabrics))
		}
		for _, td := range []bool{false, true} {
			mcfg := *cfg
			mcfg.TimingDriven = td
			var runs [2][]string
			for i, par := range []int{1, 2} {
				s := fastCopy(sol)
				if err := NewEngine(WithConfig(&mcfg), WithParallelism(par)).Implement(context.Background(), s); err != nil {
					t.Fatalf("%s timing=%v parallelism %d: %v", name, td, par, err)
				}
				for _, f := range s.Fabrics {
					runs[i] = append(runs[i], fmt.Sprintf("%s fmax=%v", implFingerprint(name, f), f.Fabric.Timing.FmaxMHz))
				}
			}
			for j := range runs[0] {
				if runs[0][j] != runs[1][j] {
					t.Errorf("%s timing=%v fabric %d: parallelism 1 gives %q, parallelism 2 gives %q",
						name, td, j, runs[0][j], runs[1][j])
				}
			}
		}
	}
}

// TestImplementFloorAppliedInFabricOrder: with both fabrics in flight at
// once, a floor that the first fabric misses is still reported for the
// first fabric, and the second is not upgraded past it. In default mode
// the usb_phy 5x5 fabrics route to about 177 and 202 MHz.
func TestImplementFloorAppliedInFabricOrder(t *testing.T) {
	sol, cfg := cfg1Winner(t, "usb_phy")
	cfg.FmaxFloorMHz = 190
	s := fastCopy(sol)
	err := NewEngine(WithConfig(cfg), WithParallelism(2)).Implement(context.Background(), s)
	if !errors.Is(err, ErrBelowFmaxFloor) {
		t.Fatalf("want ErrBelowFmaxFloor, got %v", err)
	}
	if t0 := s.Fabrics[0].Fabric.Timing; s.Fabrics[0].Fabric.Bits == nil || t0.FmaxMHz >= cfg.FmaxFloorMHz {
		t.Fatalf("fabric 0 should be implemented below the floor, got bits=%v timing=%+v", s.Fabrics[0].Fabric.Bits != nil, t0)
	}
	if s.Fabrics[1].Fabric.Bits != nil {
		t.Fatal("fabric 1 was upgraded past the failing fabric 0")
	}
}

// stoppingCtx is a context that cancels itself at its limit-th Err call
// and then holds every caller that sees the cancellation for a moment,
// so a worker still running when Implement returns is caught in flight.
// Calls that start after the test marks the return are counted too.
type stoppingCtx struct {
	context.Context
	cancel context.CancelFunc
	limit  int

	mu       sync.Mutex
	calls    int
	inFlight int
	returned bool
	late     int // Err calls started after Implement returned
}

func newStoppingCtx(limit int) *stoppingCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &stoppingCtx{Context: ctx, cancel: cancel, limit: limit}
}

func (c *stoppingCtx) Err() error {
	c.mu.Lock()
	c.calls++
	if c.calls >= c.limit {
		c.cancel()
	}
	if c.returned {
		c.late++
	}
	c.inFlight++
	c.mu.Unlock()
	err := c.Context.Err()
	if err != nil {
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	c.inFlight--
	c.mu.Unlock()
	return err
}

// TestImplementCancelWaitsForWorkers: a context cancelled before the
// call or while both fabrics are being placed and routed makes
// Implement return the context's error, and only once every worker has
// returned: no worker is inside the context when it returns, and none
// touches it afterwards. Implementing both usb_phy fabrics checks the
// context about 210 times, so every limit below cancels a run with at
// least one fabric unfinished.
func TestImplementCancelWaitsForWorkers(t *testing.T) {
	sol, cfg := cfg1Winner(t, "usb_phy")
	for _, limit := range []int{1, 40, 120} {
		ctx := newStoppingCtx(limit)
		s := fastCopy(sol)
		err := NewEngine(WithConfig(cfg), WithParallelism(2)).Implement(ctx, s)
		ctx.mu.Lock()
		ctx.returned = true
		inFlight, calls := ctx.inFlight, ctx.calls
		ctx.mu.Unlock()
		if err != context.Canceled {
			t.Fatalf("limit %d: Implement returned %v, want context.Canceled", limit, err)
		}
		if inFlight != 0 {
			t.Fatalf("limit %d: Implement returned with %d workers still inside the context", limit, inFlight)
		}
		time.Sleep(20 * time.Millisecond)
		ctx.mu.Lock()
		late := ctx.late
		ctx.mu.Unlock()
		if late != 0 {
			t.Fatalf("limit %d: %d context calls after Implement returned", limit, late)
		}
		if calls < limit {
			t.Fatalf("limit %d: only %d context calls; the cancellation never happened", limit, calls)
		}
		// A fabric that finished before the cancellation may be
		// upgraded, but only behind every earlier fabric, as in a
		// sequential run; a context cancelled up front upgrades none.
		if limit == 1 && s.Fabrics[0].Fabric.Bits != nil {
			t.Errorf("limit 1: fabric 0 upgraded by an Implement cancelled up front")
		}
		for i := 1; i < len(s.Fabrics); i++ {
			if s.Fabrics[i].Fabric.Bits != nil && s.Fabrics[i-1].Fabric.Bits == nil {
				t.Errorf("limit %d: fabric %d upgraded past unfinished fabric %d", limit, i, i-1)
			}
		}
	}
}
