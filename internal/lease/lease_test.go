package lease

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock lets tests expire leases without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func openWorker(t *testing.T, dir, worker string, clk *fakeClock, ttl time.Duration) *Manager {
	t.Helper()
	opts := Options{TTL: ttl}
	if clk != nil {
		opts.Now = clk.Now
	}
	m, err := Open(dir, worker, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAcquireCommitLifecycle(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m := openWorker(t, dir, "w1", clk, time.Minute)

	l, err := m.Acquire("unit-a")
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 || l.Worker != "w1" {
		t.Fatalf("lease %+v, want epoch 1 worker w1", l)
	}
	if err := m.Renew(l); err != nil {
		t.Fatal(err)
	}
	first := json.RawMessage(`{"rows":[1,2,3]}`)
	if err := m.Commit(l, first); err != nil {
		t.Fatal(err)
	}
	c, ok, err := m.Committed("unit-a")
	if err != nil || !ok {
		t.Fatalf("committed: %v %v", ok, err)
	}
	if c.Worker != "w1" || c.Epoch != 1 {
		t.Fatalf("commit %+v, want w1@1", c)
	}
	if !bytes.Equal(c.Result, first) {
		t.Fatalf("committed result %s, want %s", c.Result, first)
	}
	// Re-commit of the same (worker, epoch) — the crashed-after-link
	// replay — is idempotent and keeps the first linked bytes.
	if err := m.Commit(l, json.RawMessage(`{"rows":[9]}`)); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}
	if c, _, err := m.Committed("unit-a"); err != nil || !bytes.Equal(c.Result, first) {
		t.Fatalf("result after re-commit %s (err %v), want %s", c.Result, err, first)
	}
	st := m.Stats()
	if st.Acquires != 1 || st.Renews != 1 || st.Commits != 1 {
		t.Fatalf("stats %+v", st)
	}
	// A committed unit refuses further acquisition with the typed
	// committed error.
	var comm *CommittedError
	if _, err := m.Acquire("unit-a"); !errors.As(err, &comm) {
		t.Fatalf("acquire after commit: %v, want *CommittedError", err)
	}
}

func TestHeldByLiveForeignLease(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Minute)
	b := openWorker(t, dir, "b", clk, time.Minute)

	if _, err := a.Acquire("u"); err != nil {
		t.Fatal(err)
	}
	_, err := b.Acquire("u")
	var held *HeldError
	if !errors.As(err, &held) {
		t.Fatalf("acquire of a held unit: %v, want *HeldError", err)
	}
	if held.Holder != "a" || held.Epoch != 1 {
		t.Fatalf("held detail %+v", held)
	}
	if b.Stats().HeldRefusals != 1 {
		t.Fatalf("held refusals = %d", b.Stats().HeldRefusals)
	}
	h, ok, err := b.Holder("u")
	if err != nil || !ok || h.Worker != "a" {
		t.Fatalf("holder = %+v %v %v", h, ok, err)
	}
}

func TestReclaimExpiredAndFenceZombie(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Minute)
	b := openWorker(t, dir, "b", clk, time.Minute)

	la, err := a.Acquire("u")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute) // a goes silent past its TTL

	lb, err := b.Acquire("u")
	if err != nil {
		t.Fatalf("reclaim of expired lease: %v", err)
	}
	if lb.Epoch != 2 {
		t.Fatalf("reclaim epoch %d, want 2", lb.Epoch)
	}
	if b.Stats().Reclaims != 1 {
		t.Fatalf("reclaims = %d", b.Stats().Reclaims)
	}

	// The zombie wakes: renew and commit must both be fenced with the
	// typed stale-epoch error.
	var stale *StaleEpochError
	if err := a.Renew(la); !errors.As(err, &stale) {
		t.Fatalf("zombie renew: %v, want *StaleEpochError", err)
	}
	if err := a.Commit(la, json.RawMessage(`"zombie"`)); !errors.As(err, &stale) {
		t.Fatalf("zombie commit: %v, want *StaleEpochError", err)
	}
	if stale.Epoch != 1 || stale.CurrentEpoch != 2 || stale.Holder != "b" {
		t.Fatalf("stale detail %+v", stale)
	}
	if a.Stats().Fenced != 1 {
		t.Fatalf("fenced = %d, want 1", a.Stats().Fenced)
	}

	// The reclaimer commits; exactly one marker exists.
	if err := b.Commit(lb, json.RawMessage(`"reclaimer"`)); err != nil {
		t.Fatal(err)
	}
	c, ok, _ := a.Committed("u")
	if !ok || c.Worker != "b" || c.Epoch != 2 || string(c.Result) != `"reclaimer"` {
		t.Fatalf("commit %+v, want b@2 with the reclaimer's result", c)
	}
	// Even after the commit, the zombie's retry stays fenced — the
	// lease history is never deleted, so its epoch can never look
	// current again.
	if err := a.Commit(la, json.RawMessage(`"zombie"`)); !errors.As(err, &stale) {
		t.Fatalf("zombie commit after b's commit: %v, want *StaleEpochError", err)
	}
}

func TestAdoptOwnLeaseAfterRestart(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Hour)
	if _, err := a.Acquire("u"); err != nil {
		t.Fatal(err)
	}
	// Crash-restart under the same worker id: the hour-long lease is
	// our own, so re-acquisition must not wait out the TTL.
	a2 := openWorker(t, dir, "a", clk, time.Hour)
	l, err := a2.Acquire("u")
	if err != nil {
		t.Fatalf("adoption: %v", err)
	}
	if l.Epoch != 2 {
		t.Fatalf("adoption epoch %d, want 2", l.Epoch)
	}
	if a2.Stats().Adoptions != 1 {
		t.Fatalf("adoptions = %d", a2.Stats().Adoptions)
	}
}

func TestReleaseAllowsImmediateReclaim(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Hour)
	b := openWorker(t, dir, "b", clk, time.Hour)

	la, err := a.Acquire("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Release(la); err != nil {
		t.Fatal(err)
	}
	// No clock advance: the release, not the TTL, freed the unit.
	lb, err := b.Acquire("u")
	if err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	if lb.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", lb.Epoch)
	}
	// Releasing a superseded lease is a harmless no-op.
	if err := a.Release(la); err != nil {
		t.Fatalf("stale release: %v", err)
	}
}

func TestGuardCancelsOnFence(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	// Short real-time ticks (TTL/3) so the guard notices quickly; the
	// fake clock controls expiry.
	a := openWorker(t, dir, "a", clk, 90*time.Millisecond)
	b := openWorker(t, dir, "b", clk, 90*time.Millisecond)

	la, err := a.Acquire("u")
	if err != nil {
		t.Fatal(err)
	}
	gctx, stop := a.Guard(context.Background(), la)
	defer stop()

	clk.Advance(time.Second)
	if _, err := b.Acquire("u"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("guard did not cancel after the lease was reclaimed")
	}
	var stale *StaleEpochError
	if cause := context.Cause(gctx); !errors.As(cause, &stale) {
		t.Fatalf("guard cause = %v, want *StaleEpochError", cause)
	}
}

func TestTornLeaseFileIsReclaimable(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	m := openWorker(t, dir, "a", clk, time.Minute)
	// A torn create left garbage at epoch 3: unowned, but the epoch
	// still counts (monotonicity lives in the file name).
	leases := filepath.Join(dir, "leases")
	if err := os.WriteFile(filepath.Join(leases, "u@3.lease"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := m.Acquire("u")
	if err != nil {
		t.Fatalf("acquire over torn lease: %v", err)
	}
	if l.Epoch != 4 {
		t.Fatalf("epoch %d, want 4", l.Epoch)
	}
}

func TestCommits(t *testing.T) {
	dir := t.TempDir()
	clk := newFakeClock()
	a := openWorker(t, dir, "a", clk, time.Minute)
	b := openWorker(t, dir, "b", clk, time.Minute)

	l1, _ := a.Acquire("u1")
	if err := a.Commit(l1, json.RawMessage(`{"u":1}`)); err != nil {
		t.Fatal(err)
	}
	l2, _ := a.Acquire("u2") // live
	_ = l2
	l3, _ := a.Acquire("u3")
	_ = a.Release(l3) // released
	l4, _ := b.Acquire("u4")
	_ = l4
	clk.Advance(2 * time.Minute) // u2 and u4 expire
	// u4 is reclaimed once (epoch 2) and left live.
	if _, err := b.Acquire("u4"); err != nil {
		t.Fatal(err)
	}

	// Only u1 is committed: live, released and reclaimed leases are not.
	cs, err := a.Commits()
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 1 || cs["u1"].Worker != "a" || string(cs["u1"].Result) != `{"u":1}` {
		t.Fatalf("commits %+v", cs)
	}

	// A damaged marker is an error that names its unit, never a panic
	// or a silently missing unit.
	if err := os.WriteFile(filepath.Join(dir, "done", "u5.done"), []byte("{garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Commits(); err == nil || !strings.Contains(err.Error(), `"u5"`) {
		t.Fatalf("commits over a garbage marker: %v, want an error naming u5", err)
	}
}

func TestEscapeRoundTrip(t *testing.T) {
	units := []string{
		"attack:xor2",
		"flow:gcd:cfg1",
		"weird@unit%name",
		"slash/unit\\back",
		"unicode-ünït",
		"spaces and\ttabs",
	}
	seen := make(map[string]bool)
	for _, u := range units {
		e := escapeUnit(u)
		if seen[e] {
			t.Fatalf("escape collision for %q", u)
		}
		seen[e] = true
		for _, c := range []byte(e) {
			if !isUnitChar(c) && c != '%' {
				t.Fatalf("escape %q of %q has unsafe byte %q", e, u, c)
			}
		}
		back, err := unescapeUnit(e)
		if err != nil {
			t.Fatal(err)
		}
		if back != u {
			t.Fatalf("round trip %q -> %q -> %q", u, e, back)
		}
	}
}

func TestWorkerNameValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "", Options{}); err == nil {
		t.Fatal("empty worker name accepted")
	}
	if _, err := Open(dir, "bad/name", Options{}); err == nil {
		t.Fatal("slash in worker name accepted")
	}
	if _, err := Open(dir, "ok.worker-1_x", Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireRaceSingleWinner(t *testing.T) {
	// N managers race to claim one unit at the same epoch: exactly one
	// link wins, everyone else gets the typed held error.
	dir := t.TempDir()
	clk := newFakeClock()
	const n = 8
	mgrs := make([]*Manager, n)
	for i := range mgrs {
		mgrs[i] = openWorker(t, dir, "w"+string(rune('a'+i)), clk, time.Minute)
	}
	var wg sync.WaitGroup
	wins := make(chan int, n)
	for i, m := range mgrs {
		wg.Add(1)
		go func(i int, m *Manager) {
			defer wg.Done()
			if _, err := m.Acquire("u"); err == nil {
				wins <- i
			} else {
				var held *HeldError
				if !errors.As(err, &held) {
					t.Errorf("racer %d: %v, want *HeldError", i, err)
				}
			}
		}(i, m)
	}
	wg.Wait()
	close(wins)
	won := 0
	for range wins {
		won++
	}
	if won != 1 {
		t.Fatalf("%d racers won, want exactly 1", won)
	}
}
