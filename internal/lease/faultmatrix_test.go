package lease

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"alice/internal/iofault"
)

// ackedCommit records a Commit call that returned nil to the caller —
// the protocol's acknowledgement that exactly this (worker, epoch)
// owns the unit's result forever, and that result is these bytes.
type ackedCommit struct {
	worker string
	epoch  uint64
	result json.RawMessage
}

// resultOf is the distinct payload each commit attempt carries, so a
// marker that kept the wrong attempt's bytes cannot pass for the
// acknowledged one.
func resultOf(l *Lease) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"unit":%q,"worker":%q,"epoch":%d}`, l.Unit, l.Worker, l.Epoch))
}

// TestLeaseFaultMatrix extends the store fault matrix to every lease
// operation: for each fault mode and each Nth faultable filesystem
// call, a fixed protocol workload — acquire, renew, commit, release,
// and a reclaim-then-fence race — runs under the scripted fault. Then
// the disk heals, a fresh manager on the real OS finishes the sweep,
// and the two invariants the protocol sells are asserted in every
// cell: no unit ever carries two committed results, and no
// acknowledged commit is ever lost, reassigned, or left holding other
// bytes than the ones it acknowledged.
func TestLeaseFaultMatrix(t *testing.T) {
	const maxNth = 6
	const ttl = time.Minute
	units := []string{"u1", "u2", "u3"}

	modes := []struct {
		name  string
		rules func(n int) []*iofault.Rule
	}{
		{"failOpen", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpOpen, Nth: n}}
		}},
		{"failOnceOpen", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpOpen, Nth: n, Mode: iofault.FailOnce}}
		}},
		{"failWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n}}
		}},
		{"shortWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n, Mode: iofault.Short}}
		}},
		{"tornWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n, Mode: iofault.Torn}}
		}},
		{"failSync", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpSync, Nth: n}}
		}},
		{"crashAfterSync", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpSync, Nth: n, Mode: iofault.Crash}}
		}},
		{"failRename", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpRename, Nth: n}}
		}},
		{"crashAfterRename", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpRename, Nth: n, Mode: iofault.Crash}}
		}},
		{"failLink", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpLink, Nth: n}}
		}},
		{"crashAfterLink", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpLink, Nth: n, Mode: iofault.Crash}}
		}},
		{"failRemove", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpRemove, Nth: n}}
		}},
	}

	for _, mode := range modes {
		for n := 1; n <= maxNth; n++ {
			t.Run(fmt.Sprintf("%s/op%d", mode.name, n), func(t *testing.T) {
				dir := t.TempDir()
				clk := newFakeClock()
				script := iofault.NewScript(mode.rules(n)...)
				ffs := iofault.NewFS(nil, script)
				opts := Options{TTL: ttl, FS: ffs, Now: clk.Now}

				acks := make(map[string]ackedCommit)
				ack := func(l *Lease) {
					if prev, dup := acks[l.Unit]; dup {
						t.Fatalf("double commit on %s: %+v then %s@%d",
							l.Unit, prev, l.Worker, l.Epoch)
					}
					acks[l.Unit] = ackedCommit{l.Worker, l.Epoch, resultOf(l)}
				}

				// Phase 1: worker a runs the full op surface under fault.
				a, errA := Open(dir, "a", opts)
				var la3 *Lease
				if errA == nil {
					if l1, err := a.Acquire("u1"); err == nil {
						_ = a.Renew(l1) // transient renew failure is survivable
						if err := a.Commit(l1, resultOf(l1)); err == nil {
							ack(l1)
						}
					}
					if l2, err := a.Acquire("u2"); err == nil {
						_ = a.Release(l2)
					}
					la3, _ = a.Acquire("u3")
				}

				// Phase 2: a goes silent past its TTL; worker b reclaims
				// u3. If the reclaim lands, a is a zombie: its commit must
				// NEVER return nil — that window is the double-commit bug
				// this matrix exists to rule out.
				clk.Advance(2 * ttl)
				b, errB := Open(dir, "b", opts)
				if errB == nil && la3 != nil {
					if lb3, err := b.Acquire("u3"); err == nil {
						if err := a.Commit(la3, resultOf(la3)); err == nil {
							t.Fatalf("zombie commit acknowledged after reclaim (%s)", mode.name)
						}
						if err := b.Commit(lb3, resultOf(lb3)); err == nil {
							ack(lb3)
						}
					} else if err := a.Commit(la3, resultOf(la3)); err == nil {
						// b's claim never landed; a is still current and
						// its late commit is a legitimate single ack.
						ack(la3)
					}
				}

				// Reboot: the disk heals, a fresh worker on the real OS
				// picks up whatever is left and finishes the sweep.
				script.Clear()
				clk.Advance(2 * ttl)
				c, err := Open(dir, "c", Options{TTL: ttl, Now: clk.Now})
				if err != nil {
					t.Fatalf("open after heal: %v", err)
				}
				for _, u := range units {
					cm, ok, err := c.Committed(u)
					if err != nil {
						t.Fatalf("committed(%s) after heal: %v", u, err)
					}
					if want, acked := acks[u]; acked {
						// Invariant: an acknowledged commit survives any
						// fault schedule, with its identity intact.
						if !ok {
							t.Fatalf("acked unit %s lost after %s", u, mode.name)
						}
						if cm.Worker != want.worker || cm.Epoch != want.epoch {
							t.Fatalf("acked unit %s reassigned: %s@%d, want %s@%d",
								u, cm.Worker, cm.Epoch, want.worker, want.epoch)
						}
						if !bytes.Equal(cm.Result, want.result) {
							t.Fatalf("acked unit %s holds result %s, want %s", u, cm.Result, want.result)
						}
						continue
					}
					if !ok {
						// Unfinished after the fault session: the unit must
						// still be claimable and committable.
						lc, err := c.Acquire(u)
						if err != nil {
							t.Fatalf("acquire(%s) after heal: %v", u, err)
						}
						if err := c.Commit(lc, resultOf(lc)); err != nil {
							t.Fatalf("commit(%s) after heal: %v", u, err)
						}
						ack(lc)
						if cm, _, err := c.Committed(u); err != nil || !bytes.Equal(cm.Result, acks[u].result) {
							t.Fatalf("unit %s committed after heal holds %s (err %v), want %s",
								u, cm.Result, err, acks[u].result)
						}
					}
				}

				// Every unit ends with exactly one done marker on disk.
				ents, err := os.ReadDir(filepath.Join(dir, "done"))
				if err != nil {
					t.Fatal(err)
				}
				markers := 0
				for _, e := range ents {
					if strings.HasSuffix(e.Name(), ".done") {
						markers++
					}
				}
				if markers != len(units) {
					t.Fatalf("%d done markers for %d units after %s/op%d",
						markers, len(units), mode.name, n)
				}
				// Every marker decodes, with its result, into one commit.
				cs, err := c.Commits()
				if err != nil {
					t.Fatalf("commits after heal: %v", err)
				}
				if len(cs) != len(units) {
					t.Fatalf("%d decoded commits, want %d", len(cs), len(units))
				}
			})
		}
	}
}
