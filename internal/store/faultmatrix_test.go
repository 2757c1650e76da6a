package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"alice/internal/iofault"
)

// seedLog creates a healthy log at path with one committed record, so
// fault sessions open it without any replay-time writes (magic
// stamping) muddying the injection-point counts.
func seedLog(t *testing.T, path string) {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	if err := st.Put("seed", []byte("seed-value")); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("seed close: %v", err)
	}
}

// TestFaultMatrix walks every write-path injection point: for each
// fault mode and each Nth operation, it runs a fixed Put workload
// under the scripted fault, heals the "disk", reopens, and asserts the
// invariant the store sells: an acknowledged Put is never lost, and a
// failed session never corrupts the log (reopen succeeds; ErrCorrupt
// would mean the store let a partial frame become mid-log damage).
func TestFaultMatrix(t *testing.T) {
	const numPuts = 6
	value := func(i int) []byte {
		return []byte(strings.Repeat(fmt.Sprintf("v%d-", i), 8))
	}

	modes := []struct {
		name  string
		rules func(n int) []*iofault.Rule
		// seals reports whether the fault is expected to seal the
		// write path (vs roll back and keep accepting).
		seals bool
	}{
		{"failWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n}}
		}, false},
		{"failOnceWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n, Mode: iofault.FailOnce}}
		}, false},
		{"shortWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n, Mode: iofault.Short}}
		}, false},
		{"tornWrite", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpWrite, Nth: n, Mode: iofault.Torn}}
		}, true},
		{"failSync", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpSync, Nth: n}}
		}, true},
		{"failOnceSync", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpSync, Nth: n, Mode: iofault.FailOnce}}
		}, true},
		{"crashAfterSync", func(n int) []*iofault.Rule {
			return []*iofault.Rule{{Op: iofault.OpSync, Nth: n, Mode: iofault.Crash}}
		}, true},
		{"shortWriteRollbackFails", func(n int) []*iofault.Rule {
			return []*iofault.Rule{
				{Op: iofault.OpWrite, Nth: n, Mode: iofault.Short},
				{Op: iofault.OpTruncate, Nth: 1},
			}
		}, true},
	}

	for _, mode := range modes {
		for n := 1; n <= numPuts; n++ {
			t.Run(fmt.Sprintf("%s/op%d", mode.name, n), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "log")
				seedLog(t, path)

				script := iofault.NewScript(mode.rules(n)...)
				fs := iofault.NewFS(nil, script)
				st, err := Open(path, Options{FS: fs})
				if err != nil {
					t.Fatalf("open under fault FS: %v", err)
				}

				acked := map[string][]byte{"seed": []byte("seed-value")}
				sawError := false
				for i := 0; i < numPuts; i++ {
					key := fmt.Sprintf("k%d", i)
					val := value(i)
					if err := st.Put(key, val); err == nil {
						acked[key] = val
					} else {
						sawError = true
					}
				}
				if !sawError {
					t.Fatalf("no Put saw the scripted fault (mode wired wrong?)")
				}

				if mode.seals {
					if st.Sealed() == nil {
						t.Fatalf("store not sealed after %s", mode.name)
					}
					// Sealed ≠ dead: reads keep serving from memory.
					if v, ok := st.Get("seed"); !ok || string(v) != "seed-value" {
						t.Fatalf("sealed store lost in-memory reads: %q %v", v, ok)
					}
					if err := st.Put("while-sealed", []byte("x")); !errors.Is(err, ErrSealed) {
						t.Fatalf("sealed Put error = %v, want ErrSealed", err)
					}
				}

				// The disk heals; a sealed store must come back via
				// Reopen, an unsealed one must just keep going.
				script.Clear()
				if st.Sealed() != nil {
					if err := st.Reopen(); err != nil {
						t.Fatalf("Reopen after heal: %v", err)
					}
					if st.Sealed() != nil {
						t.Fatalf("Reopen did not lift the seal")
					}
				}
				if err := st.Put("healed", []byte("healed-value")); err != nil {
					t.Fatalf("Put after heal: %v", err)
				}
				acked["healed"] = []byte("healed-value")
				st.Close()

				// Reboot: a fresh process on the real OS must see every
				// acknowledged record. An Open error here would mean the
				// fault session corrupted the log.
				st2, err := Open(path)
				if err != nil {
					t.Fatalf("reopen after reboot: %v", err)
				}
				defer st2.Close()
				for k, want := range acked {
					got, ok := st2.Get(k)
					if !ok {
						t.Errorf("acknowledged record %q lost after %s", k, mode.name)
						continue
					}
					if string(got) != string(want) {
						t.Errorf("record %q = %q, want %q", k, got, want)
					}
				}
			})
		}
	}
}

// TestRollbackKeepsSessionAlive pins the append-rollback behaviour: a
// failed write is cut back off the log and the very next Put in the
// same session succeeds and lands cleanly after the last committed
// frame.
func TestRollbackKeepsSessionAlive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	seedLog(t, path)
	script := iofault.NewScript(&iofault.Rule{Op: iofault.OpWrite, Nth: 2, Mode: iofault.Short, Heal: true})
	st, err := Open(path, Options{FS: iofault.NewFS(nil, script)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("a", []byte("1")); err != nil {
		t.Fatalf("put a: %v", err)
	}
	if err := st.Put("b", []byte("2")); err == nil {
		t.Fatalf("put b did not see the short write")
	}
	if got := st.Stats().Rollbacks; got != 1 {
		t.Fatalf("rollbacks = %d, want 1", got)
	}
	if st.Sealed() != nil {
		t.Fatalf("rolled-back store sealed: %v", st.Sealed())
	}
	if err := st.Put("c", []byte("3")); err != nil {
		t.Fatalf("put c after rollback: %v", err)
	}
	st.Close()

	st2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	for _, k := range []string{"seed", "a", "c"} {
		if _, ok := st2.Get(k); !ok {
			t.Errorf("record %q lost", k)
		}
	}
	if _, ok := st2.Get("b"); ok {
		t.Errorf("unacknowledged, rolled-back record %q present", "b")
	}
	if st2.Stats().Truncated != 0 {
		t.Errorf("reopen truncated %d bytes; rollback left a dirty tail", st2.Stats().Truncated)
	}
}

// TestOpenRefusesWhenTornTailCannotBeCut: recovery itself needs the
// disk; if the truncate that removes a torn tail fails, Open must
// return the error instead of pretending the log is clean.
func TestOpenRefusesWhenTornTailCannotBeCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	seedLog(t, path)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x01, 0xAA, 0xBB}) // torn frame prefix
	f.Close()

	script := iofault.NewScript(&iofault.Rule{Op: iofault.OpTruncate, Nth: 1})
	if _, err := Open(path, Options{FS: iofault.NewFS(nil, script)}); err == nil {
		t.Fatalf("Open succeeded with an uncuttable torn tail")
	}
	// With a healthy disk the same log recovers.
	st, err := Open(path)
	if err != nil {
		t.Fatalf("healthy reopen: %v", err)
	}
	defer st.Close()
	if _, ok := st.Get("seed"); !ok {
		t.Fatalf("seed record lost")
	}
}

// TestCompactFaults walks the compaction injection points: a failed
// rename keeps the old log intact and the store writable; a crash
// right after the rename leaves the compacted log as the valid state;
// a failed post-rename reopen seals the store and Reopen heals it.
func TestCompactFaults(t *testing.T) {
	setup := func(t *testing.T, fs iofault.FS) (*Store, string) {
		path := filepath.Join(t.TempDir(), "log")
		seedLog(t, path)
		st, err := Open(path, Options{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		st.Put("live", []byte("live-value"))
		st.Put("dead", []byte("x"))
		st.Delete("dead")
		return st, path
	}

	t.Run("renameFails", func(t *testing.T) {
		script := iofault.NewScript(&iofault.Rule{Op: iofault.OpRename, Nth: 1, Mode: iofault.FailOnce})
		st, path := setup(t, iofault.NewFS(nil, script))
		if err := st.Compact(); err == nil {
			t.Fatalf("compact did not see the rename fault")
		}
		// Old log intact, store still writable; a later compact works.
		if err := st.Put("after", []byte("y")); err != nil {
			t.Fatalf("put after failed compact: %v", err)
		}
		if err := st.Compact(); err != nil {
			t.Fatalf("second compact: %v", err)
		}
		st.Close()
		verifyLive(t, path)
	})

	t.Run("crashAfterRename", func(t *testing.T) {
		script := iofault.NewScript(&iofault.Rule{Op: iofault.OpRename, Nth: 1, Mode: iofault.Crash})
		st, path := setup(t, iofault.NewFS(nil, script))
		if err := st.Compact(); err == nil {
			t.Fatalf("compact did not crash")
		}
		st.Close()
		verifyLive(t, path)
	})

	t.Run("postRenameReopenFails", func(t *testing.T) {
		// The compacted log lands (rename ok) but reopening it fails:
		// the store must seal, and Reopen must heal. Opens through this
		// FS: #1 setup's Open, #2 the .compact temp file, #3 the
		// post-rename reopen — the injection point.
		script := iofault.NewScript(&iofault.Rule{Op: iofault.OpOpen, Nth: 3, Mode: iofault.FailOnce})
		st, path := setup(t, iofault.NewFS(nil, script))
		if err := st.Compact(); err == nil {
			t.Fatalf("compact did not see the open fault")
		}
		if st.Sealed() == nil {
			t.Fatalf("store not sealed after losing its descriptor")
		}
		if err := st.Reopen(); err != nil {
			t.Fatalf("Reopen: %v", err)
		}
		if err := st.Put("after", []byte("y")); err != nil {
			t.Fatalf("put after heal: %v", err)
		}
		st.Close()
		verifyLive(t, path)
	})
}

// verifyLive reopens path on the real OS and checks the canonical
// live set of the compaction tests.
func verifyLive(t *testing.T, path string) {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatalf("verify reopen: %v", err)
	}
	defer st.Close()
	if v, ok := st.Get("live"); !ok || string(v) != "live-value" {
		t.Errorf("live record: %q %v", v, ok)
	}
	if _, ok := st.Get("seed"); !ok {
		t.Errorf("seed record lost")
	}
	if _, ok := st.Get("dead"); ok {
		t.Errorf("deleted record resurrected")
	}
}

// TestStaleCompactFileRemovedOnOpen: a crash between writing the
// .compact temp file and renaming it leaves a stale sibling; Open must
// clean it up and serve from the main log.
func TestStaleCompactFileRemovedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	seedLog(t, path)
	stale := path + ".compact"
	if err := os.WriteFile(stale, []byte("half-written compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatalf("open with stale compact file: %v", err)
	}
	defer st.Close()
	if _, ok := st.Get("seed"); !ok {
		t.Fatalf("seed record lost")
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale compact file not removed: %v", err)
	}
}

// blockingFS opens real files whose Sync, while armed, signals entered
// and then waits for release: a disk that holds one fsync for as long
// as the test likes.
type blockingFS struct {
	iofault.OS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

type blockingFile struct {
	iofault.File
	fs *blockingFS
}

func (fs *blockingFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := fs.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &blockingFile{File: f, fs: fs}, nil
}

func (f *blockingFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestBlockedSyncLeavesReadersFree holds a Put's fsync and checks that
// every reader answers at once with the state before the Put, and that
// the value appears only once the Put is durable.
func TestBlockedSyncLeavesReadersFree(t *testing.T) {
	fs := &blockingFS{entered: make(chan struct{}, 1), release: make(chan struct{})}
	st, err := Open(filepath.Join(t.TempDir(), "log"), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Put("k", []byte("old")); err != nil {
		t.Fatal(err)
	}

	fs.armed.Store(true)
	var once sync.Once
	unblock := func() {
		once.Do(func() {
			fs.armed.Store(false)
			close(fs.release)
		})
	}
	defer unblock()
	putDone := make(chan error, 1)
	go func() { putDone <- st.Put("k", []byte("new")) }()
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the Put never reached its fsync")
	}

	// within fails the test unless read returns while the fsync is held.
	within := func(name string, read func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			read()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			// Let the reader finish before the test does.
			unblock()
			<-done
			t.Fatalf("%s waited for another writer's fsync", name)
		}
	}
	within("Get", func() {
		if v, ok := st.Get("k"); !ok || string(v) != "old" {
			t.Errorf("Get during the fsync = %q, %v; want the old value", v, ok)
		}
	})
	var snap *Snapshot
	within("Snapshot", func() { snap = st.Snapshot() })
	within("Stats", func() {
		if got := st.Stats(); got.Puts != 1 || got.Records != 1 {
			t.Errorf("Stats during the fsync = %+v; want the state before the Put", got)
		}
	})
	within("Sealed", func() {
		if err := st.Sealed(); err != nil {
			t.Errorf("Sealed during the fsync = %v", err)
		}
	})
	within("Len", func() {
		if n := st.Len(); n != 1 {
			t.Errorf("Len during the fsync = %d", n)
		}
	})

	unblock()
	if err := <-putDone; err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, ok := st.Get("k"); !ok || string(v) != "new" {
		t.Fatalf("Get after the Put = %q, %v; want the new value", v, ok)
	}
	if v, _ := snap.Get("k"); string(v) != "old" {
		t.Errorf("snapshot taken during the fsync = %q; want the old value", v)
	}
	if got := st.Stats().Puts; got != 2 {
		t.Errorf("Puts after the Put = %d, want 2", got)
	}
}
