package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.log")
	s, err := Open(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s, path
}

func TestPutGetReopen(t *testing.T) {
	s, path := openTemp(t)
	want := map[string][]byte{
		"a":          []byte("alpha"),
		"b":          []byte(""),
		"config\x00": []byte{0, 1, 2, 255},
	}
	for k, v := range want {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite: last write wins.
	if err := s.Put("a", []byte("alpha2")); err != nil {
		t.Fatal(err)
	}
	want["a"] = []byte("alpha2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s2.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Errorf("reopened Get(%q) = %q, %v; want %q", k, got, ok, v)
		}
	}
	if st := s2.Stats(); st.Recovered != 4 {
		t.Errorf("Recovered = %d, want 4 (3 puts + 1 overwrite)", st.Recovered)
	}
}

func TestValueIsolation(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	v := []byte("abc")
	s.Put("k", v)
	v[0] = 'X' // caller mutates its slice after Put
	got, _ := s.Get("k")
	if string(got) != "abc" {
		t.Fatalf("Put did not copy: got %q", got)
	}
	got[0] = 'Y' // caller mutates the returned slice
	got2, _ := s.Get("k")
	if string(got2) != "abc" {
		t.Fatalf("Get did not copy: got %q", got2)
	}
}

func TestDelete(t *testing.T) {
	s, path := openTemp(t)
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatal(err) // deleting an absent key is a no-op
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still live")
	}
	s.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get("a"); ok {
		t.Fatal("tombstone not replayed: deleted key resurrected on reopen")
	}
	if _, ok := s2.Get("b"); !ok {
		t.Fatal("surviving key lost")
	}
}

// TestTornTailRecovery is the acceptance-criteria crash test: a store
// whose log ends in a partially written frame (crash mid-append) must
// recover every committed record and truncate the torn bytes.
func TestTornTailRecovery(t *testing.T) {
	s, path := openTemp(t)
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	sizeBefore, _ := os.Stat(path)

	// Simulate the crash: append a frame missing most of its payload.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{opPut, 200, 0, 0, 0, 200, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r', 't'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != n {
		t.Fatalf("recovered %d records, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := s2.Get(fmt.Sprintf("key-%03d", i))
		if !ok || string(got) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("record %d lost or damaged after recovery: %q, %v", i, got, ok)
		}
	}
	if st := s2.Stats(); st.Truncated != int64(len(torn)) {
		t.Errorf("Truncated = %d bytes, want %d", st.Truncated, len(torn))
	}
	sizeAfter, _ := os.Stat(path)
	if sizeAfter.Size() != sizeBefore.Size() {
		t.Errorf("log not truncated back to %d bytes (got %d)", sizeBefore.Size(), sizeAfter.Size())
	}

	// And the recovered store must still accept writes at the cut.
	if err := s2.Put("post-crash", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailMultipleCrashes layers a second crash on a recovered log.
func TestTornTailMultipleCrashes(t *testing.T) {
	s, path := openTemp(t)
	s.Put("a", []byte("1"))
	s.Close()
	for crash := 0; crash < 3; crash++ {
		f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		f.Write([]byte{opPut, 5, 0, 0}) // torn mid-header
		f.Close()
		s2, err := Open(path)
		if err != nil {
			t.Fatalf("crash %d: %v", crash, err)
		}
		if v, ok := s2.Get("a"); !ok || string(v) != "1" {
			t.Fatalf("crash %d: committed record lost", crash)
		}
		s2.Put(fmt.Sprintf("b%d", crash), []byte("x"))
		s2.Close()
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s3.Len())
	}
}

// TestMidLogCorruptionRefused: damage in the middle of the log (valid
// frames after it) must be reported, not silently truncated away.
func TestMidLogCorruptionRefused(t *testing.T) {
	s, path := openTemp(t)
	s.Put("first", bytes.Repeat([]byte("x"), 100))
	s.Put("second", []byte("y"))
	s.Close()

	data, _ := os.ReadFile(path)
	// Flip a byte inside the first record's value.
	data[len(magic)+frameHeader+10] ^= 0xff
	os.WriteFile(path, data, 0o644)

	_, err := Open(path)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestTornMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	os.WriteFile(path, []byte(magic[:4]), 0o644) // crash during creation
	s, err := Open(path)
	if err != nil {
		t.Fatalf("torn magic: %v", err)
	}
	defer s.Close()
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

func TestBadMagicRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.log")
	os.WriteFile(path, []byte("something else entirely\n"), 0o644)
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotUnderWrites(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put("a", []byte("1"))
	s.Put("b", []byte("2"))
	snap := s.Snapshot()
	s.Put("a", []byte("changed"))
	s.Delete("b")
	s.Put("c", []byte("3"))

	if v, _ := snap.Get("a"); string(v) != "1" {
		t.Errorf("snapshot saw later overwrite: %q", v)
	}
	if _, ok := snap.Get("b"); !ok {
		t.Error("snapshot saw later delete")
	}
	if _, ok := snap.Get("c"); ok {
		t.Error("snapshot saw later insert")
	}
	if got := snap.Keys(""); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("snapshot keys = %v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, path := openTemp(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(key); !ok || string(v) != key {
					t.Errorf("read-own-write failed for %s", key)
					return
				}
				snap := s.Snapshot()
				snap.Get(key)
				s.Stats()
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", s.Len(), 8*50)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 8*50 {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), 8*50)
	}
}

func TestCompact(t *testing.T) {
	s, path := openTemp(t)
	for i := 0; i < 20; i++ {
		s.Put("churn", []byte(fmt.Sprintf("v%d", i)))
	}
	s.Put("keep", []byte("k"))
	s.Delete("churn")
	before := s.Stats().LogBytes
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().LogBytes
	if after >= before {
		t.Errorf("compaction did not shrink the log: %d -> %d", before, after)
	}
	if _, ok := s.Get("churn"); ok {
		t.Error("deleted key live after compact")
	}
	if v, ok := s.Get("keep"); !ok || string(v) != "k" {
		t.Error("live key lost in compact")
	}
	// The compacted log must still be appendable and replayable.
	if err := s.Put("post", []byte("p")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	s, _ := openTemp(t)
	s.Put("a", []byte("1"))
	s.Close()
	if err := s.Put("b", []byte("2")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	// Reads keep serving from the index.
	if v, ok := s.Get("a"); !ok || string(v) != "1" {
		t.Fatal("read after Close failed")
	}
}

func TestStats(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	s.Put("a", []byte("1"))
	s.Get("a")
	s.Get("missing")
	st := s.Stats()
	if st.Puts != 1 || st.Gets != 2 || st.Hits != 1 || st.Records != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.LogBytes <= int64(len(magic)) {
		t.Errorf("LogBytes = %d", st.LogBytes)
	}
}
