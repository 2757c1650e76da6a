// Package store implements the crash-safe, disk-backed result store of
// the redaction service: a single append-only record log plus an
// in-memory index rebuilt on open. It memoizes characterization and
// attack results across process restarts, designs, and clients, keyed
// by Config.Key() + a canonical netlist content hash (the callers'
// convention; the store itself is an opaque string→bytes map).
//
// Durability model:
//
//   - Every record is framed with a length header and a CRC32 over its
//     payload. Commit appends the frame and (by default) fsyncs before
//     the write is acknowledged, so an acknowledged Put survives a
//     crash.
//   - Open replays the log to rebuild the index. A torn tail — a
//     partially written frame from a crash mid-append — fails its
//     length or CRC check; the log is truncated at the last good
//     record and every record before it is recovered. Corruption is
//     only ever accepted at the tail: a bad frame followed by more
//     readable data is reported as an error rather than silently
//     dropped, since it means the log was damaged, not torn.
//   - Two locks keep readers off the disk. A writer lock serializes
//     the write path, disk I/O included: Put, Delete, Compact, Reopen
//     and Close. The reader lock guards what readers see (the index,
//     the log size, the counters and the seal); a writer takes it only
//     to publish its change once the write is durable. So Get,
//     Snapshot, Stats, Len and Sealed never wait for an fsync, and a
//     value stays invisible until its Put is durable. Snapshot()
//     captures an O(live-set) point-in-time view that subsequent
//     writes do not disturb (values are immutable once stored).
//
// The log is an intentional minimal subset of the log-structured KV
// design (cf. the Go-DB exemplar's kv-store): no B-tree, because the
// working set is small enough to index in memory, and no background
// compaction, because overwrites are rare (results are content-keyed).
// Compact() exists for the job journal, which does delete.
//
// Failure domains: all file I/O goes through an injectable
// iofault.FS/File (Options.FS; the default is the real OS), so every
// injection point — write, fsync, truncate, rename — is walked by the
// fault-matrix test. A failed append is rolled back (the log is
// truncated to the last committed frame) so the next append lands on a
// clean tail; if the rollback itself fails, or an fsync fails (after
// a failed fsync the page-cache state is unknowable, so retrying the
// same fd could silently "commit" data that never reached the disk),
// the store seals its write path: Put/Delete/Compact return the
// sealing error (wrapped in ErrSealed), while Get/Snapshot keep
// serving from the in-memory index. Reopen() re-probes the disk — it
// replays the log through a fresh descriptor and, on success, swaps in
// the replayed state and lifts the seal. The serve layer uses this for
// degraded-mode operation with background re-probing.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"alice/internal/iofault"
)

// magic heads every log file; versioned so a future format change can
// refuse (or migrate) old logs instead of misparsing them.
const magic = "ALICESTORE1\n"

// Record frame layout, after the file magic:
//
//	op      uint8  — opPut or opDel
//	keyLen  uint32 (LE)
//	valLen  uint32 (LE)
//	crc     uint32 (LE) — CRC32 (IEEE) over op, keyLen, valLen, key, val
//	key     keyLen bytes
//	val     valLen bytes (empty for opDel)
const (
	opPut = 0x01
	opDel = 0x02

	frameHeader = 1 + 4 + 4 + 4
	// maxKeyLen/maxValLen bound a frame so a corrupt length field can't
	// drive a giant allocation during replay.
	maxKeyLen = 1 << 20 // 1 MiB
	maxValLen = 1 << 28 // 256 MiB
)

// ErrCorrupt reports mid-log damage (a bad frame with readable data
// after it). Tail damage is not an error: it is truncated on open.
var ErrCorrupt = errors.New("store: log corrupt")

// ErrSealed wraps the error that sealed the write path: an fsync
// failure, or an append failure whose rollback also failed. A sealed
// store still serves reads from memory; Reopen lifts the seal once the
// disk answers again.
var ErrSealed = errors.New("store: write path sealed")

// Stats reports store effectiveness and footprint. The JSON names are
// the service's wire format (GET /v1/stats).
type Stats struct {
	// Records is the number of live keys.
	Records int `json:"records"`
	// LogBytes is the on-disk log size, including dead records.
	LogBytes int64 `json:"log_bytes"`
	// Puts, Deletes, Gets count operations since open; Hits counts the
	// Gets that found a value.
	Puts    int `json:"puts"`
	Deletes int `json:"deletes"`
	Gets    int `json:"gets"`
	Hits    int `json:"hits"`
	// Recovered is the number of records replayed at open; Truncated
	// is the number of torn-tail bytes discarded.
	Recovered int   `json:"recovered"`
	Truncated int64 `json:"truncated_bytes"`
	// Rollbacks counts appends whose write failed and whose partial
	// frame was successfully cut back off the log; Seals counts the
	// times the write path sealed; Reopens counts successful Reopen
	// probes that lifted a seal.
	Rollbacks int `json:"rollbacks"`
	Seals     int `json:"seals"`
	Reopens   int `json:"reopens"`
}

// Store is a disk-backed string→bytes map. It is safe for concurrent
// use; values handed in and out are copied, so callers may mutate
// their slices freely.
type Store struct {
	// wmu serializes the write path, disk I/O included. It guards f
	// and closed, and it is held whenever index, size, stats or sealed
	// change, so a writer reads them without mu.
	wmu sync.Mutex
	// mu guards index, size, stats and sealed for readers. A writer
	// takes it, under wmu, only to publish a change, never across I/O.
	mu    sync.RWMutex
	fs    iofault.FS
	f     iofault.File
	path  string
	index map[string][]byte
	size  int64
	fsync bool
	stats Stats
	// sealed, when non-nil, is the error that shut the write path
	// (fsync failure or an unrecoverable append). Reads keep serving.
	sealed error
	// closed rejects writes after Close so a shut-down service fails
	// loudly instead of appending to a closed file descriptor.
	closed bool
}

// Options tunes Open.
type Options struct {
	// NoSync disables the fsync on every commit. Only for tests and
	// throwaway stores: a crash may then lose acknowledged writes
	// (but never corrupt earlier ones).
	NoSync bool
	// FS overrides the file system (fault-injection tests). Nil means
	// the real OS.
	FS iofault.FS
}

// Open opens (creating if needed) the log at path and replays it into
// the in-memory index. A torn tail is truncated; mid-log corruption
// returns ErrCorrupt.
func Open(path string, opts ...Options) (*Store, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	fs := o.FS
	if fs == nil {
		fs = iofault.OS{}
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// A leftover .compact file is a compaction the previous process
	// started but never renamed into place; it holds no committed state
	// the main log does not.
	_ = fs.Remove(path + ".compact")
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		fs:    fs,
		f:     f,
		path:  path,
		index: make(map[string][]byte),
		fsync: !o.NoSync,
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay rebuilds the index from the log, truncating a torn tail.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	if size == 0 {
		// Fresh log: stamp the magic.
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: writing magic: %w", err)
		}
		if s.fsync {
			if err := s.f.Sync(); err != nil {
				return fmt.Errorf("store: %w", err)
			}
		}
		s.size = int64(len(magic))
		return nil
	}
	if size < int64(len(magic)) {
		// The magic itself was torn by a crash at creation: the log
		// holds no records, so restart it.
		return s.truncateTail(0, size)
	}
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(s.f, head); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if string(head) != magic {
		return fmt.Errorf("%w: %s is not a store log (bad magic)", ErrCorrupt, s.path)
	}

	// Read the whole log once; replay frames from memory. The log is
	// the in-memory index's persistent form, so it fits by definition.
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	off := 0
	good := 0 // bytes of data covered by valid frames
	for off < len(data) {
		key, val, op, n, ok := parseFrame(data[off:])
		if !ok {
			break
		}
		switch op {
		case opPut:
			s.index[key] = val
		case opDel:
			delete(s.index, key)
		}
		s.stats.Recovered++
		off += n
		good = off
	}
	if good < len(data) {
		// Tail damage is only acceptable as a torn final frame. If a
		// *valid* frame parses anywhere after the damage, the middle of
		// the log was corrupted and truncating would silently drop
		// committed records — refuse instead.
		for probe := good + 1; probe < len(data); probe++ {
			if _, _, _, _, ok := parseFrame(data[probe:]); ok {
				return fmt.Errorf("%w: bad frame at offset %d with valid data after it",
					ErrCorrupt, int64(good)+int64(len(magic)))
			}
		}
		return s.truncateTail(int64(len(magic))+int64(good), size)
	}
	s.size = size
	return nil
}

// truncateTail cuts the log to keep bytes and re-appends the magic if
// the file restarts from scratch.
func (s *Store) truncateTail(keep, was int64) error {
	if keep < int64(len(magic)) {
		keep = 0
	}
	if err := s.f.Truncate(keep); err != nil {
		return fmt.Errorf("store: truncating torn tail: %w", err)
	}
	if _, err := s.f.Seek(keep, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.stats.Truncated = was - keep
	s.size = keep
	if keep == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.size = int64(len(magic))
	}
	if s.fsync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// parseFrame decodes one frame from b. ok is false when b holds no
// complete, CRC-valid frame at its start.
func parseFrame(b []byte) (key string, val []byte, op byte, n int, ok bool) {
	if len(b) < frameHeader {
		return "", nil, 0, 0, false
	}
	op = b[0]
	if op != opPut && op != opDel {
		return "", nil, 0, 0, false
	}
	keyLen := binary.LittleEndian.Uint32(b[1:5])
	valLen := binary.LittleEndian.Uint32(b[5:9])
	crc := binary.LittleEndian.Uint32(b[9:13])
	if keyLen > maxKeyLen || valLen > maxValLen {
		return "", nil, 0, 0, false
	}
	n = frameHeader + int(keyLen) + int(valLen)
	if len(b) < n {
		return "", nil, 0, 0, false
	}
	h := crc32.NewIEEE()
	h.Write(b[:9])
	h.Write(b[frameHeader:n])
	if h.Sum32() != crc {
		return "", nil, 0, 0, false
	}
	key = string(b[frameHeader : frameHeader+int(keyLen)])
	val = append([]byte(nil), b[frameHeader+int(keyLen):n]...)
	return key, val, op, n, true
}

// appendFrame writes and (optionally) fsyncs one frame and returns its
// length, which the caller adds to size when it publishes the write
// (caller holds the write lock). A failed write is rolled back (the
// partial frame is cut off the log) so the next append starts on a
// committed boundary; an unrecoverable rollback or a failed fsync
// seals the write path, and the error returned then wraps ErrSealed
// like every later write's.
func (s *Store) appendFrame(op byte, key string, val []byte) (int64, error) {
	if s.closed {
		return 0, fmt.Errorf("store: %s is closed", s.path)
	}
	if s.sealed != nil {
		return 0, fmt.Errorf("%w: %w", ErrSealed, s.sealed)
	}
	if len(key) > maxKeyLen {
		return 0, fmt.Errorf("store: key too long (%d bytes)", len(key))
	}
	if len(val) > maxValLen {
		return 0, fmt.Errorf("store: value too long (%d bytes)", len(val))
	}
	frame := make([]byte, frameHeader+len(key)+len(val))
	frame[0] = op
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(key)))
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(val)))
	copy(frame[frameHeader:], key)
	copy(frame[frameHeader+len(key):], val)
	h := crc32.NewIEEE()
	h.Write(frame[:9])
	h.Write(frame[frameHeader:])
	binary.LittleEndian.PutUint32(frame[9:13], h.Sum32())
	if _, err := s.f.Write(frame); err != nil {
		// A failed (possibly short) write may have left a prefix of the
		// frame on disk. Left there, the *next* append would land after
		// it and turn the partial frame into mid-log corruption — so
		// cut the log back to the last committed record now.
		return 0, s.rollback(err)
	}
	if s.fsync {
		if err := s.f.Sync(); err != nil {
			// After a failed fsync the page-cache state is unknowable
			// (retrying the same descriptor can report success without
			// the data ever reaching the disk), so no further append is
			// trustworthy: seal until a Reopen re-probes the disk.
			return 0, s.seal(fmt.Errorf("store: fsync: %w", err))
		}
	}
	return int64(len(frame)), nil
}

// rollback cuts a partially appended frame back off the log (caller
// holds the write lock) and returns the append's error. If the disk
// refuses even the rollback, the write path seals — nothing more can
// safely be appended.
func (s *Store) rollback(cause error) error {
	if err := s.f.Truncate(s.size); err != nil {
		return s.seal(fmt.Errorf("store: append failed (%v) and rollback failed: %w", cause, err))
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return s.seal(fmt.Errorf("store: append failed (%v) and rollback seek failed: %w", cause, err))
	}
	s.mu.Lock()
	s.stats.Rollbacks++
	s.mu.Unlock()
	return fmt.Errorf("store: append: %w", cause)
}

// seal shuts the write path (caller holds the write lock) and returns
// the error the write that sealed it reports: cause wrapped in
// ErrSealed.
func (s *Store) seal(cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed == nil {
		s.sealed = cause
		s.stats.Seals++
	}
	return fmt.Errorf("%w: %w", ErrSealed, cause)
}

// Sealed returns the error that sealed the write path, or nil when the
// store accepts writes. Reads work either way.
func (s *Store) Sealed() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sealed
}

// Reopen re-probes the disk through a fresh descriptor: it replays the
// log into a fresh index and, on success, swaps in the replayed state
// and lifts any seal. Acknowledged records are on disk by the
// durability contract, so the replayed index is never behind what a
// crash-restart would see. Used by the serve layer's degraded-mode
// probe loop; safe to call on a healthy store (it is then just a
// consistency re-check).
func (s *Store) Reopen() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	f, err := s.fs.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen: %w", err)
	}
	probe := &Store{
		fs:    s.fs,
		f:     f,
		path:  s.path,
		index: make(map[string][]byte),
		fsync: s.fsync,
	}
	if err := probe.replay(); err != nil {
		f.Close()
		return err
	}
	// Replay can succeed without writing anything; prove the disk also
	// accepts a flush before declaring the write path healthy.
	if s.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: reopen probe sync: %w", err)
		}
	}
	old := s.f
	s.f = f
	s.mu.Lock()
	s.index = probe.index
	s.size = probe.size
	s.stats.Recovered += probe.stats.Recovered
	s.stats.Truncated += probe.stats.Truncated
	if s.sealed != nil {
		s.stats.Reopens++
		s.sealed = nil
	}
	s.mu.Unlock()
	old.Close()
	return nil
}

// Put commits key→val. The write is durable (fsynced) when Put
// returns, unless the store was opened with NoSync.
func (s *Store) Put(key string, val []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	n, err := s.appendFrame(opPut, key, val)
	if err != nil {
		return err
	}
	v := append([]byte(nil), val...)
	s.mu.Lock()
	s.index[key] = v
	s.size += n
	s.stats.Puts++
	s.mu.Unlock()
	return nil
}

// Delete removes key (a no-op if absent). The tombstone is durable
// when Delete returns.
func (s *Store) Delete(key string) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if _, ok := s.index[key]; !ok {
		return nil
	}
	n, err := s.appendFrame(opDel, key, nil)
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.index, key)
	s.size += n
	s.stats.Deletes++
	s.mu.Unlock()
	return nil
}

// Get returns a copy of the value for key.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Gets++
	v, ok := s.index[key]
	if !ok {
		return nil, false
	}
	s.stats.Hits++
	return append([]byte(nil), v...), true
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns the live keys with the prefix, sorted — a convenience
// over Snapshot().Keys for callers (e.g. the job journal) that only
// enumerate once.
func (s *Store) Keys(prefix string) []string {
	return s.Snapshot().Keys(prefix)
}

// Snapshot is a point-in-time, immutable view of the store.
type Snapshot struct {
	m map[string][]byte
}

// Snapshot captures the current live set. Later writes to the store do
// not affect the snapshot; the values are shared but never mutated
// (the store replaces, not edits, on overwrite).
func (s *Store) Snapshot() *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := make(map[string][]byte, len(s.index))
	for k, v := range s.index {
		m[k] = v
	}
	return &Snapshot{m: m}
}

// Get returns the value for key in the snapshot. The returned slice
// must not be mutated.
func (v *Snapshot) Get(key string) ([]byte, bool) {
	b, ok := v.m[key]
	return b, ok
}

// Len returns the snapshot's live-key count.
func (v *Snapshot) Len() int { return len(v.m) }

// Keys returns the snapshot's keys, sorted, optionally filtered to a
// prefix.
func (v *Snapshot) Keys(prefix string) []string {
	var out []string
	for k := range v.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats returns a consistent snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Records = len(s.index)
	st.LogBytes = s.size
	return st
}

// Compact rewrites the log to hold exactly the live set (dropping
// overwritten and deleted records), atomically replacing the old log.
// Used by the job journal, whose delete-heavy workload accretes dead
// frames; the result-store workload rarely needs it.
func (s *Store) Compact() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	if s.sealed != nil {
		return fmt.Errorf("%w: %w", ErrSealed, s.sealed)
	}
	tmpPath := s.path + ".compact"
	tmp, err := s.fs.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		s.fs.Remove(tmpPath)
	}
	ns := &Store{fs: s.fs, f: tmp, path: tmpPath, fsync: false}
	if _, err := tmp.Write([]byte(magic)); err != nil {
		cleanup()
		return fmt.Errorf("store: compact: %w", err)
	}
	ns.size = int64(len(magic))
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic log layout
	for _, k := range keys {
		n, err := ns.appendFrame(opPut, k, s.index[k])
		if err != nil {
			cleanup()
			// Not %w: a failure here may seal the throwaway log, never
			// this store's write path.
			return fmt.Errorf("store: compact: %v", err)
		}
		ns.size += n
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := s.fs.Rename(tmpPath, s.path); err != nil {
		s.fs.Remove(tmpPath)
		return fmt.Errorf("store: compact: %w", err)
	}
	old := s.f
	f, err := s.fs.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		// The compacted log is in place but we hold no descriptor to it:
		// appends can no longer reach the live file. Seal; Reopen heals.
		return s.seal(fmt.Errorf("store: compact: reopening: %w", err))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	old.Close()
	s.f = f
	s.mu.Lock()
	s.size = ns.size
	s.mu.Unlock()
	return nil
}

// Close fsyncs and closes the log. Further writes fail; reads keep
// serving from the in-memory index.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.sealed != nil {
		// Nothing unsynced is trustworthy anyway; just release the fd.
		s.f.Close()
		return fmt.Errorf("%w: %w", ErrSealed, s.sealed)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.f.Close()
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }
