// Package lease is a crash-safe unit-ownership layer over a shared
// data directory. N independent worker processes cooperatively execute
// one work grid: each worker claims units by atomically creating lease
// files, renews them on a heartbeat, reclaims expired leases from dead
// workers, and commits exactly one result per unit — ever — via an
// atomic, exclusive done marker that carries the result itself.
//
// # Protocol
//
// The directory holds two subdirectories:
//
//	leases/<unit>@<epoch>.lease   the claim for one (unit, epoch)
//	done/<unit>.done              the commit marker and result (immutable)
//
// Unit names are percent-escaped so any unit id maps to one file name.
// The fencing epoch lives in the lease file NAME, not its contents:
// claiming epoch E+1 hard-links a fully written file to a name that did
// not exist, so of N racing claimants exactly one wins — no locks, no
// compare-and-swap, just POSIX link semantics on a shared directory.
// The current owner of a unit is whoever's name is in the
// HIGHEST-epoch lease file. Epochs only grow: Release and Commit
// rewrite or keep the highest lease file, they never delete it, so a
// zombie holding epoch E can never look current after a reclaim at
// E+1 — not even after the reclaimer finishes and goes away.
//
// Renewal rewrites the lease file via write-temp + rename with an
// extended expiry. A worker that misses renewals past the TTL is
// presumed dead; any other worker may then claim epoch E+1 (a
// reclaim). If the presumed-dead worker was merely stalled (a zombie)
// and wakes up, its Commit is refused with a typed *StaleEpochError —
// it is fenced — because a higher-epoch lease file exists.
//
// Commit writes the marker to a private temp file, fsyncs it, and
// publishes it with Link (hard link): unlike rename, link never
// replaces an existing target, so of N racing committers exactly one
// creates done/<unit>.done. Combined with fencing this extends the
// store's acked-write invariant ("every acknowledged result survives")
// to "exactly one committed result per unit, ever": the marker holds
// the committed result, so the bytes that were linked first are the
// unit's result for good.
//
// All file I/O goes through an injectable iofault.FS so the fault
// matrix covers acquire, renew, release, reclaim, and commit.
package lease

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"alice/internal/iofault"
)

const (
	leaseDirName = "leases"
	doneDirName  = "done"
	leaseExt     = ".lease"
	doneExt      = ".done"
	tmpExt       = ".tmp"

	// DefaultTTL is the lease lifetime when Options.TTL is zero. A
	// worker that has not renewed for this long is presumed dead and
	// its units become reclaimable.
	DefaultTTL = 10 * time.Second
)

// Options configures a Manager.
type Options struct {
	// TTL is the lease lifetime granted by Acquire and Renew
	// (default DefaultTTL).
	TTL time.Duration
	// FS overrides the file system (default the real OS). Tests
	// inject an iofault.FaultFS here.
	FS iofault.FS
	// Now overrides the clock (default time.Now). Tests use it to
	// expire leases without sleeping.
	Now func() time.Time
}

// Stats counts lease-protocol outcomes observed by this manager.
type Stats struct {
	// Acquires counts first-claim acquisitions (epoch 1).
	Acquires int64
	// Adoptions counts re-acquisitions of this worker's own prior
	// lease (a restarted worker picking up where it crashed, without
	// waiting out the TTL).
	Adoptions int64
	// Reclaims counts acquisitions over another worker's expired or
	// released lease.
	Reclaims int64
	// Renews counts successful heartbeat renewals.
	Renews int64
	// Releases counts voluntary releases.
	Releases int64
	// Commits counts done markers published by this worker.
	Commits int64
	// Fenced counts this worker's own commits refused for a stale
	// epoch — the zombie side of the fencing contract.
	Fenced int64
	// HeldRefusals counts acquisition attempts refused because
	// another worker holds a live lease.
	HeldRefusals int64
}

// Lease is a held claim on one unit at one fencing epoch.
type Lease struct {
	Unit   string
	Worker string
	Epoch  uint64
	// Expires is the deadline after which other workers may reclaim.
	// It is advanced by Renew; not safe for concurrent access with
	// Renew (Guard is the only renewer in normal use).
	Expires time.Time
}

// Commit records who committed a unit and what, read back from its
// done marker.
type Commit struct {
	Unit   string `json:"unit"`
	Worker string `json:"worker"`
	Epoch  uint64 `json:"epoch"`
	AtUnix int64  `json:"at_unix"`
	// Result is the JSON value passed to Manager.Commit, compacted.
	Result json.RawMessage `json:"result"`
}

// leaseRecord is the wire form of a lease file's contents.
type leaseRecord struct {
	Unit     string `json:"unit"`
	Worker   string `json:"worker"`
	Epoch    uint64 `json:"epoch"`
	ExpireNS int64  `json:"expires_unix_nano"`
	Released bool   `json:"released,omitempty"`
}

// HeldError reports that a live lease held by another worker refused
// an acquisition.
type HeldError struct {
	Unit    string
	Holder  string
	Epoch   uint64
	Expires time.Time
}

func (e *HeldError) Error() string {
	if e.Holder == "" {
		return fmt.Sprintf("lease: unit %q held: lost claim race at epoch %d", e.Unit, e.Epoch)
	}
	return fmt.Sprintf("lease: unit %q held by %q at epoch %d until %s",
		e.Unit, e.Holder, e.Epoch, e.Expires.Format(time.RFC3339Nano))
}

// StaleEpochError reports a fenced operation: the caller's epoch is no
// longer the unit's highest, so a reclaim has superseded it.
type StaleEpochError struct {
	Unit         string
	Worker       string // the fenced worker (the caller)
	Epoch        uint64 // the caller's stale epoch
	CurrentEpoch uint64 // the highest epoch observed
	Holder       string // who holds the current epoch, when known
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("lease: unit %q fenced: worker %q epoch %d superseded by epoch %d (holder %q)",
		e.Unit, e.Worker, e.Epoch, e.CurrentEpoch, e.Holder)
}

// CommittedError reports that the unit already has a committed result
// from a different (worker, epoch).
type CommittedError struct {
	Unit string
	By   Commit
}

func (e *CommittedError) Error() string {
	return fmt.Sprintf("lease: unit %q already committed by worker %q at epoch %d",
		e.Unit, e.By.Worker, e.By.Epoch)
}

// Manager coordinates one worker's leases over a shared directory. It
// is safe for concurrent use by the worker's goroutines; cross-process
// safety comes from the file protocol, not from this lock.
type Manager struct {
	leaseDir string
	doneDir  string
	worker   string
	ttl      time.Duration
	fs       iofault.FS
	now      func() time.Time

	mu    sync.Mutex
	stats Stats
}

// Open prepares dir for lease coordination as the named worker. Worker
// names are restricted to [A-Za-z0-9._-] so they embed safely in file
// names. Leftover commit temp files from a previous incarnation of
// this worker are swept.
func Open(dir, worker string, opts Options) (*Manager, error) {
	if worker == "" {
		return nil, errors.New("lease: empty worker name")
	}
	for _, c := range worker {
		if !isWorkerChar(c) {
			return nil, fmt.Errorf("lease: worker name %q: only [A-Za-z0-9._-] allowed", worker)
		}
	}
	m := &Manager{
		leaseDir: filepath.Join(dir, leaseDirName),
		doneDir:  filepath.Join(dir, doneDirName),
		worker:   worker,
		ttl:      opts.TTL,
		fs:       opts.FS,
		now:      opts.Now,
	}
	if m.ttl <= 0 {
		m.ttl = DefaultTTL
	}
	if m.fs == nil {
		m.fs = iofault.OS{}
	}
	if m.now == nil {
		m.now = time.Now
	}
	if err := m.fs.MkdirAll(m.leaseDir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if err := m.fs.MkdirAll(m.doneDir, 0o755); err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	m.sweepTemps()
	return m, nil
}

// Worker returns the worker name this manager claims as.
func (m *Manager) Worker() string { return m.worker }

// TTL returns the configured lease lifetime.
func (m *Manager) TTL() time.Duration { return m.ttl }

// Stats returns a snapshot of the protocol counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// sweepTemps removes this worker's leftover temp files (crash debris;
// never another worker's — theirs may be mid-publish).
func (m *Manager) sweepTemps() {
	suffix := "." + m.worker + tmpExt
	for _, d := range []string{m.leaseDir, m.doneDir} {
		ents, err := m.fs.ReadDir(d)
		if err != nil {
			continue
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), suffix) {
				_ = m.fs.Remove(filepath.Join(d, e.Name()))
			}
		}
	}
}

// Acquire claims unit, returning a held lease or a typed refusal:
// *CommittedError when the unit already has a result, *HeldError when
// another worker holds a live lease. An expired, released, or
// unreadable highest lease is reclaimed at the next epoch; this
// worker's own prior lease is adopted (epoch bump, no TTL wait) so a
// crash-restarted worker resumes its units immediately.
func (m *Manager) Acquire(unit string) (*Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok, err := m.readCommit(unit); err != nil {
		return nil, err
	} else if ok {
		return nil, &CommittedError{Unit: unit, By: c}
	}
	maxEpoch, rec, err := m.scan(unit)
	if err != nil {
		return nil, err
	}
	now := m.now()
	if rec != nil && !rec.Released && rec.Worker != m.worker && now.Before(time.Unix(0, rec.ExpireNS)) {
		m.stats.HeldRefusals++
		return nil, &HeldError{Unit: unit, Holder: rec.Worker, Epoch: maxEpoch, Expires: time.Unix(0, rec.ExpireNS)}
	}
	l := &Lease{Unit: unit, Worker: m.worker, Epoch: maxEpoch + 1, Expires: now.Add(m.ttl)}
	if err := m.createLease(l); err != nil {
		if errors.Is(err, fs.ErrExist) {
			// Lost the claim race: someone else created this epoch
			// between our scan and our create.
			m.stats.HeldRefusals++
			return nil, &HeldError{Unit: unit, Epoch: l.Epoch}
		}
		return nil, err
	}
	switch {
	case maxEpoch == 0:
		m.stats.Acquires++
	case rec != nil && rec.Worker == m.worker:
		m.stats.Adoptions++
	default:
		m.stats.Reclaims++
	}
	// Superseded epochs are dead weight; their removal is cosmetic
	// (the max-epoch rule ignores them), so failures are ignored.
	for e := maxEpoch; e >= 1; e-- {
		if m.fs.Remove(m.leasePath(unit, e)) != nil {
			break
		}
	}
	return l, nil
}

// Renew extends l's expiry by the TTL. It fails with *StaleEpochError
// when a higher epoch exists (the caller has been reclaimed and must
// stop) or when the caller's lease file is gone. On success l.Expires
// is advanced.
func (m *Manager) Renew(l *Lease) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkCurrent(l); err != nil {
		return err
	}
	exp := m.now().Add(m.ttl)
	rec := leaseRecord{Unit: l.Unit, Worker: l.Worker, Epoch: l.Epoch, ExpireNS: exp.UnixNano()}
	if err := m.rewriteLease(l, rec); err != nil {
		return err
	}
	l.Expires = exp
	m.stats.Renews++
	return nil
}

// Release voluntarily gives up l so other workers can claim the unit
// without waiting out the TTL. The lease file is rewritten as
// released — never deleted — preserving epoch monotonicity for the
// fencing rule. Releasing a lease that is no longer current is a
// no-op: there is nothing left to give up.
func (m *Manager) Release(l *Lease) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkCurrent(l); err != nil {
		var stale *StaleEpochError
		if errors.As(err, &stale) {
			return nil
		}
		return err
	}
	rec := leaseRecord{Unit: l.Unit, Worker: l.Worker, Epoch: l.Epoch, ExpireNS: m.now().UnixNano(), Released: true}
	if err := m.rewriteLease(l, rec); err != nil {
		return err
	}
	m.stats.Releases++
	return nil
}

// Commit publishes the unit's done marker under l, carrying result,
// which must be valid JSON. The fencing contract: if any lease file
// with a higher epoch exists, the caller is a zombie and gets
// *StaleEpochError — its result must not become the unit's committed
// one. If the unit is already committed by a different (worker,
// epoch), *CommittedError. Re-committing the same (worker, epoch) is
// idempotent (the crashed-after-link case) and keeps the result that
// was linked first.
func (m *Manager) Commit(l *Lease, result json.RawMessage) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkCurrent(l); err != nil {
		var stale *StaleEpochError
		if errors.As(err, &stale) {
			m.stats.Fenced++
		}
		return err
	}
	if c, ok, err := m.readCommit(l.Unit); err != nil {
		return err
	} else if ok {
		if c.Worker == l.Worker && c.Epoch == l.Epoch {
			return nil
		}
		return &CommittedError{Unit: l.Unit, By: c}
	}
	c := Commit{Unit: l.Unit, Worker: l.Worker, Epoch: l.Epoch, AtUnix: m.now().Unix(), Result: result}
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	done := m.donePath(l.Unit)
	tmp := done + "." + m.worker + tmpExt
	if err := m.writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := m.fs.Link(tmp, done); err != nil {
		_ = m.fs.Remove(tmp)
		if errors.Is(err, fs.ErrExist) {
			// Lost the commit race (or our own earlier link landed and
			// the ack was lost). Re-read and apply the same rules.
			c2, ok, err2 := m.readCommit(l.Unit)
			if err2 != nil {
				return err2
			}
			if ok && c2.Worker == l.Worker && c2.Epoch == l.Epoch {
				return nil
			}
			if ok {
				return &CommittedError{Unit: l.Unit, By: c2}
			}
			return fmt.Errorf("lease: unit %q: done marker vanished mid-commit", l.Unit)
		}
		return fmt.Errorf("lease: commit %q: %w", l.Unit, err)
	}
	_ = m.fs.Remove(tmp)
	m.stats.Commits++
	return nil
}

// Committed reports the unit's commit record, if any.
func (m *Manager) Committed(unit string) (Commit, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readCommit(unit)
}

// Commits lists every committed unit in the directory.
func (m *Manager) Commits() (map[string]Commit, error) {
	ents, err := m.fs.ReadDir(m.doneDir)
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	out := make(map[string]Commit, len(ents))
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, doneExt) {
			continue
		}
		unit, err := unescapeUnit(strings.TrimSuffix(name, doneExt))
		if err != nil {
			continue
		}
		c, ok, err := m.readCommit(unit)
		if err != nil {
			return nil, err
		}
		if ok {
			out[unit] = c
		}
	}
	return out, nil
}

// Holder reports the unit's current live lease, if one exists: the
// highest-epoch lease that is neither released nor expired.
func (m *Manager) Holder(unit string) (Lease, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	maxEpoch, rec, err := m.scan(unit)
	if err != nil {
		return Lease{}, false, err
	}
	if rec == nil || rec.Released || !m.now().Before(time.Unix(0, rec.ExpireNS)) {
		return Lease{}, false, nil
	}
	return Lease{Unit: unit, Worker: rec.Worker, Epoch: maxEpoch, Expires: time.Unix(0, rec.ExpireNS)}, true, nil
}

// Guard starts a heartbeat that renews l every TTL/3 and returns a
// context that is canceled — with the typed lease error as its cause
// (see context.Cause) — the moment ownership is lost: a reclaim fenced
// the renewal, or renewals kept failing past the expiry. Unit
// computation should run under the returned context so a fenced worker
// stops burning CPU on a result that can never commit. The returned
// stop function must be called to end the heartbeat; it returns once
// the heartbeat has stopped, so no renewal can undo a later Release.
func (m *Manager) Guard(ctx context.Context, l *Lease) (context.Context, context.CancelFunc) {
	gctx, cancel := context.WithCancelCause(ctx)
	interval := m.ttl / 3
	if interval <= 0 {
		interval = time.Millisecond
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-gctx.Done():
				return
			case <-ticker.C:
			}
			err := m.Renew(l)
			if err == nil {
				continue
			}
			var stale *StaleEpochError
			if errors.As(err, &stale) {
				cancel(err)
				return
			}
			// Transient failure (e.g. a disk fault). Keep trying while
			// our own clock says the lease is still live; past expiry we
			// must assume it is lost.
			if m.now().After(l.Expires) {
				cancel(fmt.Errorf("lease: unit %q: renewal failing past expiry: %w", l.Unit, err))
				return
			}
		}
	}()
	return gctx, func() {
		cancel(nil)
		<-stopped
	}
}

// --- internals -------------------------------------------------------

// checkCurrent verifies l is still the unit's highest epoch and owned
// by this worker. Callers hold m.mu.
func (m *Manager) checkCurrent(l *Lease) error {
	maxEpoch, rec, err := m.scan(l.Unit)
	if err != nil {
		return err
	}
	holder := ""
	if rec != nil {
		holder = rec.Worker
	}
	if maxEpoch != l.Epoch || (rec != nil && rec.Worker != l.Worker) {
		return &StaleEpochError{
			Unit: l.Unit, Worker: l.Worker, Epoch: l.Epoch,
			CurrentEpoch: maxEpoch, Holder: holder,
		}
	}
	return nil
}

// scan finds the unit's highest lease epoch and decodes that file.
// rec is nil when no lease file exists or the highest one is
// unreadable/unparsable (damaged: reclaimable, but the epoch still
// counts — monotonicity comes from file names, not contents).
func (m *Manager) scan(unit string) (uint64, *leaseRecord, error) {
	ents, err := m.fs.ReadDir(m.leaseDir)
	if err != nil {
		return 0, nil, fmt.Errorf("lease: %w", err)
	}
	prefix := escapeUnit(unit) + "@"
	var maxEpoch uint64
	var maxName string
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, leaseExt) {
			continue
		}
		epochStr := strings.TrimSuffix(strings.TrimPrefix(name, prefix), leaseExt)
		epoch, err := strconv.ParseUint(epochStr, 10, 64)
		if err != nil {
			continue
		}
		if epoch > maxEpoch {
			maxEpoch, maxName = epoch, name
		}
	}
	if maxEpoch == 0 {
		return 0, nil, nil
	}
	rec, err := m.readLeaseFile(filepath.Join(m.leaseDir, maxName))
	if err != nil {
		return 0, nil, err
	}
	return maxEpoch, rec, nil
}

// readLeaseFile decodes one lease file. A missing (raced-away) or
// unparsable (torn) file decodes to nil, not an error.
func (m *Manager) readLeaseFile(path string) (*leaseRecord, error) {
	f, err := m.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("lease: %w", err)
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("lease: %w", err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("lease: %w", cerr)
	}
	var rec leaseRecord
	if json.Unmarshal(data, &rec) != nil {
		return nil, nil
	}
	return &rec, nil
}

// createLease claims (unit, epoch) — the atomic claim primitive. The
// record is fsynced to a private temp file and published with Link,
// which fails with fs.ErrExist when the epoch is already taken: the
// race was lost. Publishing a complete file matters: an exclusive
// create would expose an empty file that a concurrent scan decodes as
// torn and reclaims, so two claimants would both win.
func (m *Manager) createLease(l *Lease) error {
	rec := leaseRecord{Unit: l.Unit, Worker: l.Worker, Epoch: l.Epoch, ExpireNS: l.Expires.UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	path := m.leasePath(l.Unit, l.Epoch)
	tmp := path + "." + m.worker + tmpExt
	if err := m.writeFileSync(tmp, data); err != nil {
		return err
	}
	err = m.fs.Link(tmp, path)
	_ = m.fs.Remove(tmp)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return err
		}
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// rewriteLease atomically replaces l's lease file (write temp, fsync,
// rename). Callers hold m.mu and have verified currency.
func (m *Manager) rewriteLease(l *Lease, rec leaseRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	path := m.leasePath(l.Unit, l.Epoch)
	tmp := path + "." + m.worker + tmpExt
	if err := m.writeFileSync(tmp, data); err != nil {
		return err
	}
	if err := m.fs.Rename(tmp, path); err != nil {
		_ = m.fs.Remove(tmp)
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// writeFileSync writes data to a fresh file and fsyncs it.
func (m *Manager) writeFileSync(path string, data []byte) error {
	f, err := m.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lease: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = m.fs.Remove(path)
		return fmt.Errorf("lease: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = m.fs.Remove(path)
		return fmt.Errorf("lease: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = m.fs.Remove(path)
		return fmt.Errorf("lease: %w", err)
	}
	return nil
}

// readCommit reads and decodes the unit's done marker.
func (m *Manager) readCommit(unit string) (Commit, bool, error) {
	f, err := m.fs.OpenFile(m.donePath(unit), os.O_RDONLY, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Commit{}, false, nil
		}
		return Commit{}, false, fmt.Errorf("lease: %w", err)
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return Commit{}, false, fmt.Errorf("lease: %w", err)
	}
	if cerr != nil {
		return Commit{}, false, fmt.Errorf("lease: %w", cerr)
	}
	var c Commit
	if err := json.Unmarshal(data, &c); err != nil {
		// Done markers are fsynced before they are linked into place;
		// an unparsable one is real corruption, not a torn write.
		return Commit{}, false, fmt.Errorf("lease: unit %q: corrupt done marker: %w", unit, err)
	}
	return c, true, nil
}

func (m *Manager) leasePath(unit string, epoch uint64) string {
	return filepath.Join(m.leaseDir, escapeUnit(unit)+"@"+strconv.FormatUint(epoch, 10)+leaseExt)
}

func (m *Manager) donePath(unit string) string {
	return filepath.Join(m.doneDir, escapeUnit(unit)+doneExt)
}

// --- unit-name escaping ----------------------------------------------

// escapeUnit percent-escapes a unit id into a file-name-safe token.
// [A-Za-z0-9._:-] pass through; everything else (including '@', '%',
// and '/') becomes %XX, so distinct unit ids map to distinct names and
// the last '@' in a lease file name always separates the epoch.
func escapeUnit(unit string) string {
	var b strings.Builder
	for i := 0; i < len(unit); i++ {
		c := unit[i]
		if isUnitChar(c) {
			b.WriteByte(c)
			continue
		}
		b.WriteByte('%')
		b.WriteByte(hexDigit(c >> 4))
		b.WriteByte(hexDigit(c & 0xf))
	}
	return b.String()
}

// unescapeUnit inverts escapeUnit.
func unescapeUnit(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("lease: truncated escape in %q", s)
		}
		hi, ok1 := unhex(s[i+1])
		lo, ok2 := unhex(s[i+2])
		if !ok1 || !ok2 {
			return "", fmt.Errorf("lease: bad escape in %q", s)
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), nil
}

func isUnitChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '_' || c == ':' || c == '-'
}

func isWorkerChar(c rune) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '_' || c == '-'
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

func unhex(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
