package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"sync/atomic"

	"alice/internal/core"
	"alice/internal/openfpga"
	"alice/internal/store"
)

// charPrefix namespaces characterization records inside the shared
// store file, away from job-journal ("job\x00") and memoized-result
// ("result\x00") records.
const charPrefix = "char\x00"

// TieredCache is a read-through characterization cache: an in-memory
// CharacterizationCache in front of the persistent store. Lookups hit
// memory first, fall back to disk (promoting the record into memory),
// and misses that get Stored are written to both tiers — so a restarted
// daemon re-characterizes nothing it has ever characterized before,
// and the Engine is none the wiser: it just sees a core.Cache.
//
// Disk records are gob-encoded fabrics. Serialization failures degrade
// gracefully to memory-only caching (counted in DiskStats), never into
// flow errors. One caveat of the disk tier: a cached *error* outcome
// is rehydrated as a plain string error, losing any wrapped sentinel —
// acceptable because candidate errors only gate FabricCandidate.Valid
// and reporting, never errors.Is dispatch.
type TieredCache struct {
	mem core.Cache
	st  *store.Store

	// OnWriteError, when set, observes disk-tier put failures (the
	// server routes them into its degraded-health state). The cache
	// itself still degrades gracefully to memory-only.
	OnWriteError func(error)

	diskHits   atomic.Int64
	diskMisses atomic.Int64
	diskSkips  atomic.Int64
}

// diskEntry is the gob schema of one persisted characterization.
type diskEntry struct {
	Fab    *openfpga.Fabric
	ErrMsg string
	HasErr bool
}

// NewTieredCache tiers mem (nil means a fresh CharacterizationCache)
// over the store.
func NewTieredCache(mem core.Cache, st *store.Store) *TieredCache {
	if mem == nil {
		mem = core.NewCharacterizationCache()
	}
	return &TieredCache{mem: mem, st: st}
}

// Lookup implements core.Cache: memory first, then disk.
func (t *TieredCache) Lookup(key string) (*openfpga.Fabric, error, bool) {
	if fab, err, ok := t.mem.Lookup(key); ok {
		return fab, err, true
	}
	raw, ok := t.st.Get(charPrefix + key)
	if !ok {
		t.diskMisses.Add(1)
		return nil, nil, false
	}
	var e diskEntry
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&e); err != nil || e.Fab != nil && e.Fab.Structural == nil {
		// Undecodable record (schema drift across releases), or a
		// fabric written before characterization analyzed it: a miss,
		// not an error — the re-characterization overwrites it.
		t.diskSkips.Add(1)
		t.diskMisses.Add(1)
		return nil, nil, false
	}
	t.diskHits.Add(1)
	var resErr error
	if e.HasErr {
		resErr = errors.New(e.ErrMsg)
	}
	t.mem.Store(key, e.Fab, resErr)
	return e.Fab, resErr, true
}

// Store implements core.Cache: both tiers, disk best-effort.
func (t *TieredCache) Store(key string, fab *openfpga.Fabric, err error) {
	t.mem.Store(key, fab, err)
	e := diskEntry{Fab: fab}
	if err != nil {
		e.ErrMsg, e.HasErr = err.Error(), true
	}
	var buf bytes.Buffer
	if encErr := gob.NewEncoder(&buf).Encode(&e); encErr != nil {
		t.diskSkips.Add(1)
		return
	}
	if putErr := t.st.Put(charPrefix+key, buf.Bytes()); putErr != nil {
		t.diskSkips.Add(1)
		if t.OnWriteError != nil {
			t.OnWriteError(putErr)
		}
	}
}

// Stats implements core.Cache (the memory tier's view).
func (t *TieredCache) Stats() (hits, misses, entries int) {
	return t.mem.Stats()
}

// DiskStats reports the disk tier: hits (records rehydrated from the
// store), misses, and skips (records that failed to encode or decode
// and degraded to memory-only).
func (t *TieredCache) DiskStats() (hits, misses, skips int64) {
	return t.diskHits.Load(), t.diskMisses.Load(), t.diskSkips.Load()
}
