package storage

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// CachingStore fronts a Store (typically a FileStore on a storage node)
// with a byte-budgeted LRU of chunk payloads, so the hot set of contexts
// is served from RAM instead of disk. Entries are keyed by content hash,
// which makes the RAM tier dedup-aware too: contexts sharing payloads
// share cache entries. Admission is read-allocate: GetChunk misses
// populate the cache, while PutChunk writes through without allocating —
// publishing a context at every level must not evict the hot set.
// Payloads are immutable under their hash, so the only invalidation is
// deletion by Sweep, which drops the reclaimed hashes from RAM.
// Everything but GetChunk and Sweep goes to inner unchanged: manifests and
// fingerprints are not cached; TouchChunk always consults inner, because
// the GC age it freshens lives there and inner is authoritative about
// existence (a payload could be swept beneath a stale RAM entry only if
// sweeps bypassed this tier, which Sweep prevents); and DeleteContext only
// drops a manifest and its references, since payloads may be shared with
// other contexts — their bytes, and their RAM entries, go in a Sweep.
// Safe for concurrent use.
type CachingStore struct {
	inner
	maxBytes int64
	// The LRU's lock is held only around its bookkeeping, not around
	// inner I/O, so concurrent misses overlap their disk reads. Two racing
	// misses on one hash both read inner and the second insert is a
	// refresh — wasted work, not incoherence, since a payload under a
	// hash never changes.
	lru          *PayloadLRU
	hits, misses atomic.Uint64
}

// inner names the store a CachingStore fronts.
type inner = Store

// CacheStats snapshots a CachingStore's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes, MaxBytes         int64
}

// Add folds another snapshot into this one, aggregating counters across a
// fleet of RAM tiers (MaxBytes sums too: the aggregate budget).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.MaxBytes += o.MaxBytes
}

// HitRate returns hits/(hits+misses), 0 when the store is untouched.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewCachingStore wraps inner with a RAM tier of at most maxBytes of
// payload (≤0 disables caching: every GetChunk goes to inner and counts
// as a miss).
func NewCachingStore(inner Store, maxBytes int64) *CachingStore {
	return &CachingStore{inner: inner, maxBytes: maxBytes, lru: NewPayloadLRU(maxBytes)}
}

// Register mirrors the cache's counters into a live metrics registry as
// function gauges over the same state Stats() reads. labels (alternating
// key, value — typically "node", addr) distinguish the RAM tiers of a
// fleet sharing one registry. Nil reg is a no-op.
func (s *CachingStore) Register(reg *telemetry.Registry, labels ...string) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("cachegen_cache_hits_total", "RAM-tier chunk hits", func() float64 {
		return float64(s.Stats().Hits)
	}, labels...)
	reg.GaugeFunc("cachegen_cache_misses_total", "RAM-tier chunk misses", func() float64 {
		return float64(s.Stats().Misses)
	}, labels...)
	reg.GaugeFunc("cachegen_cache_evictions_total", "RAM-tier evictions", func() float64 {
		return float64(s.Stats().Evictions)
	}, labels...)
	reg.GaugeFunc("cachegen_cache_bytes", "RAM-tier resident payload bytes", func() float64 {
		return float64(s.Stats().Bytes)
	}, labels...)
	reg.GaugeFunc("cachegen_cache_hit_rate", "hits/(hits+misses)", func() float64 {
		return s.Stats().HitRate()
	}, labels...)
}

// Stats returns the current counters.
func (s *CachingStore) Stats() CacheStats {
	return CacheStats{
		Hits: s.hits.Load(), Misses: s.misses.Load(), Evictions: s.lru.Evictions(),
		Entries: s.lru.Len(), Bytes: s.lru.Bytes(), MaxBytes: s.maxBytes,
	}
}

// GetChunk implements Store: RAM tier first, then inner on a miss. The
// LRU keeps its own copy of every payload, in and out: callers own what
// GetChunk returns.
func (s *CachingStore) GetChunk(ctx context.Context, hash string) ([]byte, error) {
	if err := validateHash(hash); err != nil {
		return nil, err
	}
	if data, ok := s.lru.Get(hash); ok {
		s.hits.Add(1)
		return append([]byte{}, data...), nil
	}
	s.misses.Add(1)
	data, err := s.inner.GetChunk(ctx, hash)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) <= s.maxBytes { // else not admitted: skip the copy
		s.lru.Put(hash, append([]byte{}, data...))
	}
	return data, nil
}

// Sweep implements Store: inner reclaims, then the reclaimed hashes are
// dropped from RAM so the tier cannot serve payloads the disk no longer
// holds.
func (s *CachingStore) Sweep(ctx context.Context, minAge time.Duration) (SweepResult, error) {
	res, err := s.inner.Sweep(ctx, minAge)
	for _, hash := range res.RemovedHashes {
		s.lru.Drop(hash)
	}
	return res, err
}
