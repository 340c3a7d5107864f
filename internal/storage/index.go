package storage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"slices"
	"sync"
	"time"
)

// backend holds an index's payloads and persists its manifests; the
// index's lock guards every call. Something absent is an error wrapping
// fs.ErrNotExist.
type backend interface {
	putChunk(hash string, data []byte) error
	touchChunk(hash string) error // freshens a stored payload's GC age
	statChunk(hash string) (size int64, modified time.Time, err error)
	getChunk(hash string) ([]byte, error) // the caller may keep the bytes
	removeChunk(hash string) error
	eachChunk(fn func(hash string)) error
	putManifest(m Manifest) error
	deleteManifest(id string) error
}

// index is the one implementation behind MemStore and FileStore: live
// manifests, manifests found corrupt at open, payload refcounts and the
// dedup index derived from the manifests, kept by one set of rules over a
// backend that holds the bytes. Manifests are written through and served
// from memory; payloads are read from the backend on every lookup.
type index struct {
	b         backend
	mu        sync.RWMutex
	manifests map[string]Manifest
	corrupt   map[string]error // manifests that failed to decode at open
	refs      map[string]int
	fps       map[[sha256.Size]byte]indexed // by key digest
}

// indexed is one dedup-index entry and the number of live manifests that
// vouch for it.
type indexed struct {
	Fingerprint
	refs int
}

func newIndex(b backend) *index {
	return &index{b: b, manifests: map[string]Manifest{}, corrupt: map[string]error{},
		refs: map[string]int{}, fps: map[[sha256.Size]byte]indexed{}}
}

// retain moves one reference off every payload and dedup-index entry of
// released and onto those of acquired — the one place the index's counts
// change. A zero Manifest holds none.
func (x *index) retain(released, acquired Manifest) {
	for _, h := range released.AllHashes() {
		if x.refs[h]--; x.refs[h] <= 0 {
			delete(x.refs, h)
		}
	}
	for key := range released.fingerprints() {
		if e := x.fps[key]; e.refs > 1 {
			e.refs--
			x.fps[key] = e
		} else {
			delete(x.fps, key)
		}
	}
	for _, h := range acquired.AllHashes() {
		x.refs[h]++
	}
	for key, fp := range acquired.fingerprints() {
		x.fps[key] = indexed{fp, x.fps[key].refs + 1}
	}
}

// PutChunk implements Store. A put racing it for the same hash writes the
// same bytes, so its touch and its write need not share one lock hold.
func (x *index) PutChunk(ctx context.Context, hash string, data []byte) error {
	if ok, err := x.TouchChunk(ctx, hash); ok || err != nil {
		return err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return wrapErr(x.b.putChunk(hash, data))
}

// TouchChunk implements Store.
func (x *index) TouchChunk(_ context.Context, hash string) (bool, error) {
	if err := validateHash(hash); err != nil {
		return false, err
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	err := x.b.touchChunk(hash)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil, wrapErr(err)
}

// GetChunk implements Store.
func (x *index) GetChunk(_ context.Context, hash string) ([]byte, error) {
	if err := validateHash(hash); err != nil {
		return nil, err
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	data, err := x.b.getChunk(hash)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: chunk %s", ErrNotFound, hash)
	}
	return data, wrapErr(err)
}

// PutManifest implements Store. Replacing a corrupt manifest heals it.
func (x *index) PutManifest(_ context.Context, m Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	m = m.clone()
	id := m.Meta.ContextID
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.b.putManifest(m); err != nil {
		return wrapErr(err)
	}
	delete(x.corrupt, id)
	x.retain(x.manifests[id], m)
	x.manifests[id] = m
	return nil
}

// GetManifest implements Store.
func (x *index) GetManifest(_ context.Context, contextID string) (Manifest, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	if err, ok := x.corrupt[contextID]; ok {
		return Manifest{}, err
	}
	m, ok := x.manifests[contextID]
	if !ok {
		return Manifest{}, fmt.Errorf("%w: context %q", ErrNotFound, contextID)
	}
	return m.clone(), nil
}

// DeleteContext implements Store. Deleting a context whose manifest is
// corrupt is allowed — it is how an operator clears the breakage — and
// releases nothing, since the corrupt copy holds no references.
func (x *index) DeleteContext(_ context.Context, contextID string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	m, live := x.manifests[contextID]
	if _, corrupt := x.corrupt[contextID]; !live && !corrupt {
		return fmt.Errorf("%w: context %q", ErrNotFound, contextID)
	}
	if err := x.b.deleteManifest(contextID); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return wrapErr(err)
	}
	x.retain(m, Manifest{})
	delete(x.manifests, contextID)
	delete(x.corrupt, contextID)
	return nil
}

// ListContexts implements Store. Corrupt manifests are still listed:
// they exist, they just cannot be read.
func (x *index) ListContexts(_ context.Context) ([]string, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	ids := slices.AppendSeq(slices.Collect(maps.Keys(x.manifests)), maps.Keys(x.corrupt))
	slices.Sort(ids)
	return ids, nil
}

// GetFingerprint implements Store from the entries the live manifests
// vouch for.
func (x *index) GetFingerprint(_ context.Context, key string) (Fingerprint, error) {
	d, err := hex.DecodeString(key)
	if err != nil || len(d) != sha256.Size {
		return Fingerprint{}, fmt.Errorf("%w: fingerprint %q", ErrNotFound, key)
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	e, ok := x.fps[[sha256.Size]byte(d)]
	if !ok {
		return Fingerprint{}, fmt.Errorf("%w: fingerprint %s", ErrNotFound, key)
	}
	return e.Fingerprint, nil
}

// Sweep implements Store. It refuses to run while a corrupt manifest's
// unknown references could make it tear a context. Scans run under the
// read lock; each candidate is re-verified and removed under a brief
// write lock, so a publish that gained a reference — or freshened the GC
// age — mid-scan wins the race.
func (x *index) Sweep(_ context.Context, minAge time.Duration) (SweepResult, error) {
	cutoff := time.Now().Add(-minAge)
	var res SweepResult
	var candidates []string
	x.mu.RLock()
	if ids := slices.Sorted(maps.Keys(x.corrupt)); len(ids) > 0 {
		x.mu.RUnlock()
		return res, fmt.Errorf("storage: refusing to sweep with corrupt manifests present: %v", ids)
	}
	err := x.b.eachChunk(func(hash string) {
		res.ScannedChunks++
		if x.refs[hash] == 0 {
			candidates = append(candidates, hash)
		}
	})
	x.mu.RUnlock()
	for i := 0; i < len(candidates) && err == nil; i++ {
		var size int64
		if size, err = x.reclaim(candidates[i], cutoff); size >= 0 && err == nil {
			res.RemovedChunks++
			res.ReclaimedBytes += size
			res.RemovedHashes = append(res.RemovedHashes, candidates[i])
		}
	}
	if err != nil {
		return res, fmt.Errorf("storage: sweeping chunks: %w", err)
	}
	slices.Sort(res.RemovedHashes)
	return res, nil
}

// reclaim removes one unreferenced payload last put or touched by cutoff,
// returning its size, or -1 if it stays.
func (x *index) reclaim(hash string, cutoff time.Time) (int64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.refs[hash] > 0 {
		return -1, nil
	}
	size, modified, err := x.b.statChunk(hash)
	if errors.Is(err, fs.ErrNotExist) || (err == nil && modified.After(cutoff)) {
		return -1, nil
	}
	if err == nil {
		err = x.b.removeChunk(hash)
	}
	return size, err
}

// Usage implements Store.
func (x *index) Usage(_ context.Context) (Usage, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	u := Usage{Manifests: len(x.manifests) + len(x.corrupt)}
	var statErr error
	err := x.b.eachChunk(func(hash string) {
		size, _, err := x.b.statChunk(hash)
		u.Chunks++
		u.ChunkBytes += size
		statErr = errors.Join(statErr, err)
	})
	if err = errors.Join(err, statErr); err != nil {
		return Usage{}, wrapErr(err)
	}
	return u, nil
}

// wrapErr marks a backend error as the store's.
func wrapErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("storage: %w", err)
}

// MemStore is an in-memory Store.
type MemStore struct{ *index }

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{newIndex(&memBackend{chunks: map[string]memChunk{}})}
}

// memBackend keeps payloads in a map; the index's manifests are the only
// copy there is.
type memBackend struct {
	chunks map[string]memChunk
}

type memChunk struct {
	data     []byte
	modified time.Time
}

func (b *memBackend) putChunk(hash string, data []byte) error {
	b.chunks[hash] = memChunk{append([]byte{}, data...), time.Now()}
	return nil
}

func (b *memBackend) touchChunk(hash string) error {
	c, err := lookup(b.chunks, hash)
	if err == nil {
		c.modified = time.Now()
		b.chunks[hash] = c
	}
	return err
}

func (b *memBackend) statChunk(hash string) (int64, time.Time, error) {
	c, err := lookup(b.chunks, hash)
	return int64(len(c.data)), c.modified, err
}

func (b *memBackend) getChunk(hash string) ([]byte, error) {
	c, err := lookup(b.chunks, hash)
	return append([]byte{}, c.data...), err
}

func (b *memBackend) removeChunk(hash string) error { delete(b.chunks, hash); return nil }

func (b *memBackend) eachChunk(fn func(hash string)) error {
	for hash := range b.chunks {
		fn(hash)
	}
	return nil
}

func (b *memBackend) putManifest(Manifest) error  { return nil }
func (b *memBackend) deleteManifest(string) error { return nil }

// lookup returns m[key], or fs.ErrNotExist when it is absent.
func lookup[V any](m map[string]V, key string) (V, error) {
	v, ok := m[key]
	if !ok {
		return v, fs.ErrNotExist
	}
	return v, nil
}
