package storage

import (
	"context"
	"sync"
	"time"
)

// LatencyStore wraps a Store and delays every operation by a
// configurable read/write latency — the chaos subsystem's "slow disk"
// fault. The delays can be changed while the store is in use (injecting
// the fault mid-run and healing it later), and every delay is
// context-aware so a cancelled request does not sit out the full
// penalty. A zero-latency LatencyStore is a transparent passthrough,
// which is why production node wiring can keep it permanently in place
// and chaos injection needs no test-only forks.
type LatencyStore struct {
	inner Store

	mu    sync.RWMutex
	read  time.Duration
	write time.Duration
}

// NewLatencyStore wraps inner with zero added latency.
func NewLatencyStore(inner Store) *LatencyStore {
	return &LatencyStore{inner: inner}
}

// SetLatency changes the per-operation delays: read applies to lookups
// (GetChunk, GetManifest, ListContexts, GetFingerprint, TouchChunk,
// Usage), write to mutations (PutChunk, PutManifest, DeleteContext,
// PutFingerprint, Sweep). Zero or negative heals that class.
func (l *LatencyStore) SetLatency(read, write time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.read, l.write = read, write
}

func (l *LatencyStore) delay(ctx context.Context, write bool) error {
	l.mu.RLock()
	d := l.read
	if write {
		d = l.write
	}
	l.mu.RUnlock()
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (l *LatencyStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	if err := l.delay(ctx, true); err != nil {
		return err
	}
	return l.inner.PutChunk(ctx, hash, data)
}

func (l *LatencyStore) GetChunk(ctx context.Context, hash string) ([]byte, error) {
	if err := l.delay(ctx, false); err != nil {
		return nil, err
	}
	return l.inner.GetChunk(ctx, hash)
}

func (l *LatencyStore) TouchChunk(ctx context.Context, hash string) (bool, error) {
	if err := l.delay(ctx, false); err != nil {
		return false, err
	}
	return l.inner.TouchChunk(ctx, hash)
}

func (l *LatencyStore) PutManifest(ctx context.Context, m Manifest) error {
	if err := l.delay(ctx, true); err != nil {
		return err
	}
	return l.inner.PutManifest(ctx, m)
}

func (l *LatencyStore) GetManifest(ctx context.Context, contextID string) (Manifest, error) {
	if err := l.delay(ctx, false); err != nil {
		return Manifest{}, err
	}
	return l.inner.GetManifest(ctx, contextID)
}

func (l *LatencyStore) DeleteContext(ctx context.Context, contextID string) error {
	if err := l.delay(ctx, true); err != nil {
		return err
	}
	return l.inner.DeleteContext(ctx, contextID)
}

func (l *LatencyStore) ListContexts(ctx context.Context) ([]string, error) {
	if err := l.delay(ctx, false); err != nil {
		return nil, err
	}
	return l.inner.ListContexts(ctx)
}

func (l *LatencyStore) PutFingerprint(ctx context.Context, key string, fp Fingerprint) error {
	if err := l.delay(ctx, true); err != nil {
		return err
	}
	return l.inner.PutFingerprint(ctx, key, fp)
}

func (l *LatencyStore) GetFingerprint(ctx context.Context, key string) (Fingerprint, error) {
	if err := l.delay(ctx, false); err != nil {
		return Fingerprint{}, err
	}
	return l.inner.GetFingerprint(ctx, key)
}

func (l *LatencyStore) Sweep(ctx context.Context, minAge time.Duration) (SweepResult, error) {
	if err := l.delay(ctx, true); err != nil {
		return SweepResult{}, err
	}
	return l.inner.Sweep(ctx, minAge)
}

func (l *LatencyStore) Usage(ctx context.Context) (Usage, error) {
	if err := l.delay(ctx, false); err != nil {
		return Usage{}, err
	}
	return l.inner.Usage(ctx)
}

var _ Store = (*LatencyStore)(nil)
