package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/storage"
)

// ShardedStore is the publish side of the cluster: a storage.Store that
// routes each chunk payload to its ring-assigned primary and replicas by
// *content hash* and replicates manifests to every node (they are a few
// KB; having them everywhere lets any node answer a client's first
// request or a dedup-index lookup, and keeps every node's refcounts
// complete). It is used wherever the node stores are reachable
// in-process — the cachegen-cluster launcher, tests, and the harness —
// while remote clients read through a Pool.
//
// store_kv (§6) is unchanged for callers: streamer.Publish writes through
// a ShardedStore exactly as it would through one FileStore.
type ShardedStore struct {
	ring   *Ring
	stores map[string]storage.Store
}

// NewShardedStore builds a store over the ring's nodes. Every node in
// stores is added to the ring if not already present; every ring node
// must have a backing store.
func NewShardedStore(ring *Ring, stores map[string]storage.Store) (*ShardedStore, error) {
	if len(stores) == 0 {
		return nil, errors.New("cluster: sharded store needs at least one node")
	}
	for node := range stores {
		ring.Add(node)
	}
	for _, node := range ring.Nodes() {
		if stores[node] == nil {
			return nil, fmt.Errorf("cluster: ring node %q has no backing store", node)
		}
	}
	return &ShardedStore{ring: ring, stores: stores}, nil
}

// Ring returns the placement ring (shared with the fetch-side Pool).
func (s *ShardedStore) Ring() *Ring { return s.ring }

// store returns the backing store of a ring node, erroring (rather than
// panicking on the nil interface) when the shared ring has been grown
// past the stores this ShardedStore was built with.
func (s *ShardedStore) store(node string) (storage.Store, error) {
	st := s.stores[node]
	if st == nil {
		return nil, fmt.Errorf("cluster: ring node %q has no backing store (added after NewShardedStore?)", node)
	}
	return st, nil
}

// eachNode runs op on every ring node's store, collecting the first
// error but visiting every node regardless.
func (s *ShardedStore) eachNode(op func(node string, st storage.Store) error) error {
	var firstErr error
	for _, node := range s.ring.Nodes() {
		st, err := s.store(node)
		if err == nil {
			err = op(node, st)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PutChunk implements storage.Store: the payload is written to the
// hash's primary and every replica, so any single node can die without
// losing chunks.
func (s *ShardedStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	nodes := s.ring.ChunkNodes(hash)
	if len(nodes) == 0 {
		return errors.New("cluster: empty ring")
	}
	for _, node := range nodes {
		st, err := s.store(node)
		if err != nil {
			return err
		}
		if err := st.PutChunk(ctx, hash, data); err != nil {
			return fmt.Errorf("cluster: node %s: %w", node, err)
		}
	}
	return nil
}

// GetChunk implements storage.Store, reading the primary and falling
// back to replicas.
func (s *ShardedStore) GetChunk(ctx context.Context, hash string) ([]byte, error) {
	nodes := s.ring.ChunkNodes(hash)
	if len(nodes) == 0 {
		return nil, errors.New("cluster: empty ring")
	}
	var lastErr error
	for _, node := range nodes {
		st, err := s.store(node)
		if err != nil {
			lastErr = err
			continue
		}
		data, err := st.GetChunk(ctx, hash)
		if err == nil {
			return data, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// TouchChunk implements storage.Store. It reports true only when *every*
// placement node holds the payload: the publisher's dedup skip must not
// leave a replica hole (a node that joined the ring after the payload
// was first stored), so a partial hit re-puts the payload everywhere.
func (s *ShardedStore) TouchChunk(ctx context.Context, hash string) (bool, error) {
	nodes := s.ring.ChunkNodes(hash)
	if len(nodes) == 0 {
		return false, errors.New("cluster: empty ring")
	}
	all := true
	for _, node := range nodes {
		st, err := s.store(node)
		if err != nil {
			return false, err
		}
		ok, err := st.TouchChunk(ctx, hash)
		if err != nil {
			return false, fmt.Errorf("cluster: node %s: %w", node, err)
		}
		all = all && ok
	}
	return all, nil
}

// PutManifest implements storage.Store, replicating to every node (each
// node's refcounts then cover every context, so per-node sweeps are
// safe).
func (s *ShardedStore) PutManifest(ctx context.Context, m storage.Manifest) error {
	return s.eachNode(func(node string, st storage.Store) error {
		if err := st.PutManifest(ctx, m); err != nil {
			return fmt.Errorf("cluster: node %s: %w", node, err)
		}
		return nil
	})
}

// ask returns the first answer get gives from the ring's nodes, asked in
// the order Locate gives ringKey. Every node holds every manifest and the
// dedup index derived from them; the key only spreads read load.
func ask[T any](s *ShardedStore, ringKey string, get func(storage.Store) (T, error)) (T, error) {
	var v T
	err := errors.New("cluster: empty ring")
	for _, node := range s.ring.Locate(ringKey, s.ring.Len()) {
		var st storage.Store
		if st, err = s.store(node); err == nil {
			if v, err = get(st); err == nil {
				return v, nil
			}
		}
	}
	return v, err
}

// GetManifest implements storage.Store.
func (s *ShardedStore) GetManifest(ctx context.Context, contextID string) (storage.Manifest, error) {
	return ask(s, manifestRingKey(contextID), func(st storage.Store) (storage.Manifest, error) {
		return st.GetManifest(ctx, contextID)
	})
}

// GetFingerprint implements storage.Store.
func (s *ShardedStore) GetFingerprint(ctx context.Context, key string) (storage.Fingerprint, error) {
	return ask(s, key, func(st storage.Store) (storage.Fingerprint, error) {
		return st.GetFingerprint(ctx, key)
	})
}

// DeleteContext implements storage.Store, dropping the manifest (and its
// references) on every node. It succeeds if any node held the context.
func (s *ShardedStore) DeleteContext(ctx context.Context, contextID string) error {
	found := false
	var lastErr error
	for _, node := range s.ring.Nodes() {
		st, err := s.store(node)
		if err != nil {
			lastErr = err
			continue
		}
		switch err := st.DeleteContext(ctx, contextID); {
		case err == nil:
			found = true
		case errors.Is(err, storage.ErrNotFound):
		default:
			lastErr = fmt.Errorf("cluster: node %s: %w", node, err)
		}
	}
	if lastErr != nil {
		return lastErr
	}
	if !found {
		return fmt.Errorf("%w: context %q", storage.ErrNotFound, contextID)
	}
	return nil
}

// ListContexts implements storage.Store: the union across nodes, sorted.
func (s *ShardedStore) ListContexts(ctx context.Context) ([]string, error) {
	set := map[string]struct{}{}
	err := s.eachNode(func(node string, st storage.Store) error {
		ids, err := st.ListContexts(ctx)
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", node, err)
		}
		for _, id := range ids {
			set[id] = struct{}{}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, nil
}

// Sweep implements storage.Store: every node sweeps its own shard (its
// refcounts cover all manifests, which are replicated fleet-wide), and
// the accountings sum.
func (s *ShardedStore) Sweep(ctx context.Context, minAge time.Duration) (storage.SweepResult, error) {
	var agg storage.SweepResult
	err := s.eachNode(func(node string, st storage.Store) error {
		res, err := st.Sweep(ctx, minAge)
		agg.Add(res)
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", node, err)
		}
		return nil
	})
	return agg, err
}

// Usage implements storage.Store, summing across nodes (replicas count
// as real bytes).
func (s *ShardedStore) Usage(ctx context.Context) (storage.Usage, error) {
	var agg storage.Usage
	err := s.eachNode(func(node string, st storage.Store) error {
		u, err := st.Usage(ctx)
		if err != nil {
			return fmt.Errorf("cluster: node %s: %w", node, err)
		}
		agg.Add(u)
		return nil
	})
	return agg, err
}
