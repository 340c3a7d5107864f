// Package cluster scales the single "dedicated storage server" of §3 to a
// sharded delivery fleet: a consistent-hash ring assigns every context
// chunk to a primary node plus replicas, a publish-side ShardedStore
// fans writes out across the nodes' stores, and a client-side Pool
// fetches chunks from many nodes in parallel with per-node connection
// reuse and replica failover. The streamer consumes a Pool through the
// same ChunkSource interface as a single transport.Client, so the
// adaptation logic (§5.3) is unchanged whether one node or a fleet is
// serving.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// defaultVirtualNodes is the number of ring points per node. 64 keeps the
// per-node load imbalance within a few percent for small fleets while the
// ring stays tiny (a few KB per node).
const defaultVirtualNodes = 64

// Ring is a consistent-hash ring over storage-node ids (typically their
// dial addresses). Keys map to the first node clockwise of their hash;
// the next distinct nodes are the replicas. Adding or removing a node
// remaps only ~1/N of the keys. Safe for concurrent use.
type Ring struct {
	replicas int
	vnodes   int

	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	nodes  map[string]struct{}
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring that places each chunk on `replicas`
// distinct nodes (min 1) using vnodes virtual points per node (≤0 uses
// the default).
func NewRing(replicas, vnodes int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	return &Ring{replicas: replicas, vnodes: vnodes, nodes: map[string]struct{}{}}
}

// Replicas returns the configured replication factor.
func (r *Ring) Replicas() int { return r.replicas }

// Add inserts a node into the ring. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if node == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", node, v)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node and all its virtual points.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of nodes in the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns all node ids, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Locate returns up to n distinct nodes for a key, primary first, walking
// clockwise from the key's hash. n ≤ 0 means the replication factor; n
// larger than the fleet returns every node (in ring order from the key,
// which spreads failover load across the fleet).
func (r *Ring) Locate(key string, n int) []string {
	if n <= 0 {
		n = r.replicas
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// ChunkNodes returns the nodes holding a chunk payload (primary first).
// Placement keys on the payload's *content hash*, so identical chunks —
// a document shared by many RAG contexts, a conversation prefix reused
// across turns — land on the same replicas no matter which context
// published them: the fleet stores each unique payload replica-set
// once, and refcounted GC can reason per node.
func (r *Ring) ChunkNodes(hash string) []string {
	return r.Locate(chunkRingKey(hash), r.replicas)
}

func chunkRingKey(hash string) string { return "chunk/" + hash }

// manifestRingKey orders nodes for a context's manifest reads (manifests
// are replicated everywhere; the key just spreads read load).
func manifestRingKey(contextID string) string { return "manifest/" + contextID }

// ringHash is FNV-1a with a splitmix64-style finalizer: plain FNV leaves
// the hashes of short, similar keys ("addr#0", "addr#1", …) correlated,
// which clumps a node's virtual points and skews placement badly; the
// multiply-xorshift rounds scatter them across the full 64-bit ring.
func ringHash(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
