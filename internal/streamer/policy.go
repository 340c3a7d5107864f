package streamer

import (
	"context"
	"time"

	"repro/internal/tensor"
)

// Policy is the per-request decision engine a Fetcher consults for each
// chunk: Planner implements it with the greedy per-request logic of
// Algorithm 1, and sched.Plan implements it with the fleet-wide
// fetch-vs-recompute cost model. Choose is called with the chunk index
// relative to the fetched suffix, the time since the request started,
// and the live throughput estimate (≤0 when none exists yet).
type Policy interface {
	Choose(idx int, elapsed time.Duration, throughputBPS float64, chunks []ChunkInfo) (Choice, error)
}

// PathHint is a PathPolicy's verdict on how a fetch should be delivered.
type PathHint int

const (
	// PathAuto keeps the Fetcher's default: the stream acquirer when the
	// source speaks the server-push stream, the per-chunk one otherwise.
	PathAuto PathHint = iota
	// PathChunks selects the per-chunk acquirer. A policy
	// returns it when it routed chunks to sources the stream cannot serve
	// — the local payload cache, a colocated store, or a peer's resident
	// KV — which are only reachable at chunk granularity.
	PathChunks
)

// PathPolicy is a Policy that inspects a request's chunk metadata before
// any transfer. PlanPath is called once per fetch with the annotated
// suffix chunks (hashes, indices and raw KV sizes filled in); the policy
// primes its per-chunk source assignment there and picks the delivery
// path.
type PathPolicy interface {
	Policy
	PlanPath(chunks []ChunkInfo) PathHint
}

// PayloadCache is a gateway-local RAM tier for chunk payloads, keyed by
// content hash. The Fetcher writes every bitstream payload it pulls from
// elsewhere through it and serves "ram"-routed choices from it. All
// methods must be safe for concurrent use.
type PayloadCache interface {
	// Get returns the payload for hash, or false on a miss.
	Get(hash string) ([]byte, bool)
	// Put stores one payload (idempotent; the cache may evict).
	Put(hash string, data []byte)
	// Drop removes a payload whose bytes failed integrity checks.
	Drop(hash string)
}

// ChunkReader reads chunk payloads by content hash from a colocated
// replica — a store handle on the same host, reachable without touching
// the network. cluster and sched adapt storage.Store to it.
type ChunkReader interface {
	GetChunkData(ctx context.Context, hash string) ([]byte, error)
}

// PeerSource serves decoded KV rows for chunks another gateway in the
// fleet already holds resident — the peer-transfer path. FetchResident
// returns the chunk's KV slice and the encoding level it was originally
// decoded at (storage.TextLevel for a lossless recompute origin), or an
// error when no peer holds it. The returned tensor is the caller's to
// keep.
type PeerSource interface {
	FetchResident(ctx context.Context, contextID string, chunk int) (*tensor.KV, int, error)
}

// Source-class labels a Choice (and the resulting ChunkDecision) can
// carry. The empty string means the fetcher's default delivery: the
// fleet for bitstream chunks, text+recompute for text chunks.
const (
	SourceRAM       = "ram"       // gateway-local payload cache
	SourceDisk      = "disk"      // colocated store replica, no network
	SourceRemote    = "remote"    // same-region ring node over the fleet
	SourceXRegion   = "xregion"   // cross-region replica over the fleet
	SourceRecompute = "recompute" // text payload + GPU prefill
	SourcePeer      = "peer"      // decoded KV resident on a peer gateway
)

// sourceLabel resolves a choice's delivered source class, inferring the
// default labels when the policy did not set one.
func sourceLabel(c Choice) string {
	if c.Source != "" {
		return c.Source
	}
	if c.Text {
		return SourceRecompute
	}
	return SourceRemote
}

// DecisionSource resolves the source class a chunk decision was
// delivered by ("remote" and "recompute" for unlabeled bitstream/text
// deliveries from policy-less fetches).
func DecisionSource(d ChunkDecision) string {
	return sourceLabel(d.Choice)
}
