// Package storage implements the KV cache store of §6 as a
// content-addressed chunk store: every chunk payload — one encoding level
// of one context chunk, or its token text (the recompute fallback) — is
// keyed by the SHA-256 of its bitstream, and a per-context manifest maps
// contextID → ordered chunk hashes per level plus the ContextMeta the
// streamer adapts over. Identical payloads published under different
// contexts (shared document prefixes, re-used conversation history) are
// stored once; manifests hold references.
//
// Garbage collection is reference-counted: PutManifest and DeleteContext
// adjust per-payload refcounts, and Sweep reclaims payloads no manifest
// references any more. A grace age protects chunks uploaded by an
// in-flight publish whose manifest has not landed yet; TouchChunk
// freshens a reused payload's age for the same reason.
//
// Two stores are provided: an in-memory store (inference-server cache,
// tests) and a filesystem store (the "dedicated storage server" of §3).
// They are one index — manifests, refcounts, sweeps — over a memory or a
// file backend, and both are safe for concurrent use.
package storage

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"
)

// TextLevel is the pseudo-level under which a chunk's token text is
// stored, for the streamer's recompute fallback (§5.3).
const TextLevel = -1

// ContextMeta describes one stored context: its chunk layout and the
// payload sizes per level, which is what the streamer's adaptation logic
// reads to estimate per-configuration transfer delays (§5.3) and what the
// storage-cost accounting of Fig 14d sums.
type ContextMeta struct {
	ContextID   string    `json:"context_id"`
	Model       string    `json:"model"`
	TokenCount  int       `json:"token_count"`
	ChunkTokens []int     `json:"chunk_tokens"`         // tokens per chunk
	Levels      int       `json:"levels"`               // number of encoding levels
	SizesBytes  [][]int64 `json:"sizes_bytes"`          // [level][chunk] payload sizes
	TextBytes   []int64   `json:"text_bytes,omitempty"` // per-chunk text payload sizes
	// Format is the chunk container format version the publisher wrote
	// (core.FormatV1/FormatV2). Advisory: every payload self-describes
	// via its magic bytes and decoders dispatch on those, so a manifest
	// may even name chunks of mixed vintage. 0 means a pre-format-field
	// publisher, i.e. v1.
	Format int `json:"format,omitempty"`
}

// NumChunks returns the number of chunks in the context.
func (m ContextMeta) NumChunks() int { return len(m.ChunkTokens) }

// Validate checks internal consistency.
func (m ContextMeta) Validate() error {
	if m.ContextID == "" {
		return errors.New("storage: meta has empty context id")
	}
	if m.Levels <= 0 || len(m.SizesBytes) != m.Levels {
		return fmt.Errorf("storage: meta has %d levels but %d size rows", m.Levels, len(m.SizesBytes))
	}
	total := 0
	for _, n := range m.ChunkTokens {
		if n <= 0 {
			return fmt.Errorf("storage: meta has non-positive chunk length %d", n)
		}
		total += n
	}
	if total != m.TokenCount {
		return fmt.Errorf("storage: chunk tokens sum to %d, meta says %d", total, m.TokenCount)
	}
	for lv, row := range m.SizesBytes {
		if len(row) != m.NumChunks() {
			return fmt.Errorf("storage: level %d has %d sizes for %d chunks", lv, len(row), m.NumChunks())
		}
	}
	if len(m.TextBytes) != 0 && len(m.TextBytes) != m.NumChunks() {
		return fmt.Errorf("storage: %d text sizes for %d chunks", len(m.TextBytes), m.NumChunks())
	}
	return nil
}

// TotalBytes returns the total logical footprint of the context across all
// encoded versions and the text copies (Fig 14d) — what a store without
// cross-context dedup would hold for it.
func (m ContextMeta) TotalBytes() int64 {
	var total int64
	for _, row := range m.SizesBytes {
		for _, n := range row {
			total += n
		}
	}
	for _, n := range m.TextBytes {
		total += n
	}
	return total
}

// ErrNotFound is returned when a context, chunk or fingerprint is absent.
var ErrNotFound = errors.New("storage: not found")

// ErrCorruptManifest is returned when a stored manifest fails to decode
// (truncated or corrupted on disk). Other contexts stay readable.
var ErrCorruptManifest = errors.New("storage: corrupt manifest")

// HashChunk returns the content address of a chunk payload: the lowercase
// hex SHA-256 of its bytes.
func HashChunk(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// hashLen is the length of a hex SHA-256.
const hashLen = 2 * sha256.Size

func validateHash(hash string) error {
	if len(hash) != hashLen || !lowerHex(hash) {
		return fmt.Errorf("storage: chunk hash %q is not a lowercase hex SHA-256", hash)
	}
	return nil
}

// validateFingerprintKey accepts the hex digests the publisher derives
// from chunk identities; the bound keeps keys path-safe for FileStore.
func validateFingerprintKey(key string) error {
	if key == "" || len(key) > 128 || !lowerHex(key) {
		return fmt.Errorf("storage: fingerprint key %q is not 1 to 128 lowercase hex digits", key)
	}
	return nil
}

func lowerHex(s string) bool { return strings.Trim(s, "0123456789abcdef") == "" }

// Fingerprint is one entry of the publish-side dedup index: the bitstream
// hash (and raw size) a previously encoded chunk identity produced.
// Looking it up lets Publish skip re-encoding a chunk whose inputs it has
// seen before; the entry is advisory — the publisher verifies the payload
// still exists (TouchChunk) before trusting it.
type Fingerprint struct {
	Hash  string `json:"hash"`
	Bytes int64  `json:"bytes"`
}

// SweepResult accounts one garbage-collection sweep.
type SweepResult struct {
	// ScannedChunks is the number of stored payloads examined.
	ScannedChunks int `json:"scanned_chunks"`
	// RemovedChunks / ReclaimedBytes are the unreferenced payloads deleted.
	RemovedChunks  int   `json:"removed_chunks"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// RemovedHashes lists the deleted payloads' hashes so RAM tiers
	// layered above the swept store can invalidate them.
	RemovedHashes []string `json:"removed_hashes,omitempty"`
	// PrunedFingerprints is the number of dedup-index entries dropped
	// because their payload is gone.
	PrunedFingerprints int `json:"pruned_fingerprints"`
}

// Add folds another sweep into this one (fleet aggregation).
func (r *SweepResult) Add(o SweepResult) {
	r.ScannedChunks += o.ScannedChunks
	r.RemovedChunks += o.RemovedChunks
	r.ReclaimedBytes += o.ReclaimedBytes
	r.RemovedHashes = append(r.RemovedHashes, o.RemovedHashes...)
	r.PrunedFingerprints += o.PrunedFingerprints
}

// Usage snapshots a store's physical footprint. Because payloads are
// deduplicated, ChunkBytes counts each unique payload once — the number
// that scales with unique content rather than request count.
type Usage struct {
	Manifests  int   `json:"manifests"`
	Chunks     int   `json:"chunks"`
	ChunkBytes int64 `json:"chunk_bytes"`
}

// Add folds another snapshot into this one (fleet aggregation; replicas
// count as real bytes).
func (u *Usage) Add(o Usage) {
	u.Manifests += o.Manifests
	u.Chunks += o.Chunks
	u.ChunkBytes += o.ChunkBytes
}

// Store is the content-addressed chunk registry interface shared by
// backends. The paper's store_kv/get_kv map onto PutManifest+PutChunk /
// GetManifest+GetChunk.
type Store interface {
	// PutChunk stores one payload under its content hash. Writing an
	// existing hash is an idempotent no-op (and freshens its GC age).
	PutChunk(ctx context.Context, hash string, data []byte) error
	// GetChunk retrieves one payload by content hash.
	GetChunk(ctx context.Context, hash string) ([]byte, error)
	// TouchChunk reports whether the payload exists and, if so, freshens
	// its GC age so an in-flight publish reusing it is safe from a
	// concurrent sweep until its manifest lands.
	TouchChunk(ctx context.Context, hash string) (bool, error)

	// PutManifest stores a context's manifest, replacing any existing one
	// and adjusting payload refcounts accordingly.
	PutManifest(ctx context.Context, m Manifest) error
	// GetManifest retrieves a context's manifest.
	GetManifest(ctx context.Context, contextID string) (Manifest, error)
	// DeleteContext drops a context's manifest and decrements the
	// refcounts of every payload it referenced. Payload bytes are
	// reclaimed later, by Sweep.
	DeleteContext(ctx context.Context, contextID string) error
	// ListContexts returns the stored context ids, sorted.
	ListContexts(ctx context.Context) ([]string, error)

	// PutFingerprint records one dedup-index entry; GetFingerprint looks
	// one up (ErrNotFound when absent).
	PutFingerprint(ctx context.Context, key string, fp Fingerprint) error
	GetFingerprint(ctx context.Context, key string) (Fingerprint, error)

	// Sweep reclaims payloads referenced by no manifest whose GC age is at
	// least minAge, and prunes dedup-index entries pointing at reclaimed
	// payloads. The grace age protects chunks written or touched by a
	// publish whose manifest has not landed yet.
	Sweep(ctx context.Context, minAge time.Duration) (SweepResult, error)
	// Usage reports the store's physical footprint.
	Usage(ctx context.Context) (Usage, error)
}
