package streamer

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Incremental fetching — the live side of the SVC-style extension
// (paper §9): fetch every chunk at the coarsest level first so
// generation can start as early as possible, then upgrade the resident
// cache in place by fetching refinement bitstreams.

// IncrementalFetch is the two-phase result of FetchIncremental.
type IncrementalFetch struct {
	// Base is the immediately usable KV cache, decoded at the coarsest
	// encoding level.
	Base *tensor.KV
	// BaseReport describes the base phase (its LoadTime is the
	// time-to-first-usable-cache).
	BaseReport *FetchReport

	fetcher  *Fetcher
	manifest storage.Manifest
	target   core.Level
}

// Upgrade fetches the refinement streams and returns the cache upgraded
// to the target level's quality. It can run after generation has already
// started from Base, which it reads but does not modify.
func (inc *IncrementalFetch) Upgrade(ctx context.Context) (*tensor.KV, *FetchReport, error) {
	start := time.Now()
	meta := inc.manifest.Meta
	report := &FetchReport{}
	parts := make([]*tensor.KV, meta.NumChunks())
	offset := 0
	for i, tokens := range meta.ChunkTokens {
		hash, err := inc.manifest.ChunkHash(storage.RefineLevelKey(int(inc.target)), i)
		if err != nil {
			return nil, nil, fmt.Errorf("streamer: %w", err)
		}
		reqStart := time.Now()
		payload, err := inc.fetcher.Source.GetChunkData(ctx, hash)
		if err != nil {
			return nil, nil, fmt.Errorf("streamer: fetching refinement chunk %d: %w", i, err)
		}
		dur := time.Since(reqStart)
		// The chunk's base is its token range of the assembled tensor.
		kv, err := inc.Base.SliceTokens(offset, offset+tokens)
		if err != nil {
			return nil, nil, fmt.Errorf("streamer: %w", err)
		}
		base := &core.Chunk{Index: i, TokenOffset: offset, Level: core.Level(meta.Levels - 1), KV: kv}
		up, err := inc.fetcher.Codec.ApplyRefinement(base, payload)
		if err != nil {
			return nil, nil, fmt.Errorf("streamer: applying refinement chunk %d: %w", i, err)
		}
		parts[i] = up.KV
		offset += tokens
		report.Decisions = append(report.Decisions, ChunkDecision{
			Chunk: i, Choice: Choice{Level: inc.target}, Bytes: int64(len(payload)), Transfer: dur,
		})
		report.BytesReceived += int64(len(payload))
	}
	kv, err := tensor.ConcatTokens(parts...)
	if err != nil {
		return nil, nil, fmt.Errorf("streamer: reassembling upgraded cache: %w", err)
	}
	report.LoadTime = time.Since(start)
	return kv, report, nil
}

// FetchIncremental retrieves a context in two phases: the coarsest-level
// bitstreams now (smallest, fastest first token) and, via the returned
// handle, refinement streams that upgrade the cache to `target`. The
// context must have been published with the matching refinement target
// (PublishOptions.RefineTargets). The base phase is an ordinary fetch
// pinned at the coarsest level: it streams when the source can, pipelines
// at PipelineDepth and refetches corrupt payloads like any other.
func (f *Fetcher) FetchIncremental(ctx context.Context, contextID string, target core.Level) (*IncrementalFetch, error) {
	start, man, load, err := f.open(ctx, contextID)
	if err != nil {
		return nil, err
	}
	defer load.End()
	if !slices.Contains(man.Meta.RefineTargets, int(target)) {
		return nil, fmt.Errorf("streamer: context %q has no refinement streams for level %d (published targets: %v)",
			contextID, target, man.Meta.RefineTargets)
	}
	pinned := *f
	pinned.Policy, pinned.Planner = nil, Planner{DefaultLevel: core.Level(man.Meta.Levels - 1)}
	base, report, err := pinned.fetch(ctx, start, man, contextID, nil)
	if err != nil {
		return nil, err
	}
	return &IncrementalFetch{Base: base, BaseReport: report, fetcher: f, manifest: man, target: target}, nil
}
