package streamer

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Append extends a published context with newTokens — the multi-turn
// update the paper sketches in §9 ("KV cache of the new context can be
// incrementally updated"), made cheap by the content-addressed store: the
// clean chunk prefix of the old manifest is adopted by reference, and
// only the dirty suffix is re-encoded — the old partial tail chunk (its
// content grows) plus the chunks the new tokens introduce. A
// conversation therefore publishes per turn work proportional to the
// turn, not to the whole history.
//
// opts.KV, when set, must be the full cache of the extended context (a
// live session has it resident after generating the turn); the engine
// encodes the dirty range out of it in place. Without it, Append
// reconstructs the old token stream from the stored text payloads (exact)
// and recomputes the needed KV — still skipping every prefix re-encode,
// which dominates.
//
// The new manifest carries the real levels and the text rows only: rows an
// older publisher stored under other levels (refinement streams) are
// dropped, and the next Sweep reclaims their payloads.
func Append(ctx context.Context, st storage.Store, codec *core.Codec, model *llm.Model,
	contextID string, newTokens []llm.Token, opts PublishOptions) (storage.Manifest, *PublishStats, error) {

	if len(newTokens) == 0 {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: appending no tokens to %q", contextID)
	}
	old, err := st.GetManifest(ctx, contextID)
	if err != nil {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: appending to %q: %w", contextID, err)
	}
	if old.Meta.Model != model.Config().Name {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: context %q was published for model %q, not %q",
			contextID, old.Meta.Model, model.Config().Name)
	}
	if old.Meta.Levels != codec.Config().Levels() {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: context %q has %d levels, codec has %d",
			contextID, old.Meta.Levels, codec.Config().Levels())
	}
	oldT := old.Meta.TokenCount
	total := oldT + len(newTokens)
	chunkTok := codec.Config().ChunkTokens
	dirtyFrom := oldT / chunkTok // first chunk whose content changes
	dirtyStart := dirtyFrom * chunkTok
	if got := len(old.ChainDigests); got != old.Meta.NumChunks() {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: context %q has %d chain digests for %d chunks (published before append support?); republish it",
			contextID, got, old.Meta.NumChunks())
	}
	prevChain := ""
	if dirtyFrom > 0 {
		prevChain = old.ChainDigests[dirtyFrom-1]
	}

	// Recover the dirty tail's old tokens from the stored text payload:
	// the caller only supplies the appended turn.
	var tail []llm.Token
	if dirtyStart < oldT {
		tail, err = StoredTokens(ctx, st, old, dirtyFrom, dirtyFrom+1)
		if err != nil {
			return storage.Manifest{}, nil, err
		}
		if len(tail) != oldT-dirtyStart {
			return storage.Manifest{}, nil, fmt.Errorf("streamer: context %q tail chunk has %d tokens, meta says %d",
				contextID, len(tail), oldT-dirtyStart)
		}
	}
	suffix := make([]llm.Token, 0, len(tail)+len(newTokens))
	suffix = append(suffix, tail...)
	suffix = append(suffix, newTokens...)

	var kvFor func() *tensor.KV
	switch {
	case opts.KV != nil:
		if opts.KV.Tokens != total {
			return storage.Manifest{}, nil, fmt.Errorf("streamer: appended cache covers %d tokens, context grows to %d", opts.KV.Tokens, total)
		}
		kvFor = kvProvider(model, nil, opts.KV)
	default:
		// Exact fallback: rebuild the full token stream from stored text
		// and recompute. Costs KV compute, never prefix re-encodes.
		prefix, err := StoredTokens(ctx, st, old, 0, dirtyFrom)
		if err != nil {
			return storage.Manifest{}, nil, err
		}
		full := make([]llm.Token, 0, total)
		full = append(full, prefix...)
		full = append(full, suffix...)
		if len(full) != total {
			return storage.Manifest{}, nil, fmt.Errorf("streamer: context %q stored text holds %d tokens, want %d",
				contextID, len(full), total)
		}
		kvFor = kvProvider(model, full, nil)
	}

	job := publishJob{
		contextID:    contextID,
		total:        total,
		firstChunk:   dirtyFrom,
		startOffset:  dirtyStart,
		prevChain:    prevChain,
		suffixTokens: suffix,
		scale:        normScale(opts.SizeScale),
		kv:           kvFor,
	}
	frag, err := encodeChunks(ctx, st, codec, model, job)
	if err != nil {
		return storage.Manifest{}, nil, err
	}

	// Stitch: clean prefix rows by reference, fragment rows for the rest.
	man := storage.Manifest{
		Meta: storage.ContextMeta{
			ContextID:   contextID,
			Model:       old.Meta.Model,
			TokenCount:  total,
			ChunkTokens: append(append([]int{}, old.Meta.ChunkTokens[:dirtyFrom]...), frag.chunkTokens...),
			Levels:      old.Meta.Levels,
			TextBytes:   append(append([]int64{}, old.Meta.TextBytes[:dirtyFrom]...), frag.sizes[storage.TextLevel]...),
		},
		Hashes:       map[int][]string{},
		ChainDigests: append(append([]string{}, old.ChainDigests[:dirtyFrom]...), frag.chains...),
	}
	man.Meta.SizesBytes = make([][]int64, old.Meta.Levels)
	for lv := 0; lv < old.Meta.Levels; lv++ {
		man.Meta.SizesBytes[lv] = append(append([]int64{}, old.Meta.SizesBytes[lv][:dirtyFrom]...), frag.sizes[lv]...)
		man.Hashes[lv] = append(append([]string{}, old.Hashes[lv][:dirtyFrom]...), frag.hashes[lv]...)
	}
	man.Hashes[storage.TextLevel] = append(append([]string{}, old.Hashes[storage.TextLevel][:dirtyFrom]...), frag.hashes[storage.TextLevel]...)
	if err := st.PutManifest(ctx, man); err != nil {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: storing manifest: %w", err)
	}
	frag.stats.Chunks = man.Meta.NumChunks()
	frag.stats.ReusedChunks = dirtyFrom
	return man, &frag.stats, nil
}

// StoredTokens reassembles the exact token stream of chunks [from, to)
// from the context's stored text payloads.
func StoredTokens(ctx context.Context, st storage.Store, man storage.Manifest, from, to int) ([]llm.Token, error) {
	var out []llm.Token
	for c := from; c < to; c++ {
		hash, err := man.ChunkHash(storage.TextLevel, c)
		if err != nil {
			return nil, fmt.Errorf("streamer: %w", err)
		}
		payload, err := st.GetChunk(ctx, hash)
		if err != nil {
			return nil, fmt.Errorf("streamer: reading stored text of chunk %d: %w", c, err)
		}
		toks, err := llm.DecodeTokens(payload)
		if err != nil {
			return nil, fmt.Errorf("streamer: decoding stored text of chunk %d: %w", c, err)
		}
		out = append(out, toks...)
	}
	return out, nil
}
