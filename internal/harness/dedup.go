package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// The content-addressed store scenario (ISSUE 3): store_kv/get_kv over
// manifests and hashed chunk payloads, measured on a live loopback ring —
// cross-context dedup ratio for contexts sharing a prefix (the RAG
// document-pool shape), append-publish speedup for multi-turn chat
// (§9's incremental KV update), warm-turn load time with a resident
// prefix, and reference-counted GC reclaiming exactly the unreferenced
// bytes.

func init() {
	register("X6", "Extension: content-addressed chunk store (dedup, append, refcounted GC)", runX6Dedup)
}

// x6Tokens draws n tokens from a seeded stream.
func x6Tokens(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

func runX6Dedup(f *Fixture) ([]*Report, error) {
	s, err := newContextStack()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(63))
	chunkTok := s.codec.Config().ChunkTokens // 64

	// ---------------------------------------------------------------- dedup
	fl, sharded, err := launchRing(3, 2, 4<<20)
	if err != nil {
		return nil, err
	}
	defer fl.Close()

	dedup := &Report{
		ID:      "X6",
		Title:   "Content-addressed store: cross-context dedup (3 nodes, replication 2, shared 384-token prefix)",
		Columns: []string{"Publish", "Logical", "Stored new", "Reused", "Encodes skipped", "Fleet physical", "Dedup ratio"},
	}
	prefix := x6Tokens(rng, 6*chunkTok) // 384 shared tokens
	var logical int64
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("x6-doc-%d", i)
		tokens := append(append([]llm.Token{}, prefix...), x6Tokens(rng, 2*chunkTok)...)
		man, stats, err := streamer.Publish(ctx, sharded, s.codec, s.model, id, tokens, streamer.PublishOptions{})
		if err != nil {
			return nil, err
		}
		logical += man.Meta.TotalBytes()
		u, err := sharded.Usage(ctx)
		if err != nil {
			return nil, err
		}
		// Fleet bytes are replicated; logical bytes are per-copy. The ratio
		// normalises by the replication factor so 1.0 = no dedup.
		ratio := float64(logical) * float64(sharded.Ring().Replicas()) / float64(u.ChunkBytes)
		dedup.AddRow(id,
			fmt.Sprintf("%.2f MB", float64(man.Meta.TotalBytes())/1e6),
			fmt.Sprintf("%.2f MB", float64(stats.BytesStored)/1e6),
			fmt.Sprintf("%.2f MB", float64(stats.BytesReused)/1e6),
			fmt.Sprintf("%d", stats.EncodesSkipped),
			fmt.Sprintf("%.2f MB", float64(u.ChunkBytes)/1e6),
			fmt.Sprintf("%.2fx", ratio))
	}
	dedup.AddNote("payloads are keyed by bitstream hash and placed on the ring by content, so the shared prefix is stored once per replica set no matter how many contexts reference it; the fingerprint index skips the prefix encodes entirely")

	// --------------------------------------------------------------- append
	appendRep := &Report{
		ID:      "X6",
		Title:   "Multi-turn append vs full republish (64-token turns on a growing history)",
		Columns: []string{"Turn", "History", "Append time", "Republish time", "Speedup", "Append stored", "Republish stored"},
	}
	history := x6Tokens(rng, 2*chunkTok)
	kv := s.model.CalculateKV(history)
	if _, _, err := streamer.Publish(ctx, sharded, s.codec, s.model, "x6-chat", history, streamer.PublishOptions{KV: kv}); err != nil {
		return nil, err
	}
	var appendTotal, republishTotal time.Duration
	for turn := 2; turn <= 5; turn++ {
		turnToks := x6Tokens(rng, chunkTok)
		ext, err := s.model.ExtendKV(kv, len(history), turnToks)
		if err != nil {
			return nil, err
		}
		kv, err = tensor.ConcatTokens(kv, ext)
		if err != nil {
			return nil, err
		}
		history = append(history, turnToks...)

		start := time.Now()
		_, aStats, err := streamer.Append(ctx, sharded, s.codec, s.model, "x6-chat", turnToks, streamer.PublishOptions{KV: kv})
		if err != nil {
			return nil, err
		}
		aTime := time.Since(start)
		appendTotal += aTime

		// Duplicating baseline: re-encode and re-store the whole history
		// into a fresh store each turn — the position-addressed world,
		// where every turn republishes the conversation whole.
		start = time.Now()
		_, rStats, err := streamer.Publish(ctx, storage.NewMemStore(), s.codec, s.model, fmt.Sprintf("x6-chat-t%d", turn), history,
			streamer.PublishOptions{KV: kv})
		if err != nil {
			return nil, err
		}
		rTime := time.Since(start)
		republishTotal += rTime
		appendRep.AddRow(fmt.Sprintf("%d", turn), fmt.Sprintf("%d tok", len(history)),
			fmt.Sprintf("%.1f ms", aTime.Seconds()*1e3),
			fmt.Sprintf("%.1f ms", rTime.Seconds()*1e3),
			fmt.Sprintf("%.1fx", rTime.Seconds()/aTime.Seconds()),
			fmt.Sprintf("%.2f MB", float64(aStats.BytesStored)/1e6),
			fmt.Sprintf("%.2f MB", float64(rStats.BytesStored)/1e6))
	}
	appendRep.AddRow("total", "-",
		fmt.Sprintf("%.1f ms", appendTotal.Seconds()*1e3),
		fmt.Sprintf("%.1f ms", republishTotal.Seconds()*1e3),
		fmt.Sprintf("%.1fx", republishTotal.Seconds()/appendTotal.Seconds()), "-", "-")
	appendRep.AddNote("append re-encodes only the dirty tail chunk plus the turn's new chunks and publishes a manifest referencing the clean prefix; the baseline re-encodes the whole conversation every turn (and its storage grows quadratically with turns)")

	// ------------------------------------------------------ warm-turn TTFT
	warm := &Report{
		ID:      "X6",
		Title:   "Warm-turn load time: resident prefix vs cold fetch (live ring, level 0)",
		Columns: []string{"Path", "Chunks fetched", "Bytes", "Load time", "Xfer / decode"},
	}
	pool := cluster.NewPool(sharded.Ring(), cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()
	fetcher := &streamer.Fetcher{
		Source: pool, Codec: s.codec, Model: s.model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	coldKV, coldRep, err := fetcher.Fetch(ctx, "x6-chat")
	if err != nil {
		return nil, err
	}
	warm.AddRow("cold (new serving node)",
		fmt.Sprintf("%d", len(coldRep.Decisions)),
		fmt.Sprintf("%.1f KB", float64(coldRep.BytesReceived)/1e3),
		fmt.Sprintf("%.2f ms", coldRep.LoadTime.Seconds()*1e3),
		loadBreakdown(coldRep))
	// Resident: everything but the last turn (the session held the KV).
	resident, err := kv.SliceTokens(0, len(history)-chunkTok)
	if err != nil {
		return nil, err
	}
	warmKV, warmFetch, err := fetcher.FetchFrom(ctx, "x6-chat", resident)
	if err != nil {
		return nil, err
	}
	if warmKV.Tokens != coldKV.Tokens {
		return nil, fmt.Errorf("warm fetch assembled %d tokens, cold %d", warmKV.Tokens, coldKV.Tokens)
	}
	warm.AddRow("warm (resident through previous turn)",
		fmt.Sprintf("%d", len(warmFetch.Decisions)),
		fmt.Sprintf("%.1f KB", float64(warmFetch.BytesReceived)/1e3),
		fmt.Sprintf("%.2f ms", warmFetch.LoadTime.Seconds()*1e3),
		loadBreakdown(warmFetch))
	warm.AddNote("a warm turn fetches the manifest plus only the suffix chunks its resident cache misses — on loopback the gap is small in ms but the byte ratio is what a WAN pays")

	// ------------------------------------------------------------------ GC
	gc := &Report{
		ID:      "X6",
		Title:   "Refcounted GC: delete one of two overlapping contexts, fleet-wide sweep",
		Columns: []string{"Step", "Manifests", "Fleet chunks", "Fleet bytes", "Reclaimed"},
	}
	report := func(step string, res *storage.SweepResult) error {
		u, err := sharded.Usage(ctx)
		if err != nil {
			return err
		}
		reclaimed := "-"
		if res != nil {
			reclaimed = fmt.Sprintf("%d chunks / %.2f MB", res.RemovedChunks, float64(res.ReclaimedBytes)/1e6)
		}
		// Manifests are replicated to every node; count distinct contexts.
		ids, err := sharded.ListContexts(ctx)
		if err != nil {
			return err
		}
		gc.AddRow(step, fmt.Sprintf("%d", len(ids)), fmt.Sprintf("%d", u.Chunks),
			fmt.Sprintf("%.2f MB", float64(u.ChunkBytes)/1e6), reclaimed)
		return nil
	}
	if err := report("before delete", nil); err != nil {
		return nil, err
	}
	survivorBefore, _, err := fetcher.Fetch(ctx, "x6-doc-1")
	if err != nil {
		return nil, err
	}
	if err := pool.DeleteContext(ctx, "x6-doc-0"); err != nil {
		return nil, err
	}
	res, err := pool.Sweep(ctx, 0)
	if err != nil {
		return nil, err
	}
	if err := report("delete x6-doc-0 + sweep", &res); err != nil {
		return nil, err
	}
	survivorAfter, _, err := fetcher.Fetch(ctx, "x6-doc-1")
	if err != nil {
		return nil, fmt.Errorf("surviving context unfetchable after sweep: %w", err)
	}
	diff, err := survivorBefore.MaxAbsDiff(survivorAfter)
	if err != nil {
		return nil, err
	}
	if diff != 0 {
		return nil, fmt.Errorf("surviving context decodes differently after sweep (diff %g)", diff)
	}
	res2, err := pool.Sweep(ctx, 0)
	if err != nil {
		return nil, err
	}
	if err := report("second sweep (idempotent)", &res2); err != nil {
		return nil, err
	}
	gc.AddNote("DeleteContext drops the manifest and its payload references on every node; the sweep reclaims only x6-doc-0's unique suffix chunks — the shared prefix survives through the other contexts' refcounts, and x6-doc-1 still decodes bit-for-bit")
	return []*Report{dedup, appendRep, warm, gc}, nil
}
