package streamer

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// testStack builds a small end-to-end stack: model, trained codec, a
// store with one published context, and a transport server over TCP.
type testStack struct {
	model  *llm.Model
	codec  *core.Codec
	store  *storage.MemStore
	tokens []llm.Token
	kv     *tensor.KV
	man    storage.Manifest
	meta   storage.ContextMeta
	client *transport.Client
}

func newStack(t *testing.T) *testStack { return newStackWorkers(t, 0) }

// newStackWorkers is newStack with the codec's worker count pinned
// (0 = GOMAXPROCS).
func newStackWorkers(t *testing.T, workers int) *testStack { return newStackShape(t, workers, 80, 250) }

// newStackShape is newStackWorkers publishing a context of contextTokens
// tokens in chunks of chunkTokens.
func newStackShape(t *testing.T, workers, chunkTokens, contextTokens int) *testStack {
	t.Helper()
	model, err := llm.New(llm.Config{
		Name: "itest", Layers: 6, KVChannels: 16, Channels: 16,
		Hidden: 128, Params: 1e8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = chunkTokens
	cfg.Workers = workers

	rng := rand.New(rand.NewSource(42))
	sample := make([]llm.Token, 400)
	for i := range sample {
		sample[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	bank, err := core.Train(cfg, []*tensor.KV{model.CalculateKV(sample)})
	if err != nil {
		t.Fatal(err)
	}
	codec := core.NewCodec(bank)

	tokens := make([]llm.Token, contextTokens)
	for i := range tokens {
		tokens[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	kv := model.CalculateKV(tokens)

	store := storage.NewMemStore()
	man, _, err := Publish(context.Background(), store, codec, model, "ctx-1", tokens, PublishOptions{KV: kv})
	if err != nil {
		t.Fatal(err)
	}

	return &testStack{model: model, codec: codec, store: store, tokens: tokens, kv: kv, man: man, meta: man.Meta, client: serve(t, store)}
}

func TestPublishStoresAllArtifacts(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	if s.meta.NumChunks() != 4 { // 250 tokens / 80 per chunk
		t.Fatalf("published %d chunks, want 4", s.meta.NumChunks())
	}
	for c := 0; c < s.meta.NumChunks(); c++ {
		for lv := 0; lv < s.meta.Levels; lv++ {
			hash, err := s.man.ChunkHash(lv, c)
			if err != nil {
				t.Fatal(err)
			}
			data, err := s.store.GetChunk(ctx, hash)
			if err != nil {
				t.Fatalf("chunk %d level %d missing: %v", c, lv, err)
			}
			if storage.HashChunk(data) != hash {
				t.Errorf("chunk %d level %d stored under wrong content address", c, lv)
			}
			if int64(len(data)) != s.meta.SizesBytes[lv][c] {
				t.Errorf("chunk %d level %d size %d != meta %d", c, lv, len(data), s.meta.SizesBytes[lv][c])
			}
		}
		hash, err := s.man.ChunkHash(storage.TextLevel, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.store.GetChunk(ctx, hash); err != nil {
			t.Errorf("text chunk %d missing: %v", c, err)
		}
	}
	// Higher levels must be smaller overall.
	for lv := 1; lv < s.meta.Levels; lv++ {
		var prev, cur int64
		for c := 0; c < s.meta.NumChunks(); c++ {
			prev += s.meta.SizesBytes[lv-1][c]
			cur += s.meta.SizesBytes[lv][c]
		}
		if cur >= prev {
			t.Errorf("level %d total %d not below level %d total %d", lv, cur, lv-1, prev)
		}
	}
}

func TestPublishValidation(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	if _, _, err := Publish(ctx, s.store, s.codec, s.model, "empty", nil, PublishOptions{}); err == nil {
		t.Error("published empty context")
	}
	short, _ := s.kv.SliceTokens(0, 10)
	if _, _, err := Publish(ctx, s.store, s.codec, s.model, "bad", s.tokens, PublishOptions{KV: short}); err == nil {
		t.Error("published mismatched KV")
	}
}

func TestFetchEndToEnd(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	kv, report, err := f.Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != len(s.tokens) {
		t.Fatalf("fetched %d tokens, want %d", kv.Tokens, len(s.tokens))
	}
	if len(report.Decisions) != s.meta.NumChunks() {
		t.Errorf("report has %d decisions", len(report.Decisions))
	}
	if report.LoadTime <= 0 || report.BytesReceived <= 0 {
		t.Errorf("report: %+v", report)
	}

	// The fetched cache must be close to the exact one (level-0 loss only)
	// and good enough to answer with high quality.
	res, err := s.model.GenerateWithKV(s.tokens, kv, "What was the first topic?", llm.DefaultQualityParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.95 {
		t.Errorf("fetched cache quality %.3f, want ≥0.95", res.Quality)
	}
}

// TestFetchWithServedBank bootstraps the decoder the way a fresh
// inference server does: it pulls the model bank from the storage server,
// rebuilds the codec from it, and fetches at level 0.
func TestFetchWithServedBank(t *testing.T) {
	s := newStack(t)
	bank, err := s.codec.Bank().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	client := serve(t, s.store, transport.WithBank(bank))
	ctx := context.Background()
	remote, err := client.GetBank(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := core.UnmarshalBank(remote)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fetcher{
		Source:  client,
		Codec:   core.NewCodec(rb),
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	kv, report, err := f.Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != len(s.tokens) || report.BytesReceived == 0 {
		t.Fatalf("fetch: %d tokens, %d bytes", kv.Tokens, report.BytesReceived)
	}
	res, err := s.model.GenerateWithKV(s.tokens, kv, "summarise", llm.DefaultQualityParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality < 0.95 {
		t.Errorf("quality %.3f too low for level 0", res.Quality)
	}
}

// TestFetchTextFallbackIsLossless drives the shipped Planner — an SLO so
// generous that text (lossless) always fits — through a live fetch on
// either acquirer: the stream is opened at the text level, every decision
// is text, nothing is decoded, and recompute behind the assembled prefix
// (ExtendKV resumes from the partially filled destination) gives back the
// original KV exactly.
func TestFetchTextFallbackIsLossless(t *testing.T) {
	s := newStack(t)
	for _, streaming := range []bool{true, false} {
		f := &Fetcher{
			Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner:          Planner{Adapt: true, SLO: time.Hour, DefaultLevel: 1, PriorBandwidth: 1e9},
			PipelineDepth:    3,
			DisableStreaming: !streaming,
		}
		kv, rep, err := f.Fetch(context.Background(), "ctx-1")
		if err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
		if rep.Streamed != streaming || len(rep.Decisions) != s.meta.NumChunks() {
			t.Errorf("streaming=%v: streamed %v, %d decisions", streaming, rep.Streamed, len(rep.Decisions))
		}
		for i, d := range rep.Decisions {
			if !d.Choice.Text {
				t.Fatalf("streaming=%v: decision %d chose %v, want text", streaming, i, d.Choice)
			}
		}
		if d, err := kv.MaxAbsDiff(s.kv); err != nil || d != 0 {
			t.Errorf("streaming=%v: text-path fetch differs from the original KV (diff %v, err %v)", streaming, d, err)
		}
		if rep.RecomputeTime <= 0 || rep.DecodeTime != 0 {
			t.Errorf("streaming=%v: recompute %v, decode %v; want recompute only", streaming, rep.RecomputeTime, rep.DecodeTime)
		}
	}
}

func TestFetchMixedLevelsStillAssembles(t *testing.T) {
	s := newStack(t)
	// Tight SLO with a slow prior forces lower levels after chunk one.
	f := &Fetcher{
		Source: s.client,
		Codec:  s.codec,
		Model:  s.model,
		Device: llm.A40x4(),
		Planner: Planner{
			Adapt: true, SLO: 50 * time.Millisecond, DefaultLevel: 1,
		},
	}
	kv, _, err := f.Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != len(s.tokens) {
		t.Errorf("assembled %d tokens", kv.Tokens)
	}
}

// TestFetchBesidePublisher encodes every level in a loop beside Fetch on a
// 2-worker codec, where one load in flight leaves publish batches no slot:
// between a fetch's BeginLoad and its End no publish block may start unless
// its batch had outwaited the exemption, and the KV must be the one a fetch
// alone delivers.
func TestFetchBesidePublisher(t *testing.T) {
	s := newStackWorkers(t, 2)
	f := &Fetcher{
		Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
		Planner: Planner{DefaultLevel: 1}, PipelineDepth: 2,
	}
	ctx := context.Background()
	alone, _, err := f.Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	published := make(chan error, 1)
	var rounds atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				published <- nil
				return
			default:
			}
			for lv := 0; lv < s.codec.Config().Levels(); lv++ {
				if _, err := s.codec.EncodeContext(s.kv, core.Level(lv)); err != nil {
					published <- err
					return
				}
			}
			rounds.Add(1)
		}
	}()
	// Until the publisher has both finished rounds and been made to wait or
	// hand a slot over: it really ran beside the loads.
	met := func() bool {
		tot := s.codec.SlotTotals()
		return rounds.Load() >= 2 && (tot.PublishYields > 0 || tot.PublishWait > 0)
	}
	for i := 0; i < 8 || !met(); i++ {
		if i == 5000 {
			t.Fatalf("publisher never met a load: %d rounds, totals %+v", rounds.Load(), s.codec.SlotTotals())
		}
		kv, _, err := f.Fetch(ctx, "ctx-1")
		if err != nil {
			t.Fatal(err)
		}
		if d, err := kv.MaxAbsDiff(alone); err != nil || d != 0 {
			t.Fatalf("fetch %d beside the publisher differs from a fetch alone (diff %v, err %v)", i, d, err)
		}
	}
	if _, _, err := f.Fetch(ctx, "missing"); err == nil {
		t.Error("fetching a missing context succeeded")
	}
	close(stop)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	tot := s.codec.SlotTotals()
	if tot.PublishBlocksBesideLoads != 0 {
		t.Errorf("%d publish blocks started under the bound while a load was in flight: %+v", tot.PublishBlocksBesideLoads, tot)
	}
	if tot.LoadsInFlight != 0 {
		t.Errorf("%d loads still in flight", tot.LoadsInFlight)
	}
}

func TestFetchMissingContext(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	if _, _, err := f.Fetch(context.Background(), "missing"); err == nil {
		t.Error("fetching a missing context succeeded")
	}
}

func TestFetchCancelledContext(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Fetch(ctx, "ctx-1"); err == nil {
		t.Error("fetch with cancelled context succeeded")
	}
}

func TestFetchMisconfigured(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{Source: s.client} // missing codec/model
	if _, _, err := f.Fetch(context.Background(), "ctx-1"); err == nil {
		t.Error("misconfigured fetcher succeeded")
	}
}

func TestFetchOverShapedLink(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := newStack(t)
	// Serve the same store over a heavily shaped link; the fetch must
	// still succeed and take measurably longer.
	client := serve(t, s.store, transport.WithEgressTrace(netsim.Constant(8e6))) // 1 MB/s

	f := &Fetcher{
		Source:  client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 3}, // smallest level
	}
	start := time.Now()
	kv, report, err := f.Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if kv.Tokens != len(s.tokens) {
		t.Errorf("assembled %d tokens", kv.Tokens)
	}
	wantMin := time.Duration(float64(report.BytesReceived) / 1e6 * 0.5 * float64(time.Second))
	if elapsed < wantMin {
		t.Errorf("shaped fetch took %v for %d bytes, expected ≥%v", elapsed, report.BytesReceived, wantMin)
	}
}
