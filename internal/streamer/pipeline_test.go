package streamer

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// gatedSource wraps a ChunkSource, counting concurrent GetChunkData calls
// and optionally holding each transfer open until `hold` elapses so
// overlap is observable.
type gatedSource struct {
	inner ChunkSource
	hold  time.Duration

	mu      sync.Mutex
	current int
	max     int
	calls   int
}

func (g *gatedSource) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	return g.inner.GetManifest(ctx, id)
}

func (g *gatedSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	g.mu.Lock()
	g.current++
	g.calls++
	if g.current > g.max {
		g.max = g.current
	}
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		g.current--
		g.mu.Unlock()
	}()
	if g.hold > 0 {
		select {
		case <-time.After(g.hold):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return g.inner.GetChunkData(ctx, hash)
}

func (g *gatedSource) maxInFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.max
}

// TestPipelineDepthOverlapsTransfers: at depth K ≥ 2 the fetcher must
// hold ≥ 2 chunk transfers in flight concurrently; at depth 1 it must
// stay strictly sequential.
func TestPipelineDepthOverlapsTransfers(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	for _, tc := range []struct {
		depth   int
		wantMin int
		wantMax int
	}{
		{depth: 1, wantMin: 1, wantMax: 1},
		{depth: 3, wantMin: 2, wantMax: 3},
	} {
		src := &gatedSource{inner: s.client, hold: 30 * time.Millisecond}
		f := &Fetcher{
			Source: src, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner:       Planner{Adapt: false, DefaultLevel: 1},
			PipelineDepth: tc.depth,
		}
		kv, rep, err := f.Fetch(ctx, "ctx-1")
		if err != nil {
			t.Fatalf("depth %d: %v", tc.depth, err)
		}
		if d, err := kv.MaxAbsDiff(mustDecodeReference(t, s)); err != nil || d != 0 {
			t.Fatalf("depth %d: pipelined fetch differs from reference decode (diff %v, err %v)", tc.depth, d, err)
		}
		got := src.maxInFlight()
		if got < tc.wantMin || got > tc.wantMax {
			t.Errorf("depth %d: max in-flight transfers = %d, want in [%d,%d]", tc.depth, got, tc.wantMin, tc.wantMax)
		}
		if len(rep.Decisions) != s.meta.NumChunks() {
			t.Errorf("depth %d: %d decisions, want %d", tc.depth, len(rep.Decisions), s.meta.NumChunks())
		}
		for i, d := range rep.Decisions {
			if d.Chunk != i || d.Bytes <= 0 || d.Transfer <= 0 {
				t.Errorf("depth %d: decision %d incomplete: %+v", tc.depth, i, d)
			}
		}
		if rep.TransferTime <= 0 || rep.DecodeTime <= 0 {
			t.Errorf("depth %d: missing load breakdown: transfer %v decode %v", tc.depth, rep.TransferTime, rep.DecodeTime)
		}
		if rep.RecomputeTime != 0 {
			t.Errorf("depth %d: unexpected recompute time %v for an all-bitstream fetch", tc.depth, rep.RecomputeTime)
		}
	}
}

// mustDecodeReference decodes the context directly from the store.
func mustDecodeReference(t *testing.T, s *testStack) *tensor.KV {
	t.Helper()
	chunks := make([][]byte, s.meta.NumChunks())
	for i := range chunks {
		hash, err := s.man.ChunkHash(1, i)
		if err != nil {
			t.Fatal(err)
		}
		data, err := s.store.GetChunk(context.Background(), hash)
		if err != nil {
			t.Fatal(err)
		}
		chunks[i] = data
	}
	kv, err := s.codec.DecodeContext(chunks)
	if err != nil {
		t.Fatal(err)
	}
	return kv
}

// TestFetchCancelStopsPipeline: cancelling mid-fetch must stop issuing
// transfers and return promptly at any pipeline depth.
func TestFetchCancelStopsPipeline(t *testing.T) {
	s := newStack(t)
	src := &gatedSource{inner: s.client, hold: 50 * time.Millisecond}
	f := &Fetcher{
		Source: src, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
		Planner:       Planner{Adapt: false, DefaultLevel: 1},
		PipelineDepth: 2,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := f.Fetch(ctx, "ctx-1")
	if err == nil {
		t.Fatal("cancelled fetch succeeded")
	}
	if calls := func() int { src.mu.Lock(); defer src.mu.Unlock(); return src.calls }(); calls >= s.meta.NumChunks() {
		t.Errorf("cancelled fetch still issued all %d transfers", calls)
	}
}

// TestFetchSingleDestinationAllocation: FetchFrom must assemble into one
// destination tensor — total bytes allocated stay a small constant factor
// of the KV size and scale linearly (not quadratically) in chunk count.
// The pre-rewrite ConcatTokens-per-chunk pattern allocated ~n/2 full
// copies of the context; this asserts well under 2 extra copies total.
func TestFetchSingleDestinationAllocation(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{
		Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 1},
	}
	ctx := context.Background()
	// Warm the codec scratch pools so steady-state allocation is measured.
	if _, _, err := f.Fetch(ctx, "ctx-1"); err != nil {
		t.Fatal(err)
	}
	kvBytes := int64(s.kv.Elems()) * 2 * 4 // both K and V, float32

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kv, _, err := f.Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if kv.Tokens != s.kv.Tokens {
		t.Fatalf("fetched %d tokens, want %d", kv.Tokens, s.kv.Tokens)
	}
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	// One destination + transfer payloads + bounded scratch. The old
	// quadratic path allocated (numChunks/2 + 1) ≈ 3x kvBytes in tensors
	// alone for this 4-chunk context and grows with chunk count; the
	// bound fails it while leaving slack for payload buffers and noise.
	budget := 2 * kvBytes
	if allocated > budget {
		t.Errorf("fetch allocated %d bytes, budget %d (2x the %d-byte KV): reassembly is copying per chunk", allocated, budget, kvBytes)
	}
}
