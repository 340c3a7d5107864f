package streamer

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// mustSlice is SliceTokens or bust.
func mustSlice(t *testing.T, kv *tensor.KV, lo, hi int) *tensor.KV {
	t.Helper()
	out, err := kv.SliceTokens(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Tests for the content-addressed publish path: cross-context dedup of
// shared prefixes, append-mode re-encoding of only the dirty suffix, and
// suffix-only fetching against a resident prefix.

// payloadRows counts the payload rows a context stores (levels + text).
func payloadRows(s *testStack) int { return s.codec.Config().Levels() + 1 }

func TestPublishDedupSharedPrefix(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	store := storage.NewMemStore()

	manA, statsA, err := Publish(ctx, store, s.codec, s.model, "doc-a", s.tokens, PublishOptions{KV: s.kv})
	if err != nil {
		t.Fatal(err)
	}
	if statsA.PayloadsReused != 0 || statsA.EncodesSkipped != 0 {
		t.Fatalf("first publish dedup'd against empty store: %+v", statsA)
	}
	usageA, err := store.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if usageA.ChunkBytes != statsA.BytesStored {
		t.Fatalf("usage %d != stored %d", usageA.ChunkBytes, statsA.BytesStored)
	}

	// doc-b shares doc-a's first two chunks (2×80 tokens) and diverges
	// after: the shared chunks must be stored exactly once.
	shared := 2 * s.codec.Config().ChunkTokens
	tokensB := append(append([]llm.Token{}, s.tokens[:shared]...), s.tokens...)
	tokensB = tokensB[:shared+90] // 90 fresh-position tokens after the shared prefix
	manB, statsB, err := Publish(ctx, store, s.codec, s.model, "doc-b", tokensB, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The shared chunks' hashes are identical across the two manifests...
	for _, lv := range []int{0, 1, storage.TextLevel} {
		for c := 0; c < 2; c++ {
			ha, _ := manA.ChunkHash(lv, c)
			hb, _ := manB.ChunkHash(lv, c)
			if ha != hb {
				t.Errorf("level %d chunk %d: shared prefix hashed differently (%s vs %s)", lv, c, ha, hb)
			}
		}
	}
	// ...their encodes were skipped entirely (fingerprint index hits for
	// every bitstream row of both shared chunks)...
	wantSkips := 2 * (payloadRows(s) - 1) // text rows don't go through the encoder
	if statsB.EncodesSkipped != wantSkips {
		t.Errorf("EncodesSkipped = %d, want %d", statsB.EncodesSkipped, wantSkips)
	}
	// 2 shared chunks × all rows, plus one bonus: doc-b's chunk 2 repeats
	// doc-a's chunk-0 *tokens* at a different position, so its bitstreams
	// differ (KV is position-dependent) but its position-independent text
	// payload dedups by content address anyway.
	if statsB.PayloadsReused != 2*payloadRows(s)+1 {
		t.Errorf("PayloadsReused = %d, want %d", statsB.PayloadsReused, 2*payloadRows(s)+1)
	}
	// ...and the byte accounting proves single storage: the store grew by
	// exactly doc-b's unique bytes.
	usageB, err := store.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := usageB.ChunkBytes - usageA.ChunkBytes; got != statsB.BytesStored {
		t.Errorf("store grew %d bytes, stats say %d stored", got, statsB.BytesStored)
	}
	logical := manA.Meta.TotalBytes() + manB.Meta.TotalBytes()
	if usageB.ChunkBytes >= logical {
		t.Errorf("no dedup: physical %d ≥ logical %d", usageB.ChunkBytes, logical)
	}
}

func TestPublishSameContextTwiceStoresNothingNew(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := Publish(ctx, store, s.codec, s.model, "dup", s.tokens, PublishOptions{KV: s.kv}); err != nil {
		t.Fatal(err)
	}
	before, _ := store.Usage(ctx)
	// Republishing under another id — and without the precomputed KV, so
	// even CalculateKV is skippable work the fingerprints avoid.
	_, stats, err := Publish(ctx, store, s.codec, s.model, "dup-2", s.tokens, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PayloadsStored != 0 || stats.BytesStored != 0 {
		t.Errorf("identical republish stored payloads: %+v", stats)
	}
	if stats.EncodedChunks != 0 {
		t.Errorf("identical republish encoded %d chunks", stats.EncodedChunks)
	}
	after, _ := store.Usage(ctx)
	if after.ChunkBytes != before.ChunkBytes {
		t.Errorf("store grew on identical republish: %d -> %d", before.ChunkBytes, after.ChunkBytes)
	}
}

func TestAppendReencodesOnlyDirtySuffix(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	store := storage.NewMemStore()
	chunkTok := s.codec.Config().ChunkTokens // 80

	// History: 200 tokens = 2 full chunks + a 40-token tail.
	history := s.tokens[:200]
	if _, _, err := Publish(ctx, store, s.codec, s.model, "chat", history, PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	// Turn: 50 tokens → new total 250, dirty range = chunk 2 (tail grows
	// to 80) + chunk 3 (10 tokens).
	turn := s.tokens[200:250]
	man, stats, err := Append(ctx, store, s.codec, s.model, "chat", turn, PublishOptions{KV: mustSlice(t, s.kv, 0, 250)})
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta.TokenCount != 250 || man.Meta.NumChunks() != 4 {
		t.Fatalf("appended meta = %+v", man.Meta)
	}
	wantDirty := 2 // the regrown tail chunk + one new chunk
	if stats.EncodedChunks != wantDirty || stats.ReusedChunks != 200/chunkTok {
		t.Errorf("append stats = %+v, want %d encoded / %d reused chunks", stats, wantDirty, 200/chunkTok)
	}

	// The appended manifest must be payload-identical to publishing the
	// full 250 tokens from scratch: encoding is deterministic, so append
	// correctness is exactly hash equality.
	fresh, _, err := Publish(ctx, store, s.codec, s.model, "chat-fresh", s.tokens[:250], PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for lv, row := range fresh.Hashes {
		for c, want := range row {
			got, err := man.ChunkHash(lv, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("level %d chunk %d: append hash differs from fresh publish", lv, c)
			}
		}
	}
	// And the fresh publish itself was a total dedup hit (everything was
	// already stored by publish+append).
	if fresh.Meta.TokenCount != 250 {
		t.Fatal("fresh publish wrong length")
	}
}

func TestAppendWithoutResidentKV(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := Publish(ctx, store, s.codec, s.model, "chat", s.tokens[:200], PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	// No opts.KV: Append reconstructs tokens from stored text and
	// recomputes the dirty KV — results must be identical to the
	// KV-provided path (checked via the deterministic-hash property).
	man, _, err := Append(ctx, store, s.codec, s.model, "chat", s.tokens[200:250], PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Publish(ctx, store, s.codec, s.model, "fresh", s.tokens[:250], PublishOptions{KV: mustSlice(t, s.kv, 0, 250)})
	if err != nil {
		t.Fatal(err)
	}
	for lv, row := range fresh.Hashes {
		for c, want := range row {
			if got, _ := man.ChunkHash(lv, c); got != want {
				t.Errorf("level %d chunk %d: KV-less append hash differs", lv, c)
			}
		}
	}
}

// slowPutStore is a MemStore whose PutChunk lets other goroutines run
// before it lands — time for the publisher to look the next payload up and
// encode it behind the write — and, from call failAt on, fails instead. It
// records every fingerprint the publisher indexes.
type slowPutStore struct {
	*storage.MemStore
	failAt int // 1-based PutChunk call to start failing at; 0 = never

	mu      sync.Mutex
	puts    int
	indexed []storage.Fingerprint
}

var errPutFailed = errors.New("put failed")

func (s *slowPutStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	for i := 0; i < 50; i++ {
		runtime.Gosched()
	}
	s.mu.Lock()
	s.puts++
	fail := s.failAt > 0 && s.puts >= s.failAt
	s.mu.Unlock()
	if fail {
		return errPutFailed
	}
	return s.MemStore.PutChunk(ctx, hash, data)
}

func (s *slowPutStore) PutFingerprint(ctx context.Context, key string, fp storage.Fingerprint) error {
	s.mu.Lock()
	s.indexed = append(s.indexed, fp)
	s.mu.Unlock()
	return s.MemStore.PutFingerprint(ctx, key, fp)
}

// TestPublishBehindSlowStore: with payload writes running behind the next
// encode, publish, append and a deduplicated republish leave the stats,
// the manifests and the stored bytes a store that answers at once gets;
// and a failed write fails the publish without its payload — or any later
// one — being indexed by fingerprint.
func TestPublishBehindSlowStore(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	type outcome struct {
		mans  []storage.Manifest
		stats []PublishStats
		usage storage.Usage
	}
	script := func(st storage.Store) outcome {
		var out outcome
		step := func(man storage.Manifest, stats *PublishStats, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			out.mans, out.stats = append(out.mans, man), append(out.stats, *stats)
		}
		step(Publish(ctx, st, s.codec, s.model, "chat", s.tokens[:200], PublishOptions{}))
		step(Append(ctx, st, s.codec, s.model, "chat", s.tokens[200:250], PublishOptions{KV: s.kv}))
		step(Append(ctx, st, s.codec, s.model, "chat", s.tokens[:30], PublishOptions{}))
		step(Publish(ctx, st, s.codec, s.model, "fork", s.tokens, PublishOptions{KV: s.kv}))
		usage, err := st.Usage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out.usage = usage
		return out
	}
	want := script(storage.NewMemStore())
	slow := &slowPutStore{MemStore: storage.NewMemStore()}
	got := script(slow)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("behind a slow store:\n got %+v\nwant %+v", got, want)
	}
	if slow.puts == 0 {
		t.Fatal("script wrote no payload")
	}

	// Fail every write from the third on: the two payloads written before it
	// are the only ones the index may name.
	failing := &slowPutStore{MemStore: storage.NewMemStore(), failAt: 3}
	_, _, err := Publish(ctx, failing, s.codec, s.model, "doomed", s.tokens[:80], PublishOptions{})
	if !errors.Is(err, errPutFailed) {
		t.Fatalf("publish over a failing store: %v", err)
	}
	if len(failing.indexed) > 2 {
		t.Errorf("%d fingerprints indexed around a write that failed third", len(failing.indexed))
	}
	for _, fp := range failing.indexed {
		if ok, err := failing.TouchChunk(ctx, fp.Hash); err != nil || !ok {
			t.Errorf("fingerprint indexed for payload %s, which was never stored (err %v)", fp.Hash, err)
		}
	}
}

func TestAppendValidation(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := Append(ctx, store, s.codec, s.model, "missing", s.tokens[:10], PublishOptions{}); err == nil {
		t.Error("appended to a missing context")
	}
	if _, _, err := Publish(ctx, store, s.codec, s.model, "c", s.tokens[:100], PublishOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Append(ctx, store, s.codec, s.model, "c", nil, PublishOptions{}); err == nil {
		t.Error("appended zero tokens")
	}
	short, _ := s.kv.SliceTokens(0, 50)
	if _, _, err := Append(ctx, store, s.codec, s.model, "c", s.tokens[100:150], PublishOptions{KV: short}); err == nil {
		t.Error("appended with undersized KV")
	}
}

func TestFetchFromResidentPrefix(t *testing.T) {
	s := newStack(t)
	f := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	ctx := context.Background()
	chunkTok := s.codec.Config().ChunkTokens

	// Resident prefix covering 2 chunks plus half a chunk: the partial
	// chunk is refetched, the 2 whole chunks are not.
	resident := mustSlice(t, s.kv, 0, 2*chunkTok+40)
	kv, report, err := f.FetchFrom(ctx, "ctx-1", resident)
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != len(s.tokens) {
		t.Fatalf("assembled %d tokens", kv.Tokens)
	}
	if report.ResidentTokens != 2*chunkTok {
		t.Errorf("ResidentTokens = %d, want %d", report.ResidentTokens, 2*chunkTok)
	}
	if len(report.Decisions) != s.meta.NumChunks()-2 {
		t.Errorf("fetched %d chunks, want %d cold ones", len(report.Decisions), s.meta.NumChunks()-2)
	}
	for _, d := range report.Decisions {
		if d.Chunk < 2 {
			t.Errorf("refetched resident chunk %d", d.Chunk)
		}
	}
	// The resident prefix is exact, so the assembled prefix must be too.
	diff, err := mustSlice(t, kv, 0, 2*chunkTok).MaxAbsDiff(mustSlice(t, resident, 0, 2*chunkTok))
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("resident prefix mutated in assembly (diff %g)", diff)
	}

	// Fully resident: no chunk moves, one manifest round trip.
	kv2, report2, err := f.FetchFrom(ctx, "ctx-1", s.kv)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Decisions) != 0 || report2.BytesReceived != 0 {
		t.Errorf("fully-resident fetch still streamed: %+v", report2)
	}
	if kv2.Tokens != len(s.tokens) || report2.ResidentTokens != len(s.tokens) {
		t.Errorf("fully-resident fetch = %d tokens, resident %d", kv2.Tokens, report2.ResidentTokens)
	}

	// An oversized resident cache is rejected.
	big, err := s.model.ExtendKV(s.kv, len(s.tokens), s.tokens[:10])
	if err != nil {
		t.Fatal(err)
	}
	grown, err := tensor.ConcatTokens(s.kv, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.FetchFrom(ctx, "ctx-1", grown); err == nil {
		t.Error("accepted resident cache longer than the context")
	}
}
