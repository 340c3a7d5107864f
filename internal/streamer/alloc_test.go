package streamer

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// allocRig is the publish path's measurement shape: Mistral-7B at 16
// channels, a codec trained with 64-token chunks on one 512-token
// context, and a 1024-token context of 16 chunks. Build it under the
// GOMAXPROCS it is measured at: the codec sizes its coders then.
type allocRig struct {
	model  *llm.Model
	codec  *core.Codec
	tokens []llm.Token
	kv     *tensor.KV
	// grownKV covers tokens plus turn, the context after one more turn.
	grownKV *tensor.KV
}

// turn is the 64-token turn the append row adds.
func (r *allocRig) turn() []llm.Token { return r.tokens[:64] }

func newAllocRig(tb testing.TB) *allocRig {
	tb.Helper()
	m := llm.MustNew(llm.Mistral7B().WithChannels(16))
	rng := rand.New(rand.NewSource(7))
	tokens := func(n int) []llm.Token {
		out := make([]llm.Token, n)
		for i := range out {
			out[i] = llm.Token(rng.Intn(32000))
		}
		return out
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = 64
	bank, err := core.Train(cfg, []*tensor.KV{m.CalculateKV(tokens(512))})
	if err != nil {
		tb.Fatal(err)
	}
	r := &allocRig{model: m, codec: core.NewCodec(bank), tokens: tokens(1024)}
	r.kv = m.CalculateKV(r.tokens)
	r.grownKV = m.CalculateKV(append(append([]llm.Token{}, r.tokens...), r.turn()...))
	return r
}

// publish stores the rig's context under id into st.
func (r *allocRig) publish(tb testing.TB, st storage.Store, id string, opts PublishOptions) {
	if _, _, err := Publish(context.Background(), st, r.codec, r.model, id, r.tokens, opts); err != nil {
		tb.Fatal(err)
	}
}

// appendTurn appends the rig's turn to the context "chat" in st.
func (r *allocRig) appendTurn(tb testing.TB, st storage.Store) {
	if _, _, err := Append(context.Background(), st, r.codec, r.model, "chat", r.turn(), PublishOptions{KV: r.grownKV}); err != nil {
		tb.Fatal(err)
	}
}

// dedupHit returns an op that republishes the rig's context under a fresh
// id into a store already holding it: every chunk is a fingerprint hit.
func (r *allocRig) dedupHit(tb testing.TB) func() {
	warm := storage.NewMemStore()
	r.publish(tb, warm, "warm", PublishOptions{KV: r.kv})
	i := 0
	return func() {
		i++
		r.publish(tb, warm, fmt.Sprintf("dup-%d", i), PublishOptions{})
	}
}

// TestPublishAllocs bounds the publish path's allocations on allocRig at
// GOMAXPROCS=1: each row may allocate at most 10% more per call than the
// count recorded in its table (encode scratch lives in sync.Pools, which
// a GC empties), and zero stays zero. Record the new count when a change
// moves one.
func TestPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newAllocRig(t)
	// Append measures the append alone: each call takes a store the
	// context was published to beforehand.
	const appendRuns = 5
	chats := make([]storage.Store, appendRuns+1) // AllocsPerRun warms up once
	for i := range chats {
		chats[i] = storage.NewMemStore()
		r.publish(t, chats[i], "chat", PublishOptions{KV: r.kv})
	}
	for _, row := range []struct {
		name   string
		runs   int
		allocs float64 // per call, when last recorded
		op     func()
	}{
		{"publish_cold", 5, 2345, func() { r.publish(t, storage.NewMemStore(), "bench", PublishOptions{KV: r.kv}) }},
		{"publish_dedup_hit", 50, 811, r.dedupHit(t)},
		{"append_turn_64tok", appendRuns, 243, func() {
			r.appendTurn(t, chats[0])
			chats = chats[1:]
		}},
	} {
		allocs := testing.AllocsPerRun(row.runs, row.op)
		t.Logf("%s: %v allocs per call, %v recorded", row.name, allocs, row.allocs)
		if allocs > row.allocs*1.1 {
			t.Errorf("%s: %v allocs per call, more than 10%% over the recorded %v", row.name, allocs, row.allocs)
		}
	}
}

// BenchmarkPublishDedupHit republishes a context the store already
// holds under a new id: the cost of a dedup hit.
func BenchmarkPublishDedupHit(b *testing.B) {
	r := newAllocRig(b)
	op := r.dedupHit(b)
	b.SetBytes(int64(r.kv.Elems()) * 2 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkAppendTurn64Tok appends a 64-token turn to a 1024-token
// context: the dirty suffix re-encode alone, not the publish before it.
func BenchmarkAppendTurn64Tok(b *testing.B) {
	r := newAllocRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := storage.NewMemStore()
		r.publish(b, st, "chat", PublishOptions{KV: r.kv})
		b.StartTimer()
		r.appendTurn(b, st)
	}
}
