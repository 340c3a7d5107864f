package gateway

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/storage"
)

// faultedStore wraps a Store and, once armed, fails writes after
// allowing the first `allow` chunk puts through — the observable
// behaviour of a primary that died partway through accepting an
// append-publish.
type faultedStore struct {
	storage.Store
	mu    sync.Mutex
	armed bool
	allow int
}

var errPrimaryDown = errors.New("injected: primary down mid-append")

func (f *faultedStore) arm(allow int) {
	f.mu.Lock()
	f.armed, f.allow = true, allow
	f.mu.Unlock()
}

func (f *faultedStore) heal() {
	f.mu.Lock()
	f.armed = false
	f.mu.Unlock()
}

func (f *faultedStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	f.mu.Lock()
	fail := f.armed && f.allow <= 0
	if f.armed {
		f.allow--
	}
	f.mu.Unlock()
	if fail {
		return errPrimaryDown
	}
	return f.Store.PutChunk(ctx, hash, data)
}

func (f *faultedStore) PutManifest(ctx context.Context, m storage.Manifest) error {
	f.mu.Lock()
	fail := f.armed
	f.mu.Unlock()
	if fail {
		return errPrimaryDown
	}
	return f.Store.PutManifest(ctx, m)
}

// TestSessionTurnRetryAfterMidTurnFailure: a turn whose append-publish
// dies under it (primary killed after some chunks landed) must leave the
// session consistent with the published context, so retrying the same
// turn converges — and the retried context is bit-for-bit identical to
// one that never saw the failure. No goroutine from the failed turn may
// survive it.
func TestSessionTurnRetryAfterMidTurnFailure(t *testing.T) {
	r := newTestRing(t, 0)
	g, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	rng := rand.New(rand.NewSource(41))
	opening := turnTokens(rng, 150)
	second := turnTokens(rng, 60)
	third := turnTokens(rng, 60)
	ctx := context.Background()

	pub := &faultedStore{Store: r.sharded}
	sess, err := g.NewSession(pub, "t1", "retry-ctx")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Turn(ctx, opening); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Turn(ctx, second); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(ctx, Request{Tenant: "warm", ContextID: "retry-ctx"}); err != nil {
		t.Fatal(err)
	}
	// The pool dials a node the first time a fetch or a hedge picks it,
	// and which nodes a fetch picks depends on timing. A fleet-wide call
	// dials every node now, so the goroutine baseline below holds every
	// pooled connection and measures only what the failed turn spawns.
	if _, err := r.pool.Usage(ctx); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	// Kill the primary mid-append: one chunk lands, the rest (and the
	// manifest) fail. The turn must surface the error without committing
	// any session state.
	pub.arm(1)
	if _, err := sess.Turn(ctx, third); !errors.Is(err, errPrimaryDown) {
		t.Fatalf("mid-turn failure surfaced %v, want errPrimaryDown", err)
	}
	if got := sess.HistoryTokens(); got != 210 {
		t.Fatalf("failed turn committed state: history %d, want 210", got)
	}
	man, err := r.sharded.GetManifest(ctx, "retry-ctx")
	if err != nil {
		t.Fatalf("manifest gone after failed append: %v", err)
	}
	if man.Meta.TokenCount != 210 {
		t.Fatalf("failed append moved the manifest: %d tokens", man.Meta.TokenCount)
	}

	// Heal and retry the identical turn: content-addressed payloads make
	// the partial write idempotent, so the retry simply converges.
	pub.heal()
	res, err := sess.Turn(ctx, third)
	if err != nil {
		t.Fatalf("retried turn: %v", err)
	}
	if res.Turn != 3 || res.HistoryTokens != 270 {
		t.Fatalf("retried turn = %+v, want turn 3 / 270 tokens", res)
	}

	// Bit-for-bit: a reference conversation with the same tokens and no
	// failure publishes exactly the same chunks (same hashes at every
	// level, same metadata) — the failure left no scar tissue.
	ref, err := g.NewSession(r.sharded, "t1", "retry-ref")
	if err != nil {
		t.Fatal(err)
	}
	for _, turn := range [][]llm.Token{opening, second, third} {
		if _, err := ref.Turn(ctx, turn); err != nil {
			t.Fatal(err)
		}
	}
	got, err := r.sharded.GetManifest(ctx, "retry-ctx")
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.sharded.GetManifest(ctx, "retry-ref")
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.TokenCount != want.Meta.TokenCount || got.Meta.NumChunks() != want.Meta.NumChunks() {
		t.Fatalf("retried context shape %d/%d, reference %d/%d",
			got.Meta.TokenCount, got.Meta.NumChunks(), want.Meta.TokenCount, want.Meta.NumChunks())
	}
	levels := append(make([]int, 0, got.Meta.Levels+1), storage.TextLevel)
	for lv := 0; lv < got.Meta.Levels; lv++ {
		levels = append(levels, lv)
	}
	for _, lv := range levels {
		for c := 0; c < got.Meta.NumChunks(); c++ {
			gh, gerr := got.ChunkHash(lv, c)
			wh, werr := want.ChunkHash(lv, c)
			if gerr != nil || werr != nil || gh != wh {
				t.Fatalf("level %d chunk %d: retried hash %q (%v), reference %q (%v)", lv, c, gh, gerr, wh, werr)
			}
		}
	}

	// A cold fetch serves the retried context whole.
	cold, err := g.Submit(ctx, Request{Tenant: "cold", ContextID: "retry-ctx"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.KV.Tokens != 270 {
		t.Fatalf("cold fetch = %d tokens, want 270", cold.KV.Tokens)
	}

	// Nothing the failed turn spawned may outlive it.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines %d > baseline %d+2:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
}
