package gateway

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/workload"
)

func sessionGateway(t *testing.T, r *testRing) *Gateway {
	t.Helper()
	g, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func turnTokens(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

// TestSessionTurns drives a 4-turn conversation over the live ring:
// turn 1 publishes, later turns fetch warm (only the chunks the previous
// append dirtied), extend the resident cache, and append-publish deltas
// whose cost tracks the turn size rather than the history.
func TestSessionTurns(t *testing.T) {
	r := newTestRing(t, 1)
	g := sessionGateway(t, r)
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()

	sess, err := g.NewSession(r.sharded, "tenant-a", "chat-1")
	if err != nil {
		t.Fatal(err)
	}
	// Turn 1: 150 tokens published whole (3 chunks of 64 → 2 full + tail).
	res1, err := sess.Turn(ctx, turnTokens(rng, 150))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Turn != 1 || res1.Result != nil || res1.HistoryTokens != 150 {
		t.Fatalf("turn 1 = %+v", res1)
	}
	if res1.Publish.PayloadsStored == 0 {
		t.Fatalf("turn 1 stored nothing: %+v", res1.Publish)
	}

	history := 150
	for turn := 2; turn <= 4; turn++ {
		turnLen := 40 + 10*turn
		res, err := sess.Turn(ctx, turnTokens(rng, turnLen))
		if err != nil {
			t.Fatalf("turn %d: %v", turn, err)
		}
		history += turnLen
		if res.Turn != turn || res.HistoryTokens != history {
			t.Fatalf("turn %d = %+v (want history %d)", turn, res, history)
		}
		// Warm fetch: the resident cache covered everything published so
		// far, so no chunk payloads moved at all.
		if res.Result == nil || res.Result.KV.Tokens != history-turnLen {
			t.Fatalf("turn %d fetched %v tokens, want the prior history", turn, res.Result)
		}
		if res.Result.Report.BytesReceived != 0 {
			t.Errorf("turn %d streamed %d bytes though fully resident", turn, res.Result.Report.BytesReceived)
		}
		// The append re-encoded only the dirty suffix: strictly fewer
		// chunks than the manifest covers (histories here always leave a
		// clean prefix ≥ 1 chunk).
		if res.Publish.EncodedChunks >= res.Publish.Chunks {
			t.Errorf("turn %d re-encoded %d of %d chunks", turn, res.Publish.EncodedChunks, res.Publish.Chunks)
		}
		if res.Publish.ReusedChunks == 0 {
			t.Errorf("turn %d reused no prefix chunks: %+v", turn, res.Publish)
		}
	}
	if got := sess.HistoryTokens(); got != history {
		t.Errorf("HistoryTokens = %d, want %d", got, history)
	}

	// The published context decodes to the session's exact length through
	// a cold fetcher (another gateway node, no resident state).
	cold, err := g.Submit(ctx, Request{Tenant: "cold", ContextID: "chat-1"})
	if err != nil {
		t.Fatal(err)
	}
	if cold.KV.Tokens != history {
		t.Errorf("cold fetch of session context = %d tokens, want %d", cold.KV.Tokens, history)
	}

	// Close drops the manifest.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := r.sharded.GetManifest(ctx, "chat-1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("session context survived Close: %v", err)
	}
}

// TestSessionResume continues a session after its opening turn: the
// second turn appends to the published context and reuses its chunks.
func TestSessionResume(t *testing.T) {
	r := newTestRing(t, 1)
	g := sessionGateway(t, r)
	rng := rand.New(rand.NewSource(37))
	ctx := context.Background()

	sess, err := g.NewSession(r.sharded, "tenant-a", "chat-2")
	if err != nil {
		t.Fatal(err)
	}
	opening := turnTokens(rng, 130)
	if _, err := sess.Turn(ctx, opening); err != nil {
		t.Fatal(err)
	}

	if sess.HistoryTokens() != 130 {
		t.Fatalf("history = %d, want 130", sess.HistoryTokens())
	}
	res, err := sess.Turn(ctx, turnTokens(rng, 60))
	if err != nil {
		t.Fatal(err)
	}
	if res.HistoryTokens != 190 || res.Publish.ReusedChunks == 0 {
		t.Errorf("second turn = %+v", res)
	}
}

// TestWorkloadMultiTurnSessions drives the conversational traffic mix:
// arrivals become sessions of several warm turns with think-time gaps,
// and warm turns ride the Resident prefix.
func TestWorkloadMultiTurnSessions(t *testing.T) {
	r := newTestRing(t, 3)
	cfg := r.config(2, true)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []workload.PoissonTenant{
		{Name: "chatty", Share: 1, ContextIDs: r.contexts, SLO: 2 * time.Second,
			Turns: 3, ThinkTime: 2 * time.Millisecond},
	}
	// 10 sessions × 3 turns = 30 turn requests
	rep, err := poissonRun(g, 300, 10, tenants, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 10 || rep.Submitted != 30 {
		t.Fatalf("sessions %d / submitted %d, want 10/30", rep.Sessions, rep.Submitted)
	}
	if got := rep.Completed + rep.Rejected + rep.TimedOut + rep.Failed; got != rep.Submitted {
		t.Errorf("outcomes sum to %d, want %d", got, rep.Submitted)
	}
	if rep.Completed != 30 {
		t.Fatalf("completed %d, want 30", rep.Completed)
	}
	if rep.WarmTurns != 20 || len(rep.WarmTTFTs) != 20 {
		t.Errorf("warm turns %d (%d TTFTs), want 20", rep.WarmTurns, len(rep.WarmTTFTs))
	}
	// Warm turns carry the previous turn's KV as Resident: the context is
	// fully covered, so their TTFT omits all chunk transfer. With a
	// loopback ring both are fast; assert the accounting, not magnitudes.
	if len(rep.AllTTFTs()) != 30 {
		t.Errorf("AllTTFTs = %d samples", len(rep.AllTTFTs()))
	}

	// Determinism: the same seed reproduces the same session layout.
	g2, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := poissonRun(g2, 300, 10, tenants, 11)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Sessions != rep.Sessions || rep2.Submitted != rep.Submitted {
		t.Errorf("seeded rerun diverged: %d/%d vs %d/%d", rep2.Sessions, rep2.Submitted, rep.Sessions, rep.Submitted)
	}

	// Validation: negative turn counts are rejected.
	bad := []workload.PoissonTenant{{Name: "x", Share: 1, ContextIDs: r.contexts, Turns: -1}}
	if _, err := poissonRun(g, 300, 10, bad, 11); err == nil {
		t.Error("negative turn count accepted")
	}
}
