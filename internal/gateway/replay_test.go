package gateway

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/workload"
)

// TestReplayTrace replays a hand-built trace — published contexts, a
// multi-turn chat arrival, two tenants — against a live ring and checks
// the report's accounting.
func TestReplayTrace(t *testing.T) {
	r := newTestRing(t, 0)
	g, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	tr := &workload.Trace{
		TraceName: "replay-test",
		ContextList: []workload.ContextSpec{
			{ID: "tr-a", Tokens: 128, Seed: 1},
			{ID: "tr-b", Tokens: 128, Seed: 2},
		},
		ArrivalList: []workload.Arrival{
			{At: 0, Tenant: "t1", ContextID: "tr-a", Seed: 10},
			{At: workload.Duration(5 * time.Millisecond), Tenant: "t2", ContextID: "tr-b", Seed: 11},
			{At: workload.Duration(10 * time.Millisecond), Tenant: "t1", ContextID: "tr-a",
				Turns: 3, ThinkTime: workload.Duration(time.Millisecond), Seed: 12},
		},
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(context.Background(), g, tr, ReplayOptions{Publisher: r.sharded})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 3 {
		t.Fatalf("Sessions = %d, want 3", rep.Sessions)
	}
	if want := 1 + 1 + 3; rep.Submitted != want || rep.Completed != want {
		t.Fatalf("Submitted/Completed = %d/%d, want %d/%d", rep.Submitted, rep.Completed, want, want)
	}
	if rep.WarmTurns != 2 {
		t.Fatalf("WarmTurns = %d, want 2", rep.WarmTurns)
	}
	if len(rep.Tenants) != 2 || len(rep.Tenants["t1"].TTFTs) != 4 || len(rep.Tenants["t2"].TTFTs) != 1 {
		t.Fatalf("per-tenant accounts %+v, want t1 with 4 TTFTs and t2 with 1", rep.Tenants)
	}
	submitted := 0
	for name, ts := range rep.Tenants {
		checkTenantReport(t, name, ts)
		submitted += ts.Submitted
		// Every session's first turn fetched cold over the fleet stream.
		if ts.Bytes <= 0 || ts.Bandwidth <= 0 || ts.EffectiveBandwidth() <= 0 {
			t.Errorf("tenant %s: %d bytes at %.0f bps (effective %.0f); want a cold streamed fetch",
				name, ts.Bytes, ts.Bandwidth, ts.EffectiveBandwidth())
		}
	}
	if submitted != rep.Submitted {
		t.Errorf("tenants' submissions sum to %d, run total %d", submitted, rep.Submitted)
	}
	// The trace's contexts were published by Replay itself.
	if _, err := r.sharded.GetManifest(context.Background(), "tr-a"); err != nil {
		t.Fatalf("trace context not published: %v", err)
	}
}

// checkTenantReport checks one tenant's account is internally whole:
// the outcomes partition its submissions, one TTFT per completion, the
// per-level bytes sum to its bytes.
func checkTenantReport(t *testing.T, name string, ts *TenantReport) {
	t.Helper()
	if got := ts.Completed + ts.Rejected + ts.TimedOut + ts.Failed; got != ts.Submitted {
		t.Errorf("tenant %s: outcomes sum to %d, submitted %d", name, got, ts.Submitted)
	}
	if len(ts.TTFTs) != ts.Completed {
		t.Errorf("tenant %s: %d TTFTs for %d completions", name, len(ts.TTFTs), ts.Completed)
	}
	var levels int64
	for _, n := range ts.LevelBytes {
		levels += n
	}
	if levels != ts.Bytes {
		t.Errorf("tenant %s: level bytes sum to %d, want %d", name, levels, ts.Bytes)
	}
}

// TestReplayTenantAccount: the run report's per-tenant record is folded
// from the Results a run produces — the same requests driven through
// Submit and accounted the way Replay accounts them carry their bytes,
// decisions and bandwidth estimates into their tenant's record.
func TestReplayTenantAccount(t *testing.T) {
	r := newTestRing(t, 2)
	g, err := New(r.config(1, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	type want struct {
		completed, timedOut, failed int
		bytes                       int64
		decisions                   int
	}
	wants := map[string]*want{"t1": {}, "t2": {}}
	rep := &LoadReport{Tenants: map[string]*TenantReport{}}
	var mu sync.Mutex
	for _, req := range []Request{
		{Tenant: "t1", ContextID: r.contexts[0]},
		{Tenant: "t1", ContextID: r.contexts[1]},
		{Tenant: "t1", ContextID: "no-such-context"},
		{Tenant: "t2", ContextID: r.contexts[1]},
		{Tenant: "t2", ContextID: r.contexts[0], Deadline: time.Nanosecond},
		{Tenant: "t2", ContextID: r.contexts[0]},
	} {
		res, err := g.Submit(context.Background(), req)
		account(rep, &mu, req.Tenant, 1, res, err)
		w := wants[req.Tenant]
		switch {
		case err == nil:
			if !res.Report.Streamed {
				t.Fatalf("%s: fetch did not take the streaming path", req.ContextID)
			}
			w.completed++
			w.bytes += res.Report.BytesReceived
			w.decisions += len(res.Report.Decisions)
		case req.Deadline > 0:
			w.timedOut++
		default:
			w.failed++
		}
	}
	if rep.Submitted != 6 || rep.Completed != 4 || rep.TimedOut != 1 || rep.Failed != 1 {
		t.Fatalf("run totals %+v, want 6 submitted: 4 completed, 1 timed out, 1 failed", rep.Outcomes)
	}
	for name, w := range wants {
		ts := rep.Tenants[name]
		checkTenantReport(t, name, ts)
		if ts.Completed != w.completed || ts.TimedOut != w.timedOut || ts.Failed != w.failed {
			t.Errorf("tenant %s: outcomes %+v, want %d completed / %d timed out / %d failed",
				name, ts.Outcomes, w.completed, w.timedOut, w.failed)
		}
		if ts.Bytes <= 0 || ts.Bytes != w.bytes {
			t.Errorf("tenant %s: %d bytes, Results received %d", name, ts.Bytes, w.bytes)
		}
		var sources int64
		for _, n := range ts.Sources {
			sources += n
		}
		if sources != int64(w.decisions) {
			t.Errorf("tenant %s: sources sum to %d, Results made %d decisions", name, sources, w.decisions)
		}
		if ts.Bandwidth <= 0 {
			t.Errorf("tenant %s: no bandwidth estimate from its streamed fetches", name)
		}
	}
}

// TestReplayCancelReturnsPromptly: cancelling a replay stops it while it
// waits — for the next arrival or through a session's think time — not
// when the wait would have ended.
func TestReplayCancelReturnsPromptly(t *testing.T) {
	r := newTestRing(t, 1)
	const seed, think = 16, 2 * time.Second
	// The session's first think-time draw must outlast the test's bound,
	// or the think-time case would pass by luck.
	if d := expDuration(rand.New(rand.NewSource(seed)), think); d < 2*time.Second {
		t.Fatalf("seed %d draws a %v first think time; pick one over 2s", seed, d)
	}
	for _, c := range []struct {
		name     string
		arrivals []workload.Arrival
	}{
		{"arrival gap", []workload.Arrival{
			{At: 0, Tenant: "t", ContextID: r.contexts[0], Seed: 1},
			{At: workload.Duration(5 * time.Second), Tenant: "t", ContextID: r.contexts[0], Seed: 2},
		}},
		{"think time", []workload.Arrival{
			{At: 0, Tenant: "t", ContextID: r.contexts[0], Turns: 50,
				ThinkTime: workload.Duration(think), Seed: seed},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := New(r.config(1, true))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			time.AfterFunc(300*time.Millisecond, cancel)
			start := time.Now()
			rep, err := Replay(ctx, g, &workload.Trace{TraceName: "cancel", ArrivalList: c.arrivals}, ReplayOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("Replay returned %v after start, cancelled at 300ms", took)
			}
			if rep.Completed != 1 {
				t.Errorf("completed %d, want the first turn only", rep.Completed)
			}
		})
	}
}

// TestReplayAgentic: an agentic arrival creates its context through
// gateway.Session, appends every turn, and the published context ends
// at the full history length.
func TestReplayAgentic(t *testing.T) {
	r := newTestRing(t, 0)
	g, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const turns, appendTokens = 3, 64
	tr := &workload.Trace{
		TraceName: "agentic-test",
		ArrivalList: []workload.Arrival{
			{At: 0, Tenant: "t1", ContextID: "agent-0",
				Turns: turns, AppendTokens: appendTokens, Seed: 21},
		},
	}
	rep, err := Replay(context.Background(), g, tr, ReplayOptions{Publisher: r.sharded})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 1 {
		t.Fatalf("Sessions = %d, want 1", rep.Sessions)
	}
	// Turn 1 is the create-publish (not gateway-served); turns 2..n are.
	if want := turns - 1; rep.Completed != want || rep.WarmTurns != want {
		t.Fatalf("Completed/WarmTurns = %d/%d, want %d/%d", rep.Completed, rep.WarmTurns, want, want)
	}
	man, err := r.sharded.GetManifest(context.Background(), "agent-0")
	if err != nil {
		t.Fatalf("agentic context not published: %v", err)
	}
	if got, want := man.Meta.TokenCount, turns*appendTokens; got != want {
		t.Fatalf("published context has %d tokens, want %d", got, want)
	}
}

// TestReplayRequiresPublisher: a trace that publishes contexts cannot
// replay without a publish-side store.
func TestReplayRequiresPublisher(t *testing.T) {
	r := newTestRing(t, 1)
	g, err := New(r.config(1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	tr := &workload.Trace{
		TraceName:   "no-pub",
		ContextList: []workload.ContextSpec{{ID: "x", Tokens: 64, Seed: 1}},
		ArrivalList: []workload.Arrival{{At: 0, Tenant: "t", ContextID: "x"}},
	}
	if _, err := Replay(context.Background(), g, tr, ReplayOptions{}); err == nil ||
		!strings.Contains(err.Error(), "publisher") {
		t.Fatalf("Replay without publisher = %v, want publisher error", err)
	}
}

// blockingStore wraps a Store and, once armed, parks every PutChunk
// until the operation's ctx dies — the observable behaviour of a node
// that was killed after serving the warm fetch but before accepting the
// append-publish.
type blockingStore struct {
	storage.Store
	mu    sync.Mutex
	armed bool
}

func (b *blockingStore) arm() {
	b.mu.Lock()
	b.armed = true
	b.mu.Unlock()
}

func (b *blockingStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	b.mu.Lock()
	armed := b.armed
	b.mu.Unlock()
	if armed {
		<-ctx.Done()
		return ctx.Err()
	}
	return b.Store.PutChunk(ctx, hash, data)
}

func (b *blockingStore) PutManifest(ctx context.Context, m storage.Manifest) error {
	b.mu.Lock()
	armed := b.armed
	b.mu.Unlock()
	if armed {
		<-ctx.Done()
		return ctx.Err()
	}
	return b.Store.PutManifest(ctx, m)
}

// TestSessionCancelBetweenFetchAndAppend is the chaos-node-kill leak
// check: a session whose append-publish hangs (node killed between the
// warm fetch and the append) must unwind completely on ctx
// cancellation — Turn returns the context error and no goroutine stays
// parked in the publish path.
func TestSessionCancelBetweenFetchAndAppend(t *testing.T) {
	r := newTestRing(t, 0)
	g, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	pub := &blockingStore{Store: r.sharded}
	s, err := g.NewSession(pub, "t1", "leak-ctx")
	if err != nil {
		t.Fatal(err)
	}
	// Turn 1 publishes normally; the context now exists.
	if _, err := s.Turn(context.Background(), workload.TurnTokens(1, 1, 64)); err != nil {
		t.Fatal(err)
	}

	baseline := runtime.NumGoroutine()

	// Kill the publish path: turn 2's warm fetch succeeds, then the
	// append-publish parks on the dead node until the ctx dies.
	pub.arm()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Turn(ctx, workload.TurnTokens(1, 2, 64))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the turn reach the parked publish
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Turn with a dead publish path returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Turn did not return after cancellation")
	}

	// Every goroutine the turn spawned (prefetch, publish workers) must
	// unwind; allow the runtime a moment to reap them.
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}
