package gateway

import (
	"context"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestDegradeLadderSteps exercises the ladder's pressure arithmetic and
// its application to the per-request planner: queue pressure and burned
// SLO budget each contribute rungs, and the rung lands on Planner.Rung
// untouched — what it means (a cap, then a cost comparison) is Algorithm
// 1's business, not the gateway's.
func TestDegradeLadderSteps(t *testing.T) {
	r := newTestRing(t, 1)
	cfg := r.config(1, false)
	cfg.Degrade = true
	cfg.QueueLimit = 10
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	mk := func(ctx context.Context, slo time.Duration) *pending {
		return &pending{req: Request{Tenant: "t", ContextID: r.contexts[0], SLO: slo}, ctx: ctx}
	}

	// Calm gateway, no SLO: no degradation.
	f := g.fetcher(mk(context.Background(), 0))
	if f.Planner.DefaultLevel != 0 || f.Planner.Rung != 0 {
		t.Fatalf("calm fetcher degraded: level %v rung %d", f.Planner.DefaultLevel, f.Planner.Rung)
	}

	// Queue at 90% of the admission bound: two rungs.
	g.mu.Lock()
	g.queued = 9
	g.mu.Unlock()
	p := mk(context.Background(), 0)
	f = g.fetcher(p)
	if p.degrade != 2 || f.Planner.DefaultLevel != 0 || f.Planner.Rung != 2 {
		t.Fatalf("queue pressure: step %d level %v rung %d, want 2/L0/2",
			p.degrade, f.Planner.DefaultLevel, f.Planner.Rung)
	}

	// Add a nearly-exhausted SLO budget: two more rungs walk past the
	// coarsest level (L3).
	ctx := resilience.WithBudget(context.Background(), time.Millisecond)
	p = mk(ctx, time.Second)
	f = g.fetcher(p)
	if p.degrade != 4 || f.Planner.Rung != 4 {
		t.Fatalf("severe pressure: step %d rung %d, want 4/4", p.degrade, f.Planner.Rung)
	}

	if got := g.Stats().Degraded; got != 2 {
		t.Fatalf("Degraded = %d, want 2", got)
	}

	// Ladder off: the same pressure leaves quality alone.
	g.mu.Lock()
	g.queued = 0
	g.mu.Unlock()
	cfg.Degrade = false
	g2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p = mk(ctx, time.Second)
	if f := g2.fetcher(p); p.degrade != 0 || f.Planner.Rung != 0 {
		t.Fatalf("Degrade=false still degraded: step %d", p.degrade)
	}
}

// TestGatewayDegradeEndToEnd: a request whose SLO budget is gone by
// fetch time is served coarser (two rungs down) and says so in the
// Result; the payload actually moved at the degraded level.
func TestGatewayDegradeEndToEnd(t *testing.T) {
	r := newTestRing(t, 1)
	cfg := r.config(1, false)
	cfg.Degrade = true
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Submit(context.Background(), Request{
		Tenant:    "t",
		ContextID: r.contexts[0],
		SLO:       time.Nanosecond, // burned before the fetch can start
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradeStep != 2 {
		t.Fatalf("DegradeStep = %d, want 2", res.DegradeStep)
	}
	if res.Report == nil || res.Report.LevelBytes["L2"] == 0 {
		t.Fatalf("degraded request did not stream at L2: %+v", res.Report.LevelBytes)
	}
	if g.Stats().Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", g.Stats().Degraded)
	}
}
