package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/streamer"
	"repro/internal/telemetry"
)

// TestGatewaySchedServes drives a scheduler-equipped gateway end to end:
// cold fetches come off the fleet, repeat fetches hit the RAM payload
// cache, per-source chunk counts surface in the Results, the decode-slot
// tracker drains back to idle, and a fleet-shared resident index lets a
// second gateway serve whole chunks from its peer.
func TestGatewaySchedServes(t *testing.T) {
	r := newTestRing(t, 2)
	residents := sched.NewResidentIndex(0)
	mk := func(id string) (*Gateway, *sched.Scheduler) {
		s := sched.New(sched.Options{ID: id, Residents: residents})
		cfg := r.config(2, true)
		cfg.Sched = s
		g, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(g.Close)
		return g, s
	}
	gA, sA := mk("gw-a")

	ctx := context.Background()
	src := map[string]int{}
	for round := 0; round < 2; round++ {
		for _, id := range r.contexts {
			res, err := gA.Submit(ctx, Request{Tenant: "t1", ContextID: id})
			if err != nil {
				t.Fatal(err)
			}
			if res.KV == nil || res.KV.Tokens != r.tokens {
				t.Fatalf("round %d context %s: bad KV", round, id)
			}
			for _, d := range res.Report.Decisions {
				src[streamer.DecisionSource(d)]++
			}
		}
	}

	if src[streamer.SourceRemote] == 0 {
		t.Fatalf("no chunks labelled remote in %v; cold fetches should hit the fleet", src)
	}
	if src[streamer.SourceRAM] == 0 {
		t.Fatalf("no chunks labelled ram in %v; repeat fetches should hit the payload cache", src)
	}
	if sA.Slots() == nil || sA.Slots().Busy() != 0 {
		t.Fatalf("decode-slot tracker did not drain: %+v", sA.Slots())
	}
	if residents.Len() == 0 {
		t.Fatal("completed fetches did not register in the resident index")
	}

	// A second gateway sharing the resident index serves gw-a's contexts
	// as peer transfers of already-decoded KV.
	gB, _ := mk("gw-b")
	res, err := gB.Submit(ctx, Request{Tenant: "t1", ContextID: r.contexts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if res.KV == nil {
		t.Fatal("peer-served request returned no KV")
	}
	peer := 0
	for _, d := range res.Report.Decisions {
		if streamer.DecisionSource(d) == streamer.SourcePeer {
			peer++
		}
	}
	if peer == 0 {
		t.Fatalf("gw-b decisions %+v; want peer-served chunks", res.Report.Decisions)
	}
}

// TestGatewaySchedKeepsStreamPath: with a scheduler plan and no local
// candidate (a cold payload cache, no disk replica, no peers) the fetch
// keeps the fleet's one-stream path; once the RAM tier holds the
// context, the plan routes its chunks through the per-chunk acquirer
// instead.
func TestGatewaySchedKeepsStreamPath(t *testing.T) {
	r := newTestRing(t, 1)
	cfg := r.config(1, false)
	cfg.Sched = sched.New(sched.Options{})
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, want := range []bool{true, false} {
		res, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: r.contexts[0]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.Streamed != want {
			t.Fatalf("fetch %d: streamed %v, want %v (decisions %+v)", i, res.Report.Streamed, want, res.Report.Decisions)
		}
	}
}

// TestGatewayFreeSlotsGaugeIsTracker: the gateway keeps one count of
// decode-slot grants, the slot tracker, with or without a scheduler
// bound to it. Around concurrent submits, concurrent withdrawals from
// the queue and a withdrawal mid-fetch, the cachegen_gateway_free_slots
// gauge, Stats.FreeSlots and the tracker's Total()-Busy() agree, and
// every slot comes back.
func TestGatewayFreeSlotsGaugeIsTracker(t *testing.T) {
	r := newTestRing(t, 2)
	for _, withSched := range []bool{false, true} {
		t.Run(fmt.Sprintf("sched=%v", withSched), func(t *testing.T) {
			gated := newGatedSource(r.pool)
			cfg := r.config(2, true)
			cfg.Source = gated
			cfg.Telemetry = telemetry.NewRegistry()
			var sc *sched.Scheduler
			if withSched {
				sc = sched.New(sched.Options{})
				cfg.Sched = sc
			}
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if sc != nil && sc.Slots() != g.slots {
				t.Fatal("the gateway counts slots apart from its scheduler's tracker")
			}
			free := func(want int) {
				t.Helper()
				var prom strings.Builder
				cfg.Telemetry.WritePrometheus(&prom)
				if line := fmt.Sprintf("\ncachegen_gateway_free_slots %d\n", want); !strings.Contains(prom.String(), line) {
					t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(line), prom.String())
				}
				if got := g.Stats().FreeSlots; got != want {
					t.Errorf("Stats.FreeSlots %d, want %d", got, want)
				}
				if got := g.slots.Total() - g.slots.Busy(); got != want {
					t.Errorf("tracker free %d (busy %d of %d), want %d", got, g.slots.Busy(), g.slots.Total(), want)
				}
			}
			submit := func(ctx context.Context, id string) chan error {
				done := make(chan error, 1)
				go func() {
					_, err := g.Submit(ctx, Request{Tenant: "t", ContextID: id})
					done <- err
				}()
				return done
			}
			free(2)

			// Two holders take both slots; their fetches wait at the gate.
			blocked, other := r.contexts[0], r.contexts[1]
			gate := gated.block(blocked)
			ctx1, cancel1 := context.WithCancel(context.Background())
			defer cancel1()
			held1 := submit(ctx1, blocked)
			held2 := submit(context.Background(), blocked)
			waitFor(t, 5*time.Second, func() bool { return g.Stats().Admitted == 2 })
			waitFor(t, 5*time.Second, func() bool { return g.Stats().QueueDepth == 0 })
			free(0)

			// Eight more queue behind them and are withdrawn concurrently:
			// a withdrawal from the queue returns no slot.
			var queued []chan error
			var cancels []context.CancelFunc
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cancels = append(cancels, cancel)
				queued = append(queued, submit(ctx, other))
			}
			waitFor(t, 5*time.Second, func() bool { return g.Stats().QueueDepth == 8 })
			free(0)
			for _, cancel := range cancels {
				go cancel()
			}
			for _, done := range queued {
				if err := <-done; !errors.Is(err, context.Canceled) {
					t.Fatalf("withdrawn request returned %v, want Canceled", err)
				}
			}
			free(0)

			// A holder withdrawn mid-fetch returns its slot.
			cancel1()
			if err := <-held1; !errors.Is(err, context.Canceled) {
				t.Fatalf("holder withdrawn mid-fetch returned %v, want Canceled", err)
			}
			free(1)
			close(gate)
			if err := <-held2; err != nil {
				t.Fatal(err)
			}
			free(2)
			if st := g.Stats(); st.Completed != 1 || st.TimedOut != 9 {
				t.Errorf("stats %+v, want 1 completed and 9 withdrawn", st)
			}
		})
	}
}
