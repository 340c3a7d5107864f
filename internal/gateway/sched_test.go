package gateway

import (
	"context"
	"testing"

	"repro/internal/sched"
	"repro/internal/streamer"
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
