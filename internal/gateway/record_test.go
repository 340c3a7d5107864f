package gateway

import (
	"context"
	"maps"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestTraceRecorderRoundTrip captures a live replayed run with a
// TraceRecorder, saves the captured trace, loads it back, and replays
// the load: the capture must validate, preserve the offered load
// (multi-turn sessions flattened to their observed submissions), and
// drive a fresh gateway to the same completion count.
func TestTraceRecorderRoundTrip(t *testing.T) {
	r := newTestRing(t, 0)
	rec := NewTraceRecorder("round-trip")
	cfg := r.config(2, true)
	cfg.Recorder = rec
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	orig := &workload.Trace{
		TraceName: "orig",
		ContextList: []workload.ContextSpec{
			{ID: "rt-a", Tokens: 128, Seed: 1},
			{ID: "rt-b", Tokens: 128, Seed: 2},
		},
		ArrivalList: []workload.Arrival{
			{At: 0, Tenant: "t1", ContextID: "rt-a", SLO: workload.Duration(80 * time.Millisecond), Seed: 10},
			{At: workload.Duration(2 * time.Millisecond), Tenant: "t2", ContextID: "rt-b", Seed: 11},
			{At: workload.Duration(4 * time.Millisecond), Tenant: "t1", ContextID: "rt-a",
				Turns: 2, ThinkTime: workload.Duration(time.Millisecond), Seed: 12},
		},
	}
	rep, err := Replay(context.Background(), g, orig, ReplayOptions{Publisher: r.sharded})
	if err != nil {
		t.Fatal(err)
	}
	// 2 single-shot + one 2-turn session = 4 submissions.
	if rep.Completed != 4 {
		t.Fatalf("original run completed %d, want 4", rep.Completed)
	}
	for _, spec := range orig.ContextList {
		rec.RecordContext(spec)
	}

	if rec.Len() != 4 {
		t.Fatalf("recorder captured %d arrivals, want 4 (sessions flattened per submission)", rec.Len())
	}
	captured := rec.Trace()
	if err := captured.Validate(); err != nil {
		t.Fatalf("captured trace does not validate: %v", err)
	}
	path := filepath.Join(t.TempDir(), "captured.json")
	if err := captured.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TraceName != "round-trip" || len(loaded.ArrivalList) != 4 || len(loaded.ContextList) != 2 {
		t.Fatalf("loaded trace = %q with %d arrivals, %d contexts; want round-trip/4/2",
			loaded.TraceName, len(loaded.ArrivalList), len(loaded.ContextList))
	}
	// The capture preserves per-request identity: tenants, contexts, SLOs.
	// Replay submits each arrival from its own goroutine, so the capture
	// may order simultaneous-enough arrivals either way: compare the
	// (tenant, context, SLO) multiset, not positions.
	type identity struct {
		tenant, context string
		slo             time.Duration
	}
	byTenant := map[string]int{}
	byIdentity := map[identity]int{}
	for _, a := range loaded.ArrivalList {
		byTenant[a.Tenant]++
		byIdentity[identity{a.Tenant, a.ContextID, a.SLO.D()}]++
		if a.Turns > 1 {
			t.Fatalf("captured arrival kept session structure %+v; capture flattens to submissions", a)
		}
	}
	if byTenant["t1"] != 3 || byTenant["t2"] != 1 {
		t.Fatalf("captured tenant mix = %v, want t1:3 t2:1", byTenant)
	}
	want := map[identity]int{
		{"t1", "rt-a", 80 * time.Millisecond}: 1,
		{"t2", "rt-b", 0}:                     1,
		{"t1", "rt-a", 0}:                     2,
	}
	if !maps.Equal(byIdentity, want) {
		t.Fatalf("captured (tenant, context, SLO) multiset = %v, want %v", byIdentity, want)
	}

	// Replaying the capture drives a fresh gateway to the same count.
	g2, err := New(r.config(2, true))
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	rep2, err := Replay(context.Background(), g2, loaded, ReplayOptions{Publisher: r.sharded})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Completed != 4 {
		t.Fatalf("captured replay completed %d, want 4", rep2.Completed)
	}
}
