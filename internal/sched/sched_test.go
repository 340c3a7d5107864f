package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/streamer"
)

// annotatedChunks builds n chunks with delivery identity, one hash per
// (chunk, level) plus a text hash, the way the Fetcher annotates them.
func annotatedChunks(n int, ctxID string, sizes []int64, text int64, rec time.Duration) []streamer.ChunkInfo {
	out := make([]streamer.ChunkInfo, n)
	for ci := range out {
		hashes := make([]string, len(sizes))
		for lv := range hashes {
			hashes[lv] = fmt.Sprintf("h-%s-%d-%d", ctxID, ci, lv)
		}
		out[ci] = streamer.ChunkInfo{
			Tokens:       4,
			SizesByLevel: append([]int64(nil), sizes...),
			TextBytes:    text,
			Recompute:    rec,
			Context:      ctxID,
			Index:        ci,
			HashByLevel:  hashes,
			TextHash:     fmt.Sprintf("t-%s-%d", ctxID, ci),
		}
	}
	return out
}

func TestPinnedPlanPicksCheapestSource(t *testing.T) {
	s := New(Options{ID: "gw-a"})
	chunks := annotatedChunks(2, "ctx", []int64{100_000, 10_000}, 5_000, time.Millisecond)

	// Cold: nothing local, the fleet serves every chunk.
	p := s.NewPlan(Request{ContextID: "ctx"})
	if hint := p.PlanPath(chunks); hint != streamer.PathAuto {
		t.Fatalf("cold plan path = %v, want PathAuto", hint)
	}
	c, err := p.Choose(0, 0, netsim.Gbps(1), chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c.Text || c.Level != 0 || c.Source != streamer.SourceRemote {
		t.Fatalf("cold pinned choice = %+v, want L0 remote", c)
	}
	s.FinishPlan(p, nil, nil)

	// Warm: chunk 0's level-0 payload in the RAM cache routes there.
	s.cache.Put(chunks[0].HashByLevel[0], make([]byte, 100))
	p2 := s.NewPlan(Request{ContextID: "ctx"})
	if hint := p2.PlanPath(chunks); hint != streamer.PathChunks {
		t.Fatalf("warm plan path = %v, want PathChunks", hint)
	}
	c0, _ := p2.Choose(0, 0, netsim.Gbps(1), chunks)
	c1, _ := p2.Choose(1, 0, netsim.Gbps(1), chunks)
	if c0.Source != streamer.SourceRAM {
		t.Fatalf("warm chunk 0 source = %q, want ram", c0.Source)
	}
	if c1.Source != streamer.SourceRemote {
		t.Fatalf("cold chunk 1 source = %q, want remote", c1.Source)
	}
}

// TestRungOverflowCostCompares is the degrade-ladder regression test:
// the rung past the coarsest level used to mean Planner.ForceText —
// recompute no matter what. Under the scheduler it is a cost
// comparison: on a fast link the coarsest level wins; only when the
// network is the bottleneck does text recompute take over.
func TestRungOverflowCostCompares(t *testing.T) {
	s := New(Options{ID: "gw-a"})
	chunks := annotatedChunks(1, "ctx", []int64{1 << 20, 256 << 10}, 1<<10, 5*time.Millisecond)

	p := s.NewPlan(Request{ContextID: "ctx", DefaultLevel: 0, Rung: 3, SLO: 60 * time.Millisecond})
	c, err := p.Choose(0, 0, netsim.Gbps(1), chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c.Text {
		t.Fatalf("rung overflow on a 1 Gbps link forced text; want coarsest level at the cheapest source")
	}
	if int(c.Level) != 1 {
		t.Fatalf("rung overflow level = %d, want coarsest (1)", c.Level)
	}
	s.FinishPlan(p, nil, nil)

	// Starved link: 256 KiB at 1 Mbps is ~2s, text+recompute ~15ms.
	p2 := s.NewPlan(Request{ContextID: "ctx", DefaultLevel: 0, Rung: 3, SLO: 60 * time.Millisecond})
	c2, err := p2.Choose(0, 0, 1e6, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.Text || c2.Source != streamer.SourceRecompute {
		t.Fatalf("rung overflow on a 1 Mbps link chose %+v, want text recompute", c2)
	}
}

func TestHysteresisDampsReplans(t *testing.T) {
	s := New(Options{ID: "gw-a"})
	// SLO too tight for anything: every decision is the damage-minimiser
	// choosing between the coarsest level and text.
	chunks := annotatedChunks(1, "ctx", []int64{500_000, 100_000}, 50_000, time.Millisecond)
	p := s.NewPlan(Request{ContextID: "ctx", SLO: time.Microsecond})

	c1, err := p.Choose(0, 0, 1e9, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c1.Text || int(c1.Level) != 1 {
		t.Fatalf("at 1 Gbps damage-minimiser chose %+v, want L1", c1)
	}
	// At 300 Mbps text is ~9%% cheaper — inside the 15%% band, hold L1.
	c2, err := p.Choose(0, 0, 3e8, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatalf("a 9%% improvement re-planned %+v → %+v; hysteresis should hold", c1, c2)
	}
	// At 100 Mbps text is ~33%% cheaper — past the band, switch.
	c3, err := p.Choose(0, 0, 1e8, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !c3.Text {
		t.Fatalf("a 33%% improvement still held %+v; want a re-plan to text", c3)
	}
}

// allocInfos is a 1024-token context in 16 chunks, annotated with the
// per-level encoded sizes of a Mistral-7B context at 16 channels.
func allocInfos() []streamer.ChunkInfo {
	return annotatedChunks(16, "bench", []int64{23_160, 20_370, 16_640, 13_260}, 256, 200*time.Microsecond)
}

// allocOpts and allocReq are the scheduler rows' signals and request.
var (
	allocOpts = Options{Signals: Signals{BandwidthBPS: 1e9, RTT: time.Millisecond}}
	allocReq  = Request{ContextID: "bench", SLO: 50 * time.Millisecond, DefaultLevel: 1}
)

// planCycle is one request's whole scheduling cost on sc: open a plan,
// prime its candidate tables, decide every chunk, close.
func planCycle(sc *Scheduler, infos []streamer.ChunkInfo) error {
	p := sc.NewPlan(allocReq)
	p.PlanPath(infos)
	for ci := range infos {
		if _, err := p.Choose(ci, 0, 0, infos); err != nil {
			return err
		}
	}
	sc.FinishPlan(p, nil, nil)
	return nil
}

// steadyChoose returns an op that repeats a decision on a primed plan,
// the call the fetcher's issue loop makes at every decision point.
func steadyChoose(infos []streamer.ChunkInfo) func() error {
	p := New(allocOpts).NewPlan(allocReq)
	p.PlanPath(infos)
	i := 0
	return func() error {
		i++
		_, err := p.Choose(i%len(infos), time.Millisecond, 5e8, infos)
		return err
	}
}

// TestChooseAllocationFree: a decision on a primed plan allocates
// nothing — it runs on the fetcher's issue loop — and a request's whole
// plan allocates no more than its table records. The scheduler keeps no
// pooled scratch and runs on one goroutine, so its counts are a pure
// function of the request and are pinned exactly. Record the new count
// when a change lowers one.
func TestChooseAllocationFree(t *testing.T) {
	s := New(Options{ID: "gw-a"})
	chunks := annotatedChunks(8, "ctx", []int64{100_000, 10_000}, 5_000, time.Millisecond)
	s.cache.Put(chunks[2].HashByLevel[0], make([]byte, 64))
	p := s.NewPlan(Request{ContextID: "ctx", SLO: 50 * time.Millisecond})
	p.PlanPath(chunks) // prime outside the measured loop
	infos := allocInfos()
	cycle := New(allocOpts)

	for _, row := range []struct {
		name   string
		allocs float64 // per call, when last recorded
		op     func() error
	}{
		{"choose_8chunk_ram_hit", 0, func() error {
			for ci := range chunks {
				if _, err := p.Choose(ci, time.Millisecond, 2e8, chunks); err != nil {
					return err
				}
			}
			return nil
		}},
		{"sched_plan_16chunk", 8, func() error { return planCycle(cycle, infos) }},
		{"sched_decide_steady", 0, steadyChoose(infos)},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := row.op(); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		})
		if allocs > row.allocs {
			t.Errorf("%s: %v allocs per call, want at most %v", row.name, allocs, row.allocs)
		}
	}
}

// BenchmarkPlan16Chunk is a request's whole scheduling cost over 16
// chunks: the cost a gateway pays per admitted request.
func BenchmarkPlan16Chunk(b *testing.B) {
	infos := allocInfos()
	sc := New(allocOpts)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := planCycle(sc, infos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecideSteady is one repeat decision on a primed plan.
func BenchmarkDecideSteady(b *testing.B) {
	op := steadyChoose(allocInfos())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSlotOccupancyPricesRecompute(t *testing.T) {
	s := New(Options{ID: "gw-a"})
	tracker := s.BindSlots(4)
	// Text barely beats the coarsest level on an idle GPU; one extra
	// busy slot doubles the recompute term and flips the comparison.
	chunks := annotatedChunks(1, "ctx", []int64{500_000, 60_000}, 1_000, 2*time.Millisecond)

	p := s.NewPlan(Request{ContextID: "ctx", SLO: time.Microsecond})
	tracker.Acquire() // this plan's own slot — must not count against it
	c, err := p.Choose(0, 0, 2e8, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Text {
		t.Fatalf("idle GPU: damage-minimiser chose %+v, want text (≈3.0ms vs ≈3.4ms)", c)
	}
	s.FinishPlan(p, nil, nil) // keep the concurrency factor at 1
	tracker.Acquire()         // a second request's prefill occupies the GPU
	p2 := s.NewPlan(Request{ContextID: "ctx", SLO: time.Microsecond})
	c2, err := p2.Choose(0, 0, 2e8, chunks)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Text {
		t.Fatal("busy GPU: recompute still priced as free; contention should push back to fetching")
	}
	tracker.Release()
	tracker.Release()
}
