package sched

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/streamer"
)

// TestPlanMatchesPlannerOnOneSource: with nothing but the fleet link to
// price — no locator, cache contents, disk store, resident index or
// slots, N_c pinned at 1, the same RTT, the same explicit throughput — a
// Plan is the Planner, because both hand streamer.Decide a table of the
// same prices. Swept over budget, throughput, chunk index, rung (0, caps,
// overflow) and recompute shape (uniform, and growing with the prefix as
// real prefill does).
func TestPlanMatchesPlannerOnOneSource(t *testing.T) {
	const rtt = 2 * time.Millisecond
	sizes := []int64{100e6, 60e6, 30e6, 15e6}
	mk := func(growing bool) []streamer.ChunkInfo {
		out := make([]streamer.ChunkInfo, 4)
		for i := range out {
			out[i] = streamer.ChunkInfo{Tokens: 1500, SizesByLevel: sizes, TextBytes: 6000, Recompute: 300 * time.Millisecond}
			if growing {
				out[i].Recompute = 100 * time.Millisecond << i
			}
		}
		return out
	}
	decide := func(slo time.Duration, def core.Level, rung, idx int, elapsed time.Duration, bps float64, chunks []streamer.ChunkInfo) (plan, planner streamer.Choice) {
		t.Helper()
		s := New(Options{ID: "gw", Signals: Signals{RTT: rtt}})
		p := s.NewPlan(Request{SLO: slo, DefaultLevel: def, Rung: rung, Concurrency: 1})
		plan, err := p.Choose(idx, elapsed, bps, chunks)
		if err != nil {
			t.Fatal(err)
		}
		s.FinishPlan(p, nil, nil)
		planner, err = streamer.Planner{Adapt: true, SLO: slo, DefaultLevel: def, RTT: rtt, Rung: rung}.
			Choose(idx, elapsed, bps, chunks)
		if err != nil {
			t.Fatal(err)
		}
		return plan, planner
	}

	seen := map[string]int{}
	for _, growing := range []bool{false, true} {
		chunks := mk(growing)
		for _, slo := range []time.Duration{0, 10 * time.Millisecond, 300 * time.Millisecond, time.Second, 3 * time.Second, 10 * time.Second} {
			for _, bps := range []float64{1e6, 1e8, 1e9, 1e10} {
				for _, idx := range []int{0, 2, 3} {
					for _, rung := range []int{0, 1, 2, 5} {
						for _, def := range []core.Level{0, 1} {
							plan, planner := decide(slo, def, rung, idx, 5*time.Millisecond, bps, chunks)
							if plan.Text != planner.Text || plan.Level != planner.Level {
								t.Errorf("growing=%v slo=%v bps=%g idx=%d rung=%d default=L%d: plan %v, planner %v",
									growing, slo, bps, idx, rung, def, plan, planner)
							}
							seen[fmt.Sprintf("%v/rung>0=%v", planner, rung > 0)]++
						}
					}
				}
			}
		}
	}
	// The sweep is only evidence if it reaches every kind of outcome.
	for _, want := range []string{"text/rung>0=false", "text/rung>0=true", "L0/rung>0=false", "L1/rung>0=true", "L3/rung>0=false", "L3/rung>0=true"} {
		if seen[want] == 0 {
			t.Errorf("sweep never produced %s (saw %v)", want, seen)
		}
	}

	// The row the two copies used to disagree on. Nothing fits a 10 ms
	// budget; this chunk alone is cheaper as text (≈102 ms vs ≈122 ms at
	// L3) but the rest of the context is not (1.5 s of recompute vs
	// 0.49 s at L3) — and it is the rest of the context that decides.
	plan, planner := decide(10*time.Millisecond, 0, 0, 0, 0, 1e9, mk(true))
	if want := (streamer.Choice{Level: 3}); planner != want || plan.Text || plan.Level != 3 {
		t.Errorf("prefix-growing nothing-fits: plan %v, planner %v, want L3 from both", plan, planner)
	}
}
