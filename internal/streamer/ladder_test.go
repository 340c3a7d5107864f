package streamer

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestRungOnPlanner pins what a degradation-ladder rung means on the
// no-scheduler path — the same thing it means under sched.Plan: a quality
// cap Algorithm 1 searches under, text off the menu above rung 0, and a
// cost comparison once the rung walks past the coarsest level.
func TestRungOnPlanner(t *testing.T) {
	// Levels cost 0.8 / 0.48 / 0.24 / 0.12 s per chunk at 1 Gbps; text is
	// 6 KB + 300 ms of recompute.
	chunks := testChunks(2)
	roomy := Planner{Adapt: true, SLO: time.Minute, DefaultLevel: 1}
	for _, c := range []struct {
		name string
		p    Planner
		bps  float64
		want Choice
	}{
		{"rung 0, roomy budget: text is lossless and fits", roomy, netsim.Gbps(1), Choice{Text: true}},
		// The case the old ladder silently ignored: an adaptive request
		// with an estimate searched from L0 whatever DefaultLevel said.
		{"rung 1 caps an adaptive request that has an estimate", withRung(roomy, 1), netsim.Gbps(1), Choice{Level: 2}},
		{"rung 2 caps it further", withRung(roomy, 2), netsim.Gbps(1), Choice{Level: 3}},
		{"a capped search still degrades below the cap to fit",
			Planner{Adapt: true, SLO: 300 * time.Millisecond, DefaultLevel: 0, Rung: 1}, netsim.Gbps(1), Choice{Level: 3}},
		{"overflow, fast link: coarsest level prices cheaper than text", withRung(roomy, 3), netsim.Gbps(10), Choice{Level: 3}},
		{"overflow, starved link: text prices cheaper", withRung(roomy, 3), 1e6, Choice{Text: true}},
		{"no estimate: default level plus rung", withRung(roomy, 1), 0, Choice{Level: 2}},
		{"no estimate, overflow: coarsest", withRung(roomy, 7), 0, Choice{Level: 3}},
		{"without Adapt the rung still caps", Planner{DefaultLevel: 0, Rung: 2}, netsim.Gbps(1), Choice{Level: 2}},
		{"without Adapt, overflow is the same cost comparison", Planner{DefaultLevel: 0, Rung: 4}, 1e6, Choice{Text: true}},
		{"MinimizeTTFT's text shortcut is a rung-0 behaviour",
			Planner{Adapt: true, MinimizeTTFT: true, DefaultLevel: 1, Rung: 1}, netsim.Gbps(0.1), Choice{Level: 2}},
	} {
		got, err := c.p.Choose(0, 0, c.bps, chunks)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s: choice %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := withRung(roomy, -1).Choose(0, 0, netsim.Gbps(1), chunks); err == nil {
		t.Error("negative rung accepted")
	}
}

func withRung(p Planner, rung int) Planner {
	p.Rung = rung
	return p
}

// TestWorthCancel is the one CANCEL rule, shared by acquireStream and
// simulateFrames: abandon the in-flight chunk only when the fresh choice
// is a different configuration and sending it whole is fewer bytes than
// what is left of this one.
func TestWorthCancel(t *testing.T) {
	info := ChunkInfo{SizesByLevel: []int64{1000, 600, 300}, TextBytes: 50}
	for _, c := range []struct {
		name  string
		cur   int
		fresh Choice
		left  int64
		want  bool
	}{
		{"same level: nothing to switch to", 0, Choice{Level: 0}, 900, false},
		{"coarser level smaller than the remainder", 0, Choice{Level: 2}, 400, true},
		{"coarser level but the remainder is smaller", 0, Choice{Level: 2}, 250, false},
		{"equal bytes is not cheaper", 0, Choice{Level: 2}, 300, false},
		{"text is tiny: cancel while anything substantial is left", 1, Choice{Text: true}, 51, true},
		{"already text, fresh choice text", storage.TextLevel, Choice{Text: true}, 40, false},
		{"finer level can win when little has been sent of a long way to go", 2, Choice{Level: 1}, 700, true},
		{"a routed source does not make the same level a different one", 1, Choice{Level: 1, Source: SourceRAM}, 599, false},
	} {
		if got := worthCancel(info, c.cur, c.fresh, c.left); got != c.want {
			t.Errorf("%s: worthCancel = %v, want %v", c.name, got, c.want)
		}
	}
}
