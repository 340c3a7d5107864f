package harness

import "testing"

// The X13 enforced cells: the scheduler's SLO curve dominates the greedy
// planner's and holds through the arrival rate that collapses it; every
// source class delivers; the mixed-source KV is bit-for-bit the
// request/response baseline.

func TestX13SchedulerHoldsSLOUnderCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep over a real-time shared link")
	}
	s, err := newX5Stack()
	if err != nil {
		t.Fatal(err)
	}
	points, err := x13SweepCell(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := x13CheckSweep(points); err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		t.Logf("rate %3.0f/s: greedy %3.0f%% SLO (mix %s) vs sched %3.0f%% SLO (mix %s)",
			p.rate, 100*p.greedy.SLORate(), x13Mix(p.greedy.Sources()),
			100*p.sched.SLORate(), x13Mix(p.sched.Sources()))
	}
}

func TestX13SourceCoverageAndIdentity(t *testing.T) {
	cov, err := x13CoverageCell()
	if err != nil {
		t.Fatal(err)
	}
	if err := x13CheckCoverage(cov); err != nil {
		t.Fatal(err)
	}
	t.Logf("source mix %v; max |Δ| vs baseline: mixed %g, ram %g, peer %g; vs true KV: text %g",
		cov.counts, cov.diffMix, cov.diffRAM, cov.diffPeer, cov.diffText)
}
