//go:build goexperiment.synctest

package harness

import (
	"testing"
	"testing/synctest"
)

// TestX13SweepVirtualTime runs X13's arrival-rate sweep in a synctest
// bubble, where the shared link's reservations, the Poisson arrivals and
// the modelled prefill all advance a virtual clock that only moves when
// every goroutine in the bubble is blocked. Host stalls cannot reach
// such a run, so it asserts the sweep's exact attainments rather than
// the wall-clock cell's floors: at 15/s both arms meet every SLO, and at
// 300/s greedy meets none while the scheduler meets every one. It then
// applies the wall-clock cell's own checks to the same points.
//
// Run it with GOEXPERIMENT=synctest (Go 1.24):
//
//	GOEXPERIMENT=synctest go test -count=5 -cpu 1,2 -run TestX13SweepVirtualTime ./internal/harness
func TestX13SweepVirtualTime(t *testing.T) {
	// The codec bank trains on real CPU; build it outside the bubble.
	s, err := newCorpusStack()
	if err != nil {
		t.Fatal(err)
	}
	var points []x13Point
	synctest.Run(func() {
		points, err = x13SweepCell(s)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64][2]float64{ // rate → {greedy, sched} attainment
		15:  {1, 1},
		300: {0, 1},
	}
	if len(points) != len(want) {
		t.Fatalf("sweep has %d points, want %d", len(points), len(want))
	}
	for _, p := range points {
		w, ok := want[p.rate]
		if !ok {
			t.Fatalf("unexpected sweep rate %.0f/s", p.rate)
		}
		if g, sc := p.greedy.SLORate(), p.sched.SLORate(); g != w[0] || sc != w[1] {
			t.Errorf("at %.0f/s: greedy attains %v, scheduler %v; want %v and %v", p.rate, g, sc, w[0], w[1])
		}
	}
	if err := x13CheckSweep(points); err != nil {
		t.Fatal(err)
	}
}
