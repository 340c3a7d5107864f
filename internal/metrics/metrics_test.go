package metrics

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Errorf("Std = %v", s.Std)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 {
		t.Errorf("empty summary = %+v", empty)
	}

	// P95/P99 on a 0..100 ramp interpolate near their ranks.
	ramp := make([]float64, 101)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	s = Summarize(ramp)
	if math.Abs(s.P95-95) > 1e-9 || math.Abs(s.P99-99) > 1e-9 {
		t.Errorf("P95 = %v, P99 = %v, want 95/99", s.P95, s.P99)
	}
}

func TestSeconds(t *testing.T) {
	got := Seconds([]time.Duration{time.Second, 250 * time.Millisecond})
	if len(got) != 2 || got[0] != 1 || got[1] != 0.25 {
		t.Errorf("Seconds = %v", got)
	}
	if len(Seconds(nil)) != 0 {
		t.Error("Seconds(nil) not empty")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40}
	cases := []struct{ p, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {-1, 10}, {2, 40},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile")
	}
}

func TestVariance(t *testing.T) {
	if _, v := meanVariance([]float64{2, 2, 2}); v != 0 {
		t.Errorf("constant variance = %v", v)
	}
	if _, v := meanVariance([]float64{1, 3}); math.Abs(v-1) > 1e-9 {
		t.Errorf("variance = %v, want 1", v)
	}
	if _, v := meanVariance(nil); v != 0 {
		t.Error("empty variance")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-9 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if q := c.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if NewCDF(nil).At(1) != 0 {
		t.Error("empty CDF behaviour")
	}
}

func TestCDFConcentration(t *testing.T) {
	// A tighter distribution reaches high CDF values at smaller |x| — the
	// Fig 3 comparison (deltas vs originals).
	rng := rand.New(rand.NewSource(1))
	wide := make([]float64, 2000)
	narrow := make([]float64, 2000)
	for i := range wide {
		wide[i] = math.Abs(rng.NormFloat64() * 3)
		narrow[i] = math.Abs(rng.NormFloat64())
	}
	w, n := NewCDF(wide), NewCDF(narrow)
	if n.At(1.5) <= w.At(1.5) {
		t.Error("narrow distribution should dominate at small x")
	}
}

func TestViolationRate(t *testing.T) {
	ttfts := []time.Duration{
		500 * time.Millisecond,
		2 * time.Second,
		900 * time.Millisecond,
		3 * time.Second,
	}
	if got := ViolationRate(ttfts, time.Second); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("ViolationRate = %v, want 0.5", got)
	}
	if ViolationRate(nil, time.Second) != 0 {
		t.Error("empty violation rate")
	}
}

func TestMOSMonotoneAndBounded(t *testing.T) {
	prev := 6.0
	for _, s := range []float64{0, 0.3, 1, 2, 4, 8, 30} {
		m := MOS(time.Duration(s * float64(time.Second)))
		if m < 1 || m > 5 {
			t.Errorf("MOS(%vs) = %v outside [1,5]", s, m)
		}
		if m >= prev {
			t.Errorf("MOS not strictly decreasing at %vs: %v after %v", s, m, prev)
		}
		prev = m
	}
	if MOS(-time.Second) != MOS(0) {
		t.Error("negative TTFT should clamp")
	}
	// Anchors: sub-second responses rate well, ~10 s rates poorly.
	if MOS(300*time.Millisecond) < 4 {
		t.Errorf("MOS(0.3s) = %v, want ≥4", MOS(300*time.Millisecond))
	}
	if MOS(10*time.Second) > 2.5 {
		t.Errorf("MOS(10s) = %v, want ≤2.5", MOS(10*time.Second))
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2 KB"},
		{176_000_000, "176 MB"},
		{1_230_000_000, "1.23 GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestFormatBandwidth(t *testing.T) {
	cases := []struct {
		bps  float64
		want string
	}{
		{0, "-"},
		{-5, "-"},
		{800, "800 bps"},
		{48_500, "48.5 Kbps"},
		{12_400_000, "12.4 Mbps"},
		{2_340_000_000, "2.34 Gbps"},
	}
	for _, c := range cases {
		if got := FormatBandwidth(c.bps); got != c.want {
			t.Errorf("FormatBandwidth(%g) = %q, want %q", c.bps, got, c.want)
		}
	}
}
