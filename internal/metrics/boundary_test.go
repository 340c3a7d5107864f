package metrics

import (
	"testing"
)

// The format helpers switch units on >= comparisons, so the exact
// powers of ten must land in the larger unit, one below must not.
func TestFormatBandwidthBoundaries(t *testing.T) {
	cases := []struct {
		bps  float64
		want string
	}{
		{1e3, "1.0 Kbps"},
		{999, "999 bps"},
		{1e6, "1.0 Mbps"},
		{999_999, "1000.0 Kbps"},
		{1e9, "1.00 Gbps"},
		{999_999_999, "1000.0 Mbps"},
		{0, "-"},
		{-1e9, "-"},
	}
	for _, c := range cases {
		if got := FormatBandwidth(c.bps); got != c.want {
			t.Errorf("FormatBandwidth(%g) = %q, want %q", c.bps, got, c.want)
		}
	}
}

func TestFormatBytesBoundaries(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{1e3, "1 KB"},
		{999, "999 B"},
		{1e6, "1 MB"},
		{999_999, "1000 KB"},
		{1e9, "1.00 GB"},
		{999_999_999, "1000 MB"},
		{0, "0 B"},
		// Negative counts never match a >= threshold and fall through to
		// the raw-byte case; they must not render as a huge unsigned unit.
		{-2048, "-2048 B"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestSummaryP50Alias(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.P50() != s.Median || s.P50() != 2 {
		t.Errorf("P50() = %g, Median = %g, want both 2", s.P50(), s.Median)
	}
}
