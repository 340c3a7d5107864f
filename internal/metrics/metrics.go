// Package metrics provides the statistical helpers the experiment harness
// reports with: summary statistics, empirical CDFs (Fig 3), SLO-violation
// accounting (Fig 13), and the quality-of-experience model standing in for
// the paper's MTurk user study (Fig 16).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N                int
	Mean, Std        float64
	Min, Median, Max float64
	P95              float64
	P99              float64
}

// P50 returns the median under the name the percentile fields use, so
// report code reads s.P50 alongside s.P95 and s.P99.
func (s Summary) P50() float64 { return s.Median }

// Summarize computes summary statistics. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	mean, variance := meanVariance(sorted)
	s.Mean = mean
	s.Std = math.Sqrt(variance)
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.Median = Percentile(sorted, 0.5)
	s.P95 = Percentile(sorted, 0.95)
	s.P99 = Percentile(sorted, 0.99)
	return s
}

// meanVariance computes the sample mean and population variance in one
// pass pair, for Summarize.
func meanVariance(xs []float64) (mean, variance float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return mean, v / float64(len(xs))
}

// Seconds converts a duration sample to float seconds, the unit Summarize
// and CDF work in (the gateway's per-tenant TTFT histograms go through
// this).
func Seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Percentile returns the p-th percentile (p in [0,1]) of a sorted sample,
// interpolating linearly between the two closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from a sample.
func NewCDF(xs []float64) *CDF {
	sorted := append([]float64{}, xs...)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// At returns P(X ≤ x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the smallest x with P(X ≤ x) ≥ q.
func (c *CDF) Quantile(q float64) float64 {
	return Percentile(c.sorted, q)
}

// ViolationRate returns the fraction of TTFTs exceeding the SLO (Fig 13).
func ViolationRate(ttfts []time.Duration, slo time.Duration) float64 {
	if len(ttfts) == 0 {
		return 0
	}
	n := 0
	for _, t := range ttfts {
		if t > slo {
			n++
		}
	}
	return float64(n) / float64(len(ttfts))
}

// MOS maps a time-to-first-token to a mean opinion score in [1, 5],
// standing in for the paper's 270-rating MTurk study (Fig 16). The shape
// follows the interactivity literature the paper cites [87]: near-instant
// responses rate ≈4.5 and scores fall smoothly past a few seconds of
// waiting. Only the monotone decreasing shape matters for the figure.
func MOS(ttft time.Duration) float64 {
	s := ttft.Seconds()
	if s < 0 {
		s = 0
	}
	mos := 1 + 3.5/(1+math.Pow(s/3.0, 1.3))
	if mos > 5 {
		mos = 5
	}
	if mos < 1 {
		mos = 1
	}
	return mos
}

// FormatBandwidth renders a bits-per-second rate the way the paper's
// figures label link speeds (the gateway stats lines and fetch reports
// surface the live estimator through this).
func FormatBandwidth(bps float64) string {
	switch {
	case bps <= 0:
		return "-"
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.1f Mbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.1f Kbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}

// FormatBytes renders a byte count the way the paper's tables do.
func FormatBytes(n int64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2f GB", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.0f MB", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.0f KB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d B", n)
	}
}
