package netsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// DefaultEstimatorWindow is the number of recent frames an Estimator
// remembers when none is configured. At the transport's 64 KiB frame
// size this spans 2 MB of payload — a few milliseconds on a fast link,
// so a bandwidth cliff shows up in the estimate within a handful of
// frames rather than after a whole multi-megabyte chunk.
const DefaultEstimatorWindow = 32

// Estimator is the shared bandwidth estimator of the streaming
// adaptation loop (§5.3): a byte-weighted harmonic mean over a sliding
// window of recent DATA frames. The harmonic mean is what "total bytes ÷
// total time" computes, so one slow frame drags the estimate down the
// way it drags a real transfer down, while a burst of tiny fast frames
// cannot inflate it. The streaming fetcher feeds it frame arrivals off
// the wire. Safe for concurrent use.
type Estimator struct {
	mu      sync.Mutex
	window  int
	samples []estSample // ring buffer
	head    int         // next write position
	n       int         // samples held
	bytes   int64       // Σ bytes over the window
	elapsed time.Duration
	gauge   *telemetry.Gauge // live-registry mirror of Estimate(), optional
}

type estSample struct {
	bytes int64
	dur   time.Duration
}

// NewEstimator returns an estimator over the last `window` frames
// (≤0 = DefaultEstimatorWindow).
func NewEstimator(window int) *Estimator {
	if window <= 0 {
		window = DefaultEstimatorWindow
	}
	return &Estimator{window: window, samples: make([]estSample, window)}
}

// Observe records one frame: n payload bytes carried in dur. Frames with
// non-positive size or duration carry no bandwidth information and are
// ignored.
func (e *Estimator) Observe(n int64, dur time.Duration) {
	if n <= 0 || dur <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == e.window {
		old := e.samples[e.head]
		e.bytes -= old.bytes
		e.elapsed -= old.dur
	} else {
		e.n++
	}
	e.samples[e.head] = estSample{bytes: n, dur: dur}
	e.head = (e.head + 1) % e.window
	e.bytes += n
	e.elapsed += dur
	if e.gauge != nil && e.elapsed > 0 {
		e.gauge.Set(float64(e.bytes) * 8 / e.elapsed.Seconds())
	}
}

// SetGauge mirrors every windowed estimate into a live-registry gauge
// as frames are observed (nil detaches; a nil gauge costs one branch).
func (e *Estimator) SetGauge(g *telemetry.Gauge) {
	e.mu.Lock()
	e.gauge = g
	e.mu.Unlock()
}

// Estimate returns the windowed bandwidth estimate in bits per second,
// or 0 when no frames have been observed yet (callers fall back to the
// planner's prior, as on the first chunk).
func (e *Estimator) Estimate() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.n == 0 || e.elapsed <= 0 {
		return 0
	}
	return float64(e.bytes) * 8 / e.elapsed.Seconds()
}

// Samples returns how many frames the window currently holds.
func (e *Estimator) Samples() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// Reset drops every sample (a failover to a different replica starts a
// fresh path whose history is not this one's).
func (e *Estimator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.head, e.n, e.bytes, e.elapsed = 0, 0, 0, 0
}

// ParseTrace parses the -bandwidth-trace flag syntax shared by the CLIs:
// comma-separated segments of RATE[:DURATION], each holding for its
// duration, the last forever. Rates accept bps/Kbps/Mbps/Gbps suffixes
// (decimal, case-insensitive) or a bare number in bits per second.
//
//	2Gbps:2s,0.2Gbps:2s,1Gbps   — the paper's Fig 7 pattern
//	200Mbps:1s,5Mbps            — a bandwidth cliff after one second
func ParseTrace(s string) (Trace, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("netsim: empty bandwidth trace %q", s)
	}
	var times []time.Duration
	var bps []float64
	at := time.Duration(0)
	parts := strings.Split(s, ",")
	for i, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			// A silently skipped empty segment would drop the previous
			// segment's duration ("2Gbps:2s," degrading to a constant
			// 2 Gbps trace), so stray commas are an error.
			return nil, fmt.Errorf("netsim: trace %q: segment %d is empty (stray comma?)", s, i+1)
		}
		rateStr, durStr, hasDur := strings.Cut(part, ":")
		rate, err := parseRate(strings.TrimSpace(rateStr))
		if err != nil {
			return nil, fmt.Errorf("netsim: trace segment %q: %w", part, err)
		}
		times = append(times, at)
		bps = append(bps, rate)
		if hasDur {
			d, err := time.ParseDuration(strings.TrimSpace(durStr))
			if err != nil {
				return nil, fmt.Errorf("netsim: trace segment %q: bad duration %q (need a unit, e.g. \"500ms\"): %v", part, durStr, err)
			}
			if d <= 0 {
				return nil, fmt.Errorf("netsim: trace segment %q: duration %v must be positive", part, d)
			}
			at += d
		} else if i != len(parts)-1 {
			return nil, fmt.Errorf("netsim: trace segment %q: only the last segment may omit its duration", part)
		}
	}
	if len(bps) == 1 {
		return Constant(bps[0]), nil
	}
	return NewStep(times, bps)
}

// parseRate parses "200Mbps", "0.4Gbps", "8e6" (bare bits per second).
func parseRate(s string) (float64, error) {
	mult := 1.0
	lower := strings.ToLower(s)
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"gbps", 1e9}, {"mbps", 1e6}, {"kbps", 1e3}, {"bps", 1}} {
		if strings.HasSuffix(lower, u.suffix) {
			s = s[:len(s)-len(u.suffix)]
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q (use e.g. \"200Mbps\", \"0.4Gbps\", or bare bits per second)", s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("rate must be finite, got %g", v)
	}
	if v <= 0 {
		return 0, fmt.Errorf("rate must be positive, got %g", v)
	}
	return v * mult, nil
}
