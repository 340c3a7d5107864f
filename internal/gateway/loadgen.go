package gateway

import (
	"math/rand"
	"time"
)

// LoadReport aggregates one Replay run.
type LoadReport struct {
	// Offered is the configured arrival rate (sessions/s).
	Offered float64
	// Submitted counts submitted turn requests; Completed, Rejected,
	// TimedOut and Failed partition them. A session abandons its
	// remaining turns after a failed turn.
	Submitted, Completed, Rejected, TimedOut, Failed int
	// Sessions counts generated arrivals; WarmTurns counts completed
	// turns ≥ 2 (served with a Resident prefix).
	Sessions, WarmTurns int
	// SLOMet counts completions within their SLO; PrefetchHits counts
	// completions whose KV was resident at slot grant.
	SLOMet, PrefetchHits int
	// TTFTs are the completed requests' TTFTs per tenant (all turns).
	TTFTs map[string][]time.Duration
	// WarmTTFTs are the completed warm turns' TTFTs, across tenants.
	WarmTTFTs []time.Duration
	// Duration is first arrival → last completion.
	Duration time.Duration
}

// Throughput returns completed requests per second of wall time.
func (r *LoadReport) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// SLORate returns SLOMet/Completed (0 with no completions).
func (r *LoadReport) SLORate() float64 {
	if r.Completed == 0 {
		return 0
	}
	return float64(r.SLOMet) / float64(r.Completed)
}

// AllTTFTs flattens the per-tenant TTFT samples.
func (r *LoadReport) AllTTFTs() []time.Duration {
	var out []time.Duration
	for _, ds := range r.TTFTs {
		out = append(out, ds...)
	}
	return out
}

// expDuration draws an exponential duration with the given mean, capped
// at 5× the mean so one unlucky draw cannot stall a whole session.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if max := 5 * mean; d > max {
		d = max
	}
	return d
}
