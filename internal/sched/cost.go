package sched

import (
	"time"

	"repro/internal/netsim"
)

// Signals seeds the cost model's two fleet-link priors. Live inputs — the
// fleet bandwidth estimate, decode-slot occupancy, per-node latency, plan
// concurrency — are read at decision time from the scheduler's trackers,
// the resilience manager and the fetcher's estimator; these are the
// priors used before any of them has a sample. Zero fields take defaults.
//
// The two local tiers have no estimator of their own and are priced by
// fixed constants: the payload-cache copy runs at 256 Gbps (effectively
// free, but never exactly zero so ties still order by bytes), and the
// colocated-replica read runs at 16 Gbps with a 100µs round trip.
type Signals struct {
	// BandwidthBPS is the fleet-link prior used before any live estimate
	// exists (default 1 Gbps).
	BandwidthBPS float64
	// RTT is the per-request round trip to a fleet node (default 1ms). A
	// node's adaptive P99 latency from the resilience manager overrides
	// it per node when available.
	RTT time.Duration
}

// Link shapes of the source classes without an estimator (see Signals).
const (
	ramBandwidthBPS  = 256e9
	diskBandwidthBPS = 16e9
	diskRTT          = 100 * time.Microsecond
)

// withDefaults fills zero fields.
func (s Signals) withDefaults() Signals {
	if s.BandwidthBPS <= 0 {
		s.BandwidthBPS = netsim.Gbps(1)
	}
	if s.RTT <= 0 {
		s.RTT = time.Millisecond
	}
	return s
}
