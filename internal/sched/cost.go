package sched

import (
	"time"

	"repro/internal/netsim"
)

// Signals seeds the cost model's static inputs: the link shapes of each
// source class. Live inputs — the fleet bandwidth estimate, decode-slot
// occupancy, per-node latency, plan concurrency — are read at decision
// time from the scheduler's trackers, the resilience manager and the
// fetcher's estimator; these are the priors and the constants of the
// tiers that have no estimator of their own. Zero fields take defaults.
type Signals struct {
	// BandwidthBPS is the fleet-link prior used before any live estimate
	// exists (default 1 Gbps).
	BandwidthBPS float64
	// RTT is the same-region per-request round trip (default 1ms). A
	// node's adaptive P99 latency from the resilience manager overrides
	// it per node when available.
	RTT time.Duration
	// XRegionRTT is the extra round trip to a cross-region replica
	// (default 30ms).
	XRegionRTT time.Duration
	// PeerBandwidthBPS and PeerRTT shape the gateway-to-gateway
	// peer-transfer link (defaults 10 Gbps, 500µs). Peer transfers move
	// raw FP16 KV, not bitstreams, so the bigger payload rides a faster,
	// uncongested LAN.
	PeerBandwidthBPS float64
	PeerRTT          time.Duration
	// RAMBandwidthBPS shapes the local payload-cache copy (default
	// 256 Gbps — effectively free, but never exactly zero so ties still
	// order by bytes).
	RAMBandwidthBPS float64
	// DiskBandwidthBPS and DiskRTT shape the colocated-replica read
	// (defaults 16 Gbps, 100µs).
	DiskBandwidthBPS float64
	DiskRTT          time.Duration
}

// withDefaults fills zero fields.
func (s Signals) withDefaults() Signals {
	if s.BandwidthBPS <= 0 {
		s.BandwidthBPS = netsim.Gbps(1)
	}
	if s.RTT <= 0 {
		s.RTT = time.Millisecond
	}
	if s.XRegionRTT <= 0 {
		s.XRegionRTT = 30 * time.Millisecond
	}
	if s.PeerBandwidthBPS <= 0 {
		s.PeerBandwidthBPS = netsim.Gbps(10)
	}
	if s.PeerRTT <= 0 {
		s.PeerRTT = 500 * time.Microsecond
	}
	if s.RAMBandwidthBPS <= 0 {
		s.RAMBandwidthBPS = netsim.Gbps(256)
	}
	if s.DiskBandwidthBPS <= 0 {
		s.DiskBandwidthBPS = netsim.Gbps(16)
	}
	if s.DiskRTT <= 0 {
		s.DiskRTT = 100 * time.Microsecond
	}
	return s
}
