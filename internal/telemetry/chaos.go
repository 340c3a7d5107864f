package telemetry

import "repro/internal/metrics"

// RegisterChaos absorbs a metrics.ChaosCounters into the registry as
// gauge functions reading the shared atomics — the chaos injector and
// the fetchers keep ticking the same struct, and the live registry
// exposes it without a second accounting path. No-op when either side
// is nil.
func RegisterChaos(r *Registry, c *metrics.ChaosCounters) {
	if r == nil || c == nil {
		return
	}
	for _, e := range []struct {
		name, help string
		load       func() uint64
	}{
		{"cachegen_chaos_node_kills_total", "node processes killed by the chaos injector", c.NodeKills.Load},
		{"cachegen_chaos_node_restarts_total", "killed nodes brought back", c.NodeRestarts.Load},
		{"cachegen_chaos_partitions_total", "network partitions imposed", c.Partitions.Load},
		{"cachegen_chaos_partitions_healed_total", "network partitions lifted", c.PartitionsHealed.Load},
		{"cachegen_chaos_slow_disks_total", "slow-disk faults imposed", c.SlowDisks.Load},
		{"cachegen_chaos_slow_disks_healed_total", "slow-disk faults lifted", c.SlowDisksHealed.Load},
		{"cachegen_chaos_bandwidth_cliffs_total", "bandwidth cliffs imposed", c.BandwidthCliffs.Load},
		{"cachegen_chaos_bandwidth_cliffs_healed_total", "bandwidth cliffs lifted", c.BandwidthCliffsHealed.Load},
		{"cachegen_chaos_corrupt_frames_injected_total", "payloads corrupted on the wire", c.CorruptFramesInjected.Load},
		{"cachegen_chaos_corrupt_frames_rejected_total", "corrupt payloads caught by CRC", c.CorruptFramesRejected.Load},
		{"cachegen_chaos_flaky_nodes_total", "flaky faults imposed", c.FlakyNodes.Load},
		{"cachegen_chaos_flaky_healed_total", "flaky faults lifted", c.FlakyHealed.Load},
		{"cachegen_chaos_flaky_strikes_total", "requests struck by a flaky node (stalled or severed)", c.FlakyStrikes.Load},
	} {
		load := e.load
		r.GaugeFunc(e.name, e.help, func() float64 { return float64(load()) })
	}
}
