package chaos

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Counters tallies fault injections and the system's observed
// recoveries, one pair per fault class. The injector increments the
// injection side as it fires events; heals and survivals come from
// the injector's heal timers and from the data path (corrupt frames
// rejected is fed by the fetchers' CRC rejections). All counters are
// atomic — injector, gateway workers and reporters share one instance.
type Counters struct {
	NodeKills             atomic.Uint64 // node processes killed
	NodeRestarts          atomic.Uint64 // killed nodes brought back
	Partitions            atomic.Uint64 // partitions imposed
	PartitionsHealed      atomic.Uint64 // partitions lifted
	SlowDisks             atomic.Uint64 // slow-disk faults imposed
	SlowDisksHealed       atomic.Uint64 // slow-disk faults lifted
	BandwidthCliffs       atomic.Uint64 // bandwidth cliffs imposed
	BandwidthCliffsHealed atomic.Uint64 // bandwidth cliffs lifted
	CorruptFramesInjected atomic.Uint64 // payloads corrupted on the wire
	CorruptFramesRejected atomic.Uint64 // corrupt payloads caught by CRC
	FlakyNodes            atomic.Uint64 // flaky faults imposed
	FlakyHealed           atomic.Uint64 // flaky faults lifted
	FlakyStrikes          atomic.Uint64 // requests struck (stalled or severed)
}

// Snapshot is a point-in-time copy of Counters, for reports.
type Snapshot struct {
	NodeKills             uint64
	NodeRestarts          uint64
	Partitions            uint64
	PartitionsHealed      uint64
	SlowDisks             uint64
	SlowDisksHealed       uint64
	BandwidthCliffs       uint64
	BandwidthCliffsHealed uint64
	CorruptFramesInjected uint64
	CorruptFramesRejected uint64
	FlakyNodes            uint64
	FlakyHealed           uint64
	FlakyStrikes          uint64
}

// Snapshot copies the current counter values. Rejected corrupt frames
// load before injected ones, so a writer that counts each injection
// before its rejection is never seen with more rejections than
// injections.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		CorruptFramesRejected: c.CorruptFramesRejected.Load(),
		NodeKills:             c.NodeKills.Load(),
		NodeRestarts:          c.NodeRestarts.Load(),
		Partitions:            c.Partitions.Load(),
		PartitionsHealed:      c.PartitionsHealed.Load(),
		SlowDisks:             c.SlowDisks.Load(),
		SlowDisksHealed:       c.SlowDisksHealed.Load(),
		BandwidthCliffs:       c.BandwidthCliffs.Load(),
		BandwidthCliffsHealed: c.BandwidthCliffsHealed.Load(),
		CorruptFramesInjected: c.CorruptFramesInjected.Load(),
		FlakyNodes:            c.FlakyNodes.Load(),
		FlakyHealed:           c.FlakyHealed.Load(),
		FlakyStrikes:          c.FlakyStrikes.Load(),
	}
}

// Zero reports whether no fault was ever recorded.
func (s Snapshot) Zero() bool { return s == Snapshot{} }

// String renders the non-zero fault classes compactly, e.g.
// "kills 2 (restarted 2) · partitions 1 (healed 1) · corrupt 8/8 rejected".
func (s Snapshot) String() string {
	var parts []string
	if s.NodeKills > 0 || s.NodeRestarts > 0 {
		parts = append(parts, fmt.Sprintf("kills %d (restarted %d)", s.NodeKills, s.NodeRestarts))
	}
	if s.Partitions > 0 || s.PartitionsHealed > 0 {
		parts = append(parts, fmt.Sprintf("partitions %d (healed %d)", s.Partitions, s.PartitionsHealed))
	}
	if s.SlowDisks > 0 || s.SlowDisksHealed > 0 {
		parts = append(parts, fmt.Sprintf("slow-disks %d (healed %d)", s.SlowDisks, s.SlowDisksHealed))
	}
	if s.BandwidthCliffs > 0 || s.BandwidthCliffsHealed > 0 {
		parts = append(parts, fmt.Sprintf("bw-cliffs %d (healed %d)", s.BandwidthCliffs, s.BandwidthCliffsHealed))
	}
	if s.CorruptFramesInjected > 0 || s.CorruptFramesRejected > 0 {
		parts = append(parts, fmt.Sprintf("corrupt %d/%d rejected", s.CorruptFramesRejected, s.CorruptFramesInjected))
	}
	if s.FlakyNodes > 0 || s.FlakyHealed > 0 || s.FlakyStrikes > 0 {
		parts = append(parts, fmt.Sprintf("flaky %d (healed %d, %d strikes)", s.FlakyNodes, s.FlakyHealed, s.FlakyStrikes))
	}
	if len(parts) == 0 {
		return "no faults"
	}
	return strings.Join(parts, " · ")
}

// Register absorbs the counters into the registry as gauge functions
// reading the shared atomics — the injector and the fetchers keep
// ticking the same struct, and the live registry exposes it without a
// second accounting path. No-op when either side is nil.
func (c *Counters) Register(r *telemetry.Registry) {
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
