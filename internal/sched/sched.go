// Package sched implements the fleet-wide fetch-vs-recompute economics
// of the gateway: one cost model that prices every chunk of a request
// across all sources — the local RAM payload cache, a colocated disk
// replica, a remote fleet node, a cross-region replica, GPU recompute
// from text, and a peer gateway holding the decoded KV resident — and
// emits the minimum-TTFT source mix under the tenant's SLO, the
// degradation ladder's rung, and live load signals (bandwidth estimate,
// decode-slot occupancy, plan concurrency, per-node latency and breaker
// state from the resilience layer).
//
// The decision procedure itself is not here: Algorithm 1 lives once, in
// streamer.Decide, and a Plan is the six-source price table it reads
// (streamer.Prices) plus what is the scheduler's own — candidate tables
// primed per request, live signals, the hysteresis band, telemetry and
// residency. streamer.Planner hands the same procedure a one-link table,
// which is why the two agree wherever only the fleet link can serve
// (TestPlanMatchesPlannerOnOneSource). A Plan is a streamer.PathPolicy,
// so the Fetcher drives it exactly as it drives the planner — including
// mid-stream re-plans on the SWITCH and CANCEL machinery — while
// per-chunk Choice.Source fields route delivery to the priced source.
// Decisions and deliveries export as cachegen_sched_* counters.
package sched

import (
	"context"
	"math"
	"sync/atomic"

	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Source identifies a delivery source class.
type Source uint8

const (
	// Remote is a same-region fleet node (the default path).
	Remote Source = iota
	// RAM is the local payload cache.
	RAM
	// Disk is the colocated replica's store.
	Disk
	// XRegion is a fleet replica in another region.
	XRegion
	// Recompute is the text fallback: fetch tokens, re-prefill on GPU.
	Recompute
	// Peer is a gateway with the decoded KV resident.
	Peer

	numSources = 6
)

// String returns the streamer's label for the source class.
func (s Source) String() string {
	if int(s) < len(sourceLabels) {
		return sourceLabels[s]
	}
	return "unknown"
}

// srcIndex maps a delivered-source label back onto the enum.
func srcIndex(label string) Source {
	switch label {
	case streamer.SourceRAM:
		return RAM
	case streamer.SourceDisk:
		return Disk
	case streamer.SourceXRegion:
		return XRegion
	case streamer.SourceRecompute:
		return Recompute
	case streamer.SourcePeer:
		return Peer
	default:
		return Remote
	}
}

// Locator maps a chunk's content hash to the ring nodes serving it
// (cluster.Ring implements it).
type Locator interface {
	ChunkNodes(hash string) []string
}

// DefaultHysteresis is the re-plan band: a repeated decision switches
// configuration only when the fresh best beats the standing choice's
// re-priced cost by more than this fraction.
const DefaultHysteresis = 0.15

// Options configures a Scheduler. Everything is optional except that a
// scheduler without a Locator prices all network chunks at the
// same-region prior.
type Options struct {
	// ID identifies this gateway in the resident index (it never serves
	// itself as a peer).
	ID string
	// Locator resolves chunk placement (typically the cluster ring).
	Locator Locator
	// Resilience supplies per-node health, breaker state and adaptive
	// latency; nil means every node is healthy at the RTT prior.
	Resilience *resilience.Manager
	// Regions maps node ids to region labels; nodes in a region other
	// than LocalRegion price as cross-region. Empty disables the tier.
	Regions     map[string]string
	LocalRegion string
	// DiskStore is the colocated replica (this gateway's own ring node);
	// chunks it holds price at the disk tier. Nil disables the tier.
	DiskStore storage.Store
	// CacheBytes caps the RAM payload cache (0 = 64 MiB).
	CacheBytes int64
	// Residents is the fleet-wide resident-prefix index, shared by every
	// gateway in the fleet. Nil disables the peer tier.
	Residents *ResidentIndex
	// Signals seeds the cost model (zero fields take defaults).
	Signals Signals
	// Telemetry, when set, registers the cachegen_sched_* instruments.
	Telemetry *telemetry.Registry
}

// Scheduler owns the shared state behind every plan: the RAM payload
// cache, the decode-slot tracker, the live bandwidth estimate, and the
// in-flight plan count that feeds the concurrency factor.
type Scheduler struct {
	opt    Options
	sig    Signals
	cache  *storage.PayloadLRU
	slots  *llm.SlotTracker
	active atomic.Int64
	bwBits atomic.Uint64
	tele   *instruments
}

type instruments struct {
	decisions *telemetry.Counter
	replans   *telemetry.Counter
	holds     *telemetry.Counter
	source    [numSources]*telemetry.Counter
}

// New builds a scheduler from opt.
func New(opt Options) *Scheduler {
	if opt.CacheBytes <= 0 {
		opt.CacheBytes = 64 << 20
	}
	s := &Scheduler{opt: opt, sig: opt.Signals.withDefaults(), cache: storage.NewPayloadLRU(opt.CacheBytes)}
	if opt.Telemetry != nil {
		s.Register(opt.Telemetry)
	}
	return s
}

// Register wires the scheduler's instruments into reg: per-source
// delivery counters (cachegen_sched_source_total{source=...}, all six
// classes pre-registered at zero so dashboards see the full set),
// decision/re-plan counters and live gauges.
func (s *Scheduler) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &instruments{
		decisions: reg.Counter("cachegen_sched_decisions_total", "chunk scheduling decisions made"),
		replans:   reg.Counter("cachegen_sched_replans_total", "repeat decisions that switched configuration past the hysteresis band"),
		holds:     reg.Counter("cachegen_sched_holds_total", "repeat decisions damped inside the hysteresis band"),
	}
	for src := Source(0); src < numSources; src++ {
		t.source[src] = reg.Counter("cachegen_sched_source_total",
			"chunks delivered per source class", "source", src.String())
	}
	reg.GaugeFunc("cachegen_sched_active_plans", "fetch plans currently in flight",
		func() float64 { return float64(s.active.Load()) })
	reg.GaugeFunc("cachegen_sched_cache_bytes", "RAM payload-cache residency",
		func() float64 { return float64(s.cache.Bytes()) })
	s.tele = t
}

// BindSlots creates (once) and returns the decode-slot tracker for a
// pool of n slots, registering its gauges on the scheduler's registry.
// The gateway drives Acquire/Release; the cost model reads occupancy.
func (s *Scheduler) BindSlots(n int) *llm.SlotTracker {
	if s.slots == nil {
		s.slots = llm.NewSlotTracker(n)
		s.slots.Register(s.opt.Telemetry)
	}
	return s.slots
}

// Slots returns the bound tracker (nil until BindSlots).
func (s *Scheduler) Slots() *llm.SlotTracker { return s.slots }

// Cache returns the RAM tier for wiring into Fetcher.Local.
func (s *Scheduler) Cache() streamer.PayloadCache { return s.cache }

// DiskReader returns the colocated-replica reader for Fetcher.LocalStore
// (nil when the disk tier is disabled).
func (s *Scheduler) DiskReader() streamer.ChunkReader {
	if s.opt.DiskStore == nil {
		return nil
	}
	return diskReader{s.opt.DiskStore}
}

type diskReader struct{ st storage.Store }

func (d diskReader) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	return d.st.GetChunk(ctx, hash)
}

// PeerSource returns the peer-transfer client for Fetcher.Peers (nil
// when the peer tier is disabled).
func (s *Scheduler) PeerSource() streamer.PeerSource {
	if s.opt.Residents == nil {
		return nil
	}
	return &peerClient{idx: s.opt.Residents, self: s.opt.ID, rtt: s.sig.PeerRTT, bps: s.sig.PeerBandwidthBPS}
}

// Residents returns the fleet resident-prefix index (nil if disabled).
func (s *Scheduler) Residents() *ResidentIndex { return s.opt.Residents }

// ObserveBandwidth folds a finished fetch's estimate into the
// scheduler's prior for plans that start before their first measurement.
func (s *Scheduler) ObserveBandwidth(bps float64) {
	if bps > 0 {
		s.bwBits.Store(math.Float64bits(bps))
	}
}

// Bandwidth returns the last observed fleet bandwidth (0 if none yet).
func (s *Scheduler) Bandwidth() float64 {
	return math.Float64frombits(s.bwBits.Load())
}

// NewPlan opens a plan for one request and counts it toward the live
// concurrency signal until FinishPlan.
func (s *Scheduler) NewPlan(req Request) *Plan {
	s.active.Add(1)
	return &Plan{s: s, req: req}
}

// FinishPlan closes a plan: the in-flight count drops, the delivered
// per-source chunk counts land on the cachegen_sched_source_total
// counters, the fetch's closing bandwidth estimate folds into the
// prior, and — when the fetch produced a complete fresh tensor — the
// context registers in the resident index so peers can serve it.
// kv and report may be nil (failed fetch). Idempotent per plan.
func (s *Scheduler) FinishPlan(p *Plan, kv *tensor.KV, report *streamer.FetchReport) {
	if p == nil || p.done {
		return
	}
	p.done = true
	s.active.Add(-1)
	if report == nil {
		return
	}
	if s.tele != nil {
		for i := range report.Decisions {
			s.tele.source[srcIndex(streamer.DecisionSource(report.Decisions[i]))].Inc()
		}
	}
	if report.Bandwidth > 0 {
		s.ObserveBandwidth(report.Bandwidth)
	}
	if s.opt.Residents == nil || kv == nil || !p.primed ||
		report.ResidentTokens != 0 || len(report.Decisions) != p.n || p.n == 0 {
		return
	}
	levels := make([]int, p.n)
	for i, d := range report.Decisions {
		if d.Choice.Text {
			levels[i] = LevelText
		} else {
			levels[i] = int(d.Choice.Level)
		}
	}
	s.opt.Residents.Register(p.req.ContextID, s.opt.ID, kv, levels, p.tokens)
}
