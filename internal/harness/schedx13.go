package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// X13 is the scheduler economics experiment (ISSUE 10): one cost model
// pricing every chunk across all sources — RAM tier, colocated disk,
// remote node, cross-region replica, GPU recompute, peer-resident KV —
// against the greedy planner that can only pick encoding levels on the
// fleet link. Two cells:
//
//   - an arrival-rate sweep of a 2-tenant Poisson load over a *shared*
//     data link that serializes transfers (offered load past its
//     capacity queues), with the enforced claim: the scheduler's SLO
//     attainment is never below the greedy baseline's, and stays high at
//     the arrival rate where greedy collapses below 50%;
//   - a source-coverage cell where one fetch plan mixes disk, remote and
//     cross-region chunks, a repeat fetch serves from RAM, a peer
//     gateway serves the decoded KV, and a starved link flips a
//     rung-overflow request to text recompute — with the mixed-source
//     KV bit-for-bit identical to the request/response baseline.
func init() {
	register("X13", "Extension: unified fetch-vs-recompute economics (fleet-wide min-TTFT chunk scheduling)", runX13Sched)
}

const (
	x13SLO        = 60 * time.Millisecond
	x13DecodeCost = 2 * time.Millisecond
	x13Requests   = 60

	// The shared data link: every chunk payload holds it for one queued
	// RTT plus its serialization time, so its context-per-second capacity
	// is hard — offered load past it builds a queue that TTFT eats.
	x13LinkRTT = 2 * time.Millisecond

	// x13CollapseFloor is the attainment the scheduler must hold at the
	// rate where greedy collapses (expected ~1.0; slack for CI jitter).
	x13CollapseFloor = 0.9
)

// x13LinkBps is the shared link's fixed serialization rate. At 4 Mbps a
// level-1 context (3 × ~1.6 KiB) costs ≈15.6 ms of link time, so the
// link saturates near 64 contexts/s — between the two swept rates.
var x13LinkBps = 4e6

// x13Rates is the arrival-rate sweep: one point well under the link's
// capacity and one far past it (where the greedy arm must collapse).
var x13Rates = []float64{15, 300}

// x13Device models a thin decode-share: prefill FLOPS 400× below the
// 4×A40 testbed, making text recompute of a 64-token chunk ≈64 ms — a
// real price, as it is at production model scale (same device trick as
// X7's slow-prefill cliff rig). Without it this toy stack's ≈160 µs
// recompute lets *both* arms dodge any network problem by going all-text,
// and the sweep would measure nothing.
func x13Device() llm.Device {
	return llm.Device{Name: "x13-thin-slice", FLOPS: 2e11, MemBW: 2.6e12, DecodeBW: 8e9}
}

// sharedLink models the arm's WAN uplink as a single serialized data
// channel: each payload reserves the link for one RTT plus its transfer
// time at the fixed rate, and concurrent fetches queue behind each
// other's reservations. Manifests ride the control channel — they pay
// the RTT concurrently but never queue. Deliberately not a StreamSource,
// so both arms use the identical request/response transport.
type sharedLink struct {
	src streamer.ChunkSource
	rtt time.Duration
	bps float64

	mu        sync.Mutex
	busyUntil time.Time
}

func (l *sharedLink) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	if err := x13Sleep(ctx, l.rtt); err != nil {
		return storage.Manifest{}, err
	}
	return l.src.GetManifest(ctx, id)
}

func (l *sharedLink) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	data, err := l.src.GetChunkData(ctx, hash)
	if err != nil {
		return nil, err
	}
	hold := l.rtt + netsim.TransferTime(int64(len(data)), l.bps)
	l.mu.Lock()
	start := time.Now()
	if l.busyUntil.After(start) {
		start = l.busyUntil
	}
	end := start.Add(hold)
	l.busyUntil = end
	l.mu.Unlock()
	if err := x13Sleep(ctx, time.Until(end)); err != nil {
		return nil, err
	}
	return data, nil
}

func x13Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// x13Publish stores the sweep's corpus (6 contexts, 3 × 64-token chunks)
// into one store and returns the context ids.
func x13Publish(s *corpusStack, st storage.Store) ([]string, error) {
	rng := rand.New(rand.NewSource(29))
	ids := make([]string, 6)
	for i := range ids {
		id := fmt.Sprintf("x13-ctx-%02d", i)
		tokens := make([]llm.Token, 192)
		for j := range tokens {
			tokens[j] = llm.Token(rng.Intn(llm.VocabSize))
		}
		if _, _, err := streamer.Publish(context.Background(), st, s.codec, s.model, id, tokens,
			streamer.PublishOptions{}); err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// x13Prestage loads every context's level-0 payloads into the
// scheduler's RAM tier: the steady state of a gateway that served these
// tenants before the load spike. The greedy arm has no local tier at
// all — that is the pre-scheduler architecture it stands in for.
func x13Prestage(st storage.Store, ids []string, cache streamer.PayloadCache) error {
	ctx := context.Background()
	for _, id := range ids {
		man, err := st.GetManifest(ctx, id)
		if err != nil {
			return err
		}
		for ci := 0; ci < man.Meta.NumChunks(); ci++ {
			hash, err := man.ChunkHash(0, ci)
			if err != nil {
				return err
			}
			data, err := st.GetChunk(ctx, hash)
			if err != nil {
				return err
			}
			cache.Put(hash, data)
		}
	}
	return nil
}

// x13Arm runs one load point through one arm. Each run gets a fresh
// store, link and gateway so arms never share queue state.
func x13Arm(s *corpusStack, rate float64, withSched bool) (*gateway.LoadReport, error) {
	store := storage.NewMemStore()
	ids, err := x13Publish(s, store)
	if err != nil {
		return nil, err
	}
	link := &sharedLink{src: storeSource{store}, rtt: x13LinkRTT, bps: x13LinkBps}
	cfg := gateway.Config{
		Slots:       2,
		QueueLimit:  4 * x13Requests,
		Prefetch:    true,
		MaxPrefetch: 8,
		Source:      link,
		Codec:       s.codec,
		Model:       s.model,
		Device:      x13Device(),
		Planner: streamer.Planner{
			Adapt: true, DefaultLevel: 1,
			RTT: x13LinkRTT, PriorBandwidth: x13LinkBps,
		},
		DecodeTime: func(int, int) time.Duration { return x13DecodeCost },
	}
	tenants := []workload.PoissonTenant{
		{Name: "tenant-a", Share: 1, ContextIDs: ids[:3], SLO: x13SLO},
		{Name: "tenant-b", Share: 1, ContextIDs: ids[3:], SLO: x13SLO},
	}
	cfg.Tenants = map[string]int{"tenant-a": 1, "tenant-b": 1}
	if withSched {
		sc := sched.New(sched.Options{
			ID:      "x13-gw",
			Signals: sched.Signals{BandwidthBPS: x13LinkBps, RTT: x13LinkRTT},
		})
		if err := x13Prestage(store, ids, sc.Cache()); err != nil {
			return nil, err
		}
		cfg.Sched = sc
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	tr, err := workload.Poisson(rate, x13Requests, tenants, 17)
	if err != nil {
		return nil, err
	}
	return gateway.Replay(context.Background(), g, tr, gateway.ReplayOptions{Offered: rate})
}

// x13Point is one swept arrival rate: both arms under identical load.
type x13Point struct {
	rate   float64
	greedy *gateway.LoadReport
	sched  *gateway.LoadReport
}

// x13SweepCell sweeps the arrival rate over the shared link with both
// arms at every rate.
func x13SweepCell(s *corpusStack) ([]x13Point, error) {
	points := make([]x13Point, 0, len(x13Rates))
	for _, rate := range x13Rates {
		var p x13Point
		p.rate = rate
		var err error
		if p.greedy, err = x13Arm(s, rate, false); err != nil {
			return nil, fmt.Errorf("greedy arm at %.0f/s: %w", rate, err)
		}
		if p.sched, err = x13Arm(s, rate, true); err != nil {
			return nil, fmt.Errorf("sched arm at %.0f/s: %w", rate, err)
		}
		points = append(points, p)
	}
	return points, nil
}

// x13CheckSweep enforces the sweep's claims: every request completes in
// both arms, the scheduler's SLO attainment is never below greedy's,
// greedy genuinely collapses (<50%) at the top rate, and there the
// scheduler is strictly better and still above the floor.
func x13CheckSweep(points []x13Point) error {
	if len(points) == 0 {
		return fmt.Errorf("x13: empty sweep")
	}
	for _, p := range points {
		for arm, rep := range map[string]*gateway.LoadReport{"greedy": p.greedy, "sched": p.sched} {
			if rep.Completed != rep.Submitted || rep.TimedOut > 0 {
				return fmt.Errorf("x13: %s arm at %.0f/s completed %d/%d (%d timed out)",
					arm, p.rate, rep.Completed, rep.Submitted, rep.TimedOut)
			}
		}
		if p.sched.SLORate() < p.greedy.SLORate() {
			return fmt.Errorf("x13: at %.0f/s the scheduler attains %.0f%% SLO vs greedy %.0f%% — below the baseline",
				p.rate, 100*p.sched.SLORate(), 100*p.greedy.SLORate())
		}
	}
	top := points[len(points)-1]
	if top.greedy.SLORate() >= 0.5 {
		return fmt.Errorf("x13: greedy attains %.0f%% at %.0f/s; the sweep's top rate no longer collapses it — retune the link",
			100*top.greedy.SLORate(), top.rate)
	}
	if top.sched.SLORate() <= top.greedy.SLORate() {
		return fmt.Errorf("x13: at the collapse rate the scheduler (%.0f%%) is not strictly above greedy (%.0f%%)",
			100*top.sched.SLORate(), 100*top.greedy.SLORate())
	}
	if top.sched.SLORate() < x13CollapseFloor {
		return fmt.Errorf("x13: scheduler attains %.0f%% at the collapse rate, below the %.0f%% floor",
			100*top.sched.SLORate(), 100*x13CollapseFloor)
	}
	return nil
}

// x13Coverage is the source-coverage cell's outcome: delivered chunks
// per source class across the staged fetches, and the identity checks.
type x13Coverage struct {
	counts map[string]int64 // source class → chunks delivered
	stages []x13Stage

	diffMix  float64 // mixed-source KV vs request/response baseline
	diffRAM  float64 // RAM-tier repeat fetch vs the same baseline
	diffPeer float64 // peer-served KV vs the same baseline
	diffText float64 // recompute fetch vs the model's true KV
}

// x13Stage is one staged fetch of the coverage cell, for the report.
type x13Stage struct {
	name string
	mix  map[string]int
	load time.Duration
}

// x13CoverageCell drives the six source classes through real fetchers:
// a 3-node fleet with one node colocated (disk tier), one in another
// region, a shared resident index for the peer tier, and a starved
// bandwidth prior for the recompute flip.
func x13CoverageCell() (*x13Coverage, error) {
	st, err := newContextStack()
	if err != nil {
		return nil, err
	}
	fl, sharded, err := launchRing(3, 1, 4<<20)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	ring := sharded.Ring()
	const ctxID = "x13-cov"
	man, err := st.publish(sharded, ctxID)
	if err != nil {
		return nil, err
	}
	pool := cluster.NewPool(ring, cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()

	// Topology from the actual placement (node names are listen
	// addresses, so placement re-rolls per run): the node owning chunk 0
	// at level 1 is "colocated" — its store is the disk tier and it is
	// the only same-region node, so every other owner prices
	// cross-region. Replicas=1, so each chunk has one owner.
	owners := map[int]string{}
	chunks := man.Meta.NumChunks()
	for ci := 0; ci < chunks; ci++ {
		hash, err := man.ChunkHash(1, ci)
		if err != nil {
			return nil, err
		}
		nodes := ring.ChunkNodes(hash)
		if len(nodes) == 0 {
			return nil, fmt.Errorf("x13: chunk %d has no owner", ci)
		}
		owners[ci] = nodes[0]
	}
	diskNode := owners[0]
	spread := false
	for ci := 0; ci < chunks; ci++ {
		if owners[ci] != diskNode {
			spread = true
			break
		}
	}
	if !spread {
		return nil, fmt.Errorf("x13: all %d chunks landed on one node; coverage cell needs spread", chunks)
	}
	regions := map[string]string{}
	for _, nd := range ring.Nodes() {
		regions[nd] = "east"
	}
	regions[diskNode] = "west"

	residents := sched.NewResidentIndex(0)
	mk := func(id string, opt sched.Options) *sched.Scheduler {
		opt.ID = id
		return sched.New(opt)
	}
	fetch := func(sc *sched.Scheduler, req sched.Request) (*tensor.KV, *streamer.FetchReport, error) {
		p := sc.NewPlan(req)
		f := &streamer.Fetcher{
			Source: pool, Codec: st.codec, Model: st.model, Device: llm.A40x4(),
			Policy: p, Local: sc.Cache(), LocalStore: sc.DiskStore(), Peers: sc.PeerSource(),
			DisableStreaming: true,
		}
		kv, rep, err := f.Fetch(context.Background(), ctxID)
		sc.FinishPlan(p, kv, rep)
		return kv, rep, err
	}

	// The request/response baseline the mixed-source KV must match
	// bit-for-bit: a plain fetcher pinned at level 1, fleet only.
	base := &streamer.Fetcher{
		Source: pool, Codec: st.codec, Model: st.model, Device: llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 1}, DisableStreaming: true,
	}
	kvRef, _, err := base.Fetch(context.Background(), ctxID)
	if err != nil {
		return nil, err
	}

	out := &x13Coverage{counts: map[string]int64{}}
	record := func(name string, rep *streamer.FetchReport) {
		stage := x13Stage{name: name, mix: map[string]int{}, load: rep.LoadTime}
		for _, d := range rep.Decisions {
			src := streamer.DecisionSource(d)
			out.counts[src]++
			stage.mix[src]++
		}
		out.stages = append(out.stages, stage)
	}
	pinned := sched.Request{ContextID: ctxID, DefaultLevel: 1}

	// Stage 1 — cold mixed fetch: the colocated node's chunks come off
	// disk, every other owner prices as a cross-region replica.
	covA := mk("cov-a", sched.Options{
		Locator: ring, Regions: regions, LocalRegion: "west",
		DiskStore: fl.Node(diskNode).Store, Residents: residents,
	})
	kv1, rep1, err := fetch(covA, pinned)
	if err != nil {
		return nil, fmt.Errorf("x13 cold mixed fetch: %w", err)
	}
	record("cold: disk+xregion", rep1)
	if out.diffMix, err = kv1.MaxAbsDiff(kvRef); err != nil {
		return nil, err
	}

	// Stage 2 — repeat fetch: the write-through RAM tier serves it all.
	kv2, rep2, err := fetch(covA, pinned)
	if err != nil {
		return nil, fmt.Errorf("x13 warm fetch: %w", err)
	}
	record("warm: ram", rep2)
	if out.diffRAM, err = kv2.MaxAbsDiff(kvRef); err != nil {
		return nil, err
	}

	// Stage 3 — same-region fleet: a gateway with placement but no local
	// tiers and no resident index sees every owner as a healthy
	// same-region node — the default remote path.
	covD := mk("cov-d", sched.Options{Locator: ring})
	kv3, rep3, err := fetch(covD, pinned)
	if err != nil {
		return nil, fmt.Errorf("x13 remote fetch: %w", err)
	}
	record("fleet: remote", rep3)
	if diff, err := kv3.MaxAbsDiff(kvRef); err != nil {
		return nil, err
	} else if diff != 0 {
		return nil, fmt.Errorf("x13: remote fetch diverged from the baseline (max |Δ| = %g)", diff)
	}

	// Stage 4 — peer transfer: a gateway sharing the resident index
	// ships cov-a's decoded KV instead of touching the fleet.
	covB := mk("cov-b", sched.Options{Residents: residents})
	kv4, rep4, err := fetch(covB, pinned)
	if err != nil {
		return nil, fmt.Errorf("x13 peer fetch: %w", err)
	}
	record("peer: resident KV", rep4)
	if out.diffPeer, err = kv4.MaxAbsDiff(kvRef); err != nil {
		return nil, err
	}

	// Stage 5 — recompute: a rung-overflow request on a starved link
	// (200 kbps observed) prices text cheaper than the coarsest level.
	covC := mk("cov-c", sched.Options{})
	covC.ObserveBandwidth(2e5)
	coarsest := core.Level(st.codec.Config().Levels() - 1)
	kv5, rep5, err := fetch(covC, sched.Request{ContextID: ctxID, DefaultLevel: coarsest, Rung: 1})
	if err != nil {
		return nil, fmt.Errorf("x13 recompute fetch: %w", err)
	}
	record("starved: text recompute", rep5)
	if out.diffText, err = kv5.MaxAbsDiff(st.kv); err != nil {
		return nil, err
	}
	return out, nil
}

// x13CheckCoverage enforces the coverage cell: at least one chunk from
// every source class, and exact KV identity on every path.
func x13CheckCoverage(c *x13Coverage) error {
	for _, src := range []string{
		streamer.SourceRemote, streamer.SourceRAM, streamer.SourceDisk,
		streamer.SourceXRegion, streamer.SourceRecompute, streamer.SourcePeer,
	} {
		if c.counts[src] == 0 {
			return fmt.Errorf("x13: source class %q served no chunks (mix %v)", src, c.counts)
		}
	}
	for name, diff := range map[string]float64{
		"mixed-source": c.diffMix, "ram": c.diffRAM, "peer": c.diffPeer,
	} {
		if diff != 0 {
			return fmt.Errorf("x13: %s KV differs from the request/response baseline (max |Δ| = %g)", name, diff)
		}
	}
	if c.diffText != 0 {
		return fmt.Errorf("x13: recomputed KV differs from the model's true KV (max |Δ| = %g)", c.diffText)
	}
	return nil
}

// x13Mix formats a per-source chunk mix compactly.
func x13Mix(counts map[string]int64) string {
	order := []string{
		streamer.SourceRAM, streamer.SourceDisk, streamer.SourcePeer,
		streamer.SourceRemote, streamer.SourceXRegion, streamer.SourceRecompute,
	}
	s := ""
	for _, src := range order {
		if n := counts[src]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", src, n)
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

func x13MixInt(m map[string]int) string {
	c := make(map[string]int64, len(m))
	for k, v := range m {
		c[k] = int64(v)
	}
	return x13Mix(c)
}

func runX13Sched(f *Fixture) ([]*Report, error) {
	s, err := newCorpusStack()
	if err != nil {
		return nil, err
	}
	points, err := x13SweepCell(s)
	if err != nil {
		return nil, err
	}
	if err := x13CheckSweep(points); err != nil {
		return nil, err
	}

	sweep := &Report{
		ID:      "X13",
		Title:   "Scheduler economics: SLO attainment vs arrival rate on a shared serialized uplink (2 decode slots)",
		Columns: []string{"Rate", "Policy", "Done", "P50 TTFT", "P99 TTFT", "SLO met", "Source mix"},
	}
	for _, p := range points {
		for _, arm := range []struct {
			name string
			rep  *gateway.LoadReport
		}{
			{"greedy planner", p.greedy},
			{"sched cost model", p.sched},
		} {
			p50, p99, slo, _ := loadRow(arm.rep)
			sweep.AddRow(fmt.Sprintf("%.0f/s", p.rate), arm.name,
				fmt.Sprintf("%d/%d", arm.rep.Completed, arm.rep.Submitted),
				p50, p99, slo, x13Mix(arm.rep.Sources()))
		}
	}
	sweep.AddNote("shared data link: %s serialized, %v queued RTT per payload (≈64 level-1 contexts/s capacity); manifests ride the control channel; SLO %v",
		metrics.FormatBandwidth(x13LinkBps), x13LinkRTT, x13SLO)
	sweep.AddNote("the scheduler arm's RAM tier is warm (the gateway served these tenants before the spike); the greedy arm is the pre-scheduler architecture — no local tiers, every byte over the shared link")
	sweep.AddNote("prefill device is a thin GPU slice (64 ms/chunk recompute), so the text fallback has a real price for both arms")

	cov, err := x13CoverageCell()
	if err != nil {
		return nil, err
	}
	if err := x13CheckCoverage(cov); err != nil {
		return nil, err
	}
	coverage := &Report{
		ID:      "X13",
		Title:   "Scheduler economics: every source class serves (3-node fleet, one colocated, rest cross-region, shared resident index)",
		Columns: []string{"Stage", "Load time", "Source mix"},
	}
	for _, stage := range cov.stages {
		coverage.AddRow(stage.name, fmt.Sprintf("%.1f ms", stage.load.Seconds()*1e3), x13MixInt(stage.mix))
	}
	coverage.AddNote("mixed-source, RAM and peer KV are bit-for-bit identical to the request/response baseline (max |Δ| = 0); the recompute path matches the model's true KV exactly")

	return []*Report{sweep, coverage}, nil
}
