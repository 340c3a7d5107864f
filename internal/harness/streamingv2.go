package harness

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/transport"
)

// The streaming-transport-v2 scenario (ISSUE 5): the request/response
// delivery plane replaced by a multiplexed server-push stream with
// frame-granularity bandwidth estimation and mid-stream level switching.
// X7 measures what the finer estimator buys under a bandwidth cliff —
// the §5.3 situation the per-chunk estimator is structurally blind to,
// because it only learns the throughput after an entire chunk lands —
// and checks the streamed KV against the request/response path bit for
// bit.

func init() {
	register("X7", "Extension: streaming transport v2 (frame-granularity adaptation vs per-chunk)", runX7StreamingV2)
}

// x7Mix summarises a run's per-chunk choices ("6×L0 1×L2 4×text").
func x7Mix(decisions []streamer.ChunkDecision) string {
	counts := map[string]int{}
	for _, d := range decisions {
		counts[d.Choice.String()]++
	}
	var parts []string
	for _, key := range []string{"text", "L0", "L1", "L2", "L3"} {
		if n := counts[key]; n > 0 {
			parts = append(parts, fmt.Sprintf("%d×%s", n, key))
		}
	}
	return strings.Join(parts, " ")
}

func runX7StreamingV2(f *Fixture) ([]*Report, error) {
	sim, err := runX7Sim(f)
	if err != nil {
		return nil, err
	}
	live, err := runX7Live()
	if err != nil {
		return nil, err
	}
	return []*Report{sim, live}, nil
}

// runX7Sim compares the estimators on the virtual clock: same context,
// same planner, same cliff trace; the only variable is whether the
// adaptation loop sees per-chunk averages or per-frame samples.
func runX7Sim(f *Fixture) (*Report, error) {
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		return nil, err
	}
	const tokens = 16500
	const slo = 4 * time.Second
	trace, err := netsim.ParseTrace("2Gbps:400ms,0.05Gbps")
	if err != nil {
		return nil, err
	}
	planner := streamer.Planner{
		Adapt: true, SLO: slo, DefaultLevel: defaultLevel,
		PriorBandwidth: netsim.Gbps(2), RTT: defaultRTT,
	}
	chunks := rig.ChunkInfos(tokens, 1)

	rep := &Report{
		ID:      "X7",
		Title:   "Transport v2: adaptation granularity under a bandwidth cliff (2 Gbps → 0.05 Gbps at 0.4 s, SLO 4 s)",
		Columns: []string{"Estimator", "TTFT", "Overshoot", "On-wire", "Abandoned", "Cancels", "Mix"},
	}
	type mode struct {
		name       string
		frameBytes int64
	}
	for _, m := range []mode{
		{"per-chunk (transport v1)", 0},
		{"per-frame, 256 KiB frames", 256 << 10},
		{"per-frame, 64 KiB frames", 64 << 10},
	} {
		res, err := streamer.Simulate(streamer.SimInput{
			Chunks:      chunks,
			TotalTokens: tokens,
			Link:        netsim.NewLink(trace),
			Planner:     planner,
			Model:       rig.Full,
			Device:      rig.Dev,
			FrameBytes:  m.frameBytes,
		})
		if err != nil {
			return nil, err
		}
		overshoot := res.TTFT - slo
		if overshoot < 0 {
			overshoot = 0
		}
		rep.AddRow(m.name,
			fmt.Sprintf("%.2fs", res.TTFT.Seconds()),
			fmt.Sprintf("%.2fs", overshoot.Seconds()),
			metrics.FormatBytes(res.BytesSent),
			metrics.FormatBytes(res.AbandonedBytes),
			fmt.Sprintf("%d", res.Cancels),
			x7Mix(res.Decisions))
	}
	rep.AddNote("the per-chunk estimator commits a whole chunk at the pre-cliff level and can only watch it crawl; per-frame estimation sees the collapse within a window of frames, cancels the doomed chunk, and resends it at the planner's fresh choice — one open RTT for the stream instead of one per chunk rides along")
	return rep, nil
}

// runX7Live runs the real wire path: one storage server, a published
// context, and the two delivery planes — with a bit-for-bit identity
// check on a static link and a traced run exercising the mid-stream
// steering.
func runX7Live() (*Report, error) {
	s, err := newX4Stack()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := streamer.Publish(ctx, store, s.codec, s.model, "x7-ctx", s.tokens,
		streamer.PublishOptions{KV: s.kv}); err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "X7",
		Title:   "Transport v2 live: server-push stream vs request/response (loopback)",
		Columns: []string{"Path", "Link", "Load time", "Bandwidth est", "Switch/cancel", "Mix", "KV vs r/r"},
	}

	fetch := func(client *transport.Client, dev llm.Device, p streamer.Planner, disable bool) (*streamer.FetchReport, float64, error) {
		fch := s.cliffFetcher(client, dev, p)
		fch.DisableStreaming = disable
		kv, report, err := fch.Fetch(ctx, "x7-ctx")
		if err != nil {
			return nil, 0, err
		}
		diff, err := s.kv.MaxAbsDiff(kv)
		if err != nil {
			return nil, 0, err
		}
		return report, diff, nil
	}

	// Static link: the bit-for-bit identity check at a fixed level.
	client, done, err := serveLoopback(store, false)
	if err != nil {
		return nil, err
	}
	fixed := streamer.Planner{Adapt: false, DefaultLevel: 0}
	rrRep, rrDiff, err := fetch(client, llm.A40x4(), fixed, true)
	if err != nil {
		done()
		return nil, err
	}
	stRep, stDiff, err := fetch(client, llm.A40x4(), fixed, false)
	done()
	if err != nil {
		return nil, err
	}
	identical := "IDENTICAL"
	if stDiff != rrDiff {
		identical = fmt.Sprintf("DIVERGED (Δ %g vs %g)", stDiff, rrDiff)
	}
	rep.AddRow("request/response", "static",
		fmt.Sprintf("%.1f ms", rrRep.LoadTime.Seconds()*1e3),
		metrics.FormatBandwidth(rrRep.Bandwidth), "-", x7Mix(rrRep.Decisions), "reference")
	rep.AddRow("server-push stream", "static",
		fmt.Sprintf("%.1f ms", stRep.LoadTime.Seconds()*1e3),
		metrics.FormatBandwidth(stRep.Bandwidth),
		fmt.Sprintf("%d/%d", stRep.Switches, stRep.Cancels),
		x7Mix(stRep.Decisions), identical)
	if stRep.BytesReceived != rrRep.BytesReceived {
		note := fmt.Sprintf("WARNING: byte counts diverged (%d streamed vs %d request/response)",
			stRep.BytesReceived, rrRep.BytesReceived)
		rep.AddNote("%s", note)
	}

	// Cliff trace: both planes adaptive, replaying the same trace through
	// the server's egress shaper (transport.WithEgressTrace). A slow
	// prefill device makes the text fallback expensive in the planner's
	// estimates, so degradation walks the encoding levels — where the
	// mid-stream steering is visible.
	slowDev := llm.Device{Name: "slow-prefill", FLOPS: 1e11, MemBW: 2.6e12, DecodeBW: 8e9}
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"request/response", true},
		{"server-push stream", false},
	} {
		client, done, err := serveLoopback(store, true)
		if err != nil {
			return nil, err
		}
		report, _, err := fetch(client, slowDev, cliffPlanner(), mode.disable)
		done()
		if err != nil {
			return nil, err
		}
		steer := "-"
		if !mode.disable {
			steer = fmt.Sprintf("%d/%d", report.Switches, report.Cancels)
		}
		rep.AddRow(mode.name, "cliff 8→0.2 Mbps",
			fmt.Sprintf("%.1f ms", report.LoadTime.Seconds()*1e3),
			metrics.FormatBandwidth(report.Bandwidth),
			steer, x7Mix(report.Decisions), "-")
	}
	rep.AddNote("the streamed KV is decoded chunk-by-chunk into the same preallocated destination as the request/response path (PR 4's zero-copy decode), so the identity check is over the exact serving artifact")
	return rep, nil
}

// serveLoopback launches one node over store on a loopback port and dials
// it; done closes both. With cliff, the node's egress replays the cliff
// cells' (X7, X11, X13) bandwidth cliff: 8 Mbps for 15 ms, then 0.2 Mbps.
func serveLoopback(store storage.Store, cliff bool) (client *transport.Client, done func(), err error) {
	var opts []transport.ServerOption
	if cliff {
		trace, err := netsim.ParseTrace("8Mbps:15ms,0.2Mbps")
		if err != nil {
			return nil, nil, err
		}
		opts = append(opts, transport.WithEgressTrace(trace))
	}
	fl := &chaos.LocalFleet{}
	node, err := fl.Launch("127.0.0.1:0", store, 0, opts...)
	if err != nil {
		return nil, nil, err
	}
	if client, err = transport.Dial(node.Addr); err != nil {
		fl.Close()
		return nil, nil, err
	}
	return client, func() { client.Close(); fl.Close() }, nil
}

// cliffPlanner adapts toward a 400 ms SLO from the cliff's 8 Mbps.
func cliffPlanner() streamer.Planner {
	return streamer.Planner{Adapt: true, SLO: 400 * time.Millisecond, DefaultLevel: 0, PriorBandwidth: 8e6}
}

// cliffFetcher fetches from client with the cliff cells' frame settings:
// 2 KiB DATA frames, a decision every two frames and an estimator window
// of eight, so the steering reacts within the cliff.
func (s *x4Stack) cliffFetcher(client *transport.Client, dev llm.Device, p streamer.Planner) *streamer.Fetcher {
	return &streamer.Fetcher{
		Source: client, Codec: s.codec, Model: s.model, Device: dev, Planner: p,
		FrameSize: 2 << 10, DecisionFrames: 2, EstimatorWindow: 8,
	}
}
