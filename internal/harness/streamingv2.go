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
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The streaming-transport-v2 scenario: the request/response delivery
// plane beside a multiplexed server-push stream with frame-granularity
// bandwidth estimation and mid-stream steering (SWITCH and CANCEL). X7
// runs both planes over a live loopback server: on a static link it
// fails unless the streamed KV and bytes equal the request/response
// ones, and under a bandwidth cliff it reports what the stream's steering
// did.

func init() {
	register("X7", "Extension: streaming transport v2 (server-push stream vs request/response, live)", runX7StreamingV2)
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

// runX7StreamingV2 runs the real wire path: one storage server, a
// published context, and the two delivery planes — with a bit-for-bit
// identity check on a static link and a traced run exercising the
// mid-stream steering.
func runX7StreamingV2(*Fixture) ([]*Report, error) {
	s, err := newContextStack()
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

	// 2 KiB DATA frames, a decision every two frames and an estimator
	// window of eight, so the steering reacts within the cliff.
	fetch := func(client *transport.Client, dev llm.Device, p streamer.Planner, disable bool) (*tensor.KV, *streamer.FetchReport, error) {
		fch := &streamer.Fetcher{
			Source: client, Codec: s.codec, Model: s.model, Device: dev, Planner: p,
			FrameSize: 2 << 10, DecisionFrames: 2, EstimatorWindow: 8,
			DisableStreaming: disable,
		}
		return fch.Fetch(ctx, "x7-ctx")
	}

	// Static link: the bit-for-bit identity check at a fixed level.
	client, done, err := serveLoopback(store, false)
	if err != nil {
		return nil, err
	}
	fixed := streamer.Planner{Adapt: false, DefaultLevel: 0}
	rrKV, rrRep, err := fetch(client, llm.A40x4(), fixed, true)
	if err != nil {
		done()
		return nil, err
	}
	stKV, stRep, err := fetch(client, llm.A40x4(), fixed, false)
	done()
	if err != nil {
		return nil, err
	}
	diff, err := stKV.MaxAbsDiff(rrKV)
	if err != nil {
		return nil, err
	}
	if diff != 0 {
		return nil, fmt.Errorf("streamed KV differs from request/response KV: max |Δ| = %g", diff)
	}
	if stRep.BytesReceived != rrRep.BytesReceived {
		return nil, fmt.Errorf("streamed %d bytes, request/response %d", stRep.BytesReceived, rrRep.BytesReceived)
	}
	rep.AddRow("request/response", "static",
		fmt.Sprintf("%.1f ms", rrRep.LoadTime.Seconds()*1e3),
		metrics.FormatBandwidth(rrRep.Bandwidth), "-", x7Mix(rrRep.Decisions), "reference")
	rep.AddRow("server-push stream", "static",
		fmt.Sprintf("%.1f ms", stRep.LoadTime.Seconds()*1e3),
		metrics.FormatBandwidth(stRep.Bandwidth),
		fmt.Sprintf("%d/%d", stRep.Switches, stRep.Cancels),
		x7Mix(stRep.Decisions), "IDENTICAL")

	// Cliff trace: both planes adaptive, replaying the same trace through
	// the server's egress shaper (transport.WithEgressTrace). A slow
	// prefill device makes the text fallback expensive in the planner's
	// estimates, so degradation walks the encoding levels — where the
	// mid-stream steering is visible.
	slowDev := llm.Device{Name: "slow-prefill", FLOPS: 1e11, MemBW: 2.6e12, DecodeBW: 8e9}
	// Adapt toward a 400 ms SLO from the cliff's 8 Mbps.
	adaptive := streamer.Planner{Adapt: true, SLO: 400 * time.Millisecond, DefaultLevel: 0, PriorBandwidth: 8e6}
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
		_, report, err := fetch(client, slowDev, adaptive, mode.disable)
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
	rep.AddNote("the streamed KV is decoded chunk-by-chunk into the same preallocated destination as the request/response path (zero-copy decode), so the identity check is over the exact serving artifact")
	return []*Report{rep}, nil
}

// serveLoopback launches one node over store on a loopback port and dials
// it; done closes both. With cliff, the node's egress replays X7's
// bandwidth cliff: 8 Mbps for 15 ms, then 0.2 Mbps.
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
