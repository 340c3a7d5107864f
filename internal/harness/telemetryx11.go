package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
)

// The telemetry-plane scenario (ISSUE 7): every request carries a span
// tree from admission through per-chunk transfer and decode, and every
// component feeds a lock-cheap live metrics registry. X11 renders the
// trace of one bandwidth-cliff fetch as a TTFT-attribution waterfall —
// where did the time-to-first-token actually go? — and cross-checks the
// registry's streaming percentiles against the offline order-statistic
// summary the harness has always reported, which bounds the histogram's
// bucketing error on real data.

func init() {
	register("X11", "Extension: fleet-wide telemetry plane (TTFT-attribution waterfall + live registry cross-check)", runX11Telemetry)
}

func runX11Telemetry(f *Fixture) ([]*Report, error) {
	wf, err := runX11Waterfall()
	if err != nil {
		return nil, err
	}
	xc, err := runX11CrossCheck()
	if err != nil {
		return nil, err
	}
	return []*Report{wf, xc}, nil
}

// x11Attr extracts one attribute of a span record, "" if absent.
func x11Attr(rec telemetry.SpanRecord, key string) string {
	for _, a := range rec.Attrs {
		if a.Key == key {
			return fmt.Sprintf("%v", a.Value)
		}
	}
	return ""
}

// x11Bar renders one waterfall lane: the phase's interval as a bar
// positioned inside the request's [0, total] window.
func x11Bar(offset, dur, total time.Duration, width int) string {
	if total <= 0 {
		return ""
	}
	start := int(float64(width) * float64(offset) / float64(total))
	if start >= width {
		start = width - 1
	}
	n := int(float64(width) * float64(dur) / float64(total))
	if n < 1 {
		n = 1
	}
	if start+n > width {
		n = width - start
	}
	return strings.Repeat("·", start) + strings.Repeat("█", n)
}

// runX11Waterfall traces one X7-style bandwidth-cliff fetch and prints
// its span tree as a waterfall: per-chunk transfer and decode lanes with
// level and byte attributes, plus the mid-stream steering events.
func runX11Waterfall() (*Report, error) {
	s, err := newX4Stack()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := streamer.Publish(ctx, store, s.codec, s.model, "x11-ctx", s.tokens,
		streamer.PublishOptions{KV: s.kv}); err != nil {
		return nil, err
	}

	client, done, err := serveLoopback(store, true)
	if err != nil {
		return nil, err
	}
	defer done()

	tr := telemetry.NewTracer(0)
	fctx, root := tr.StartRequest(ctx, "request",
		telemetry.Attr{Key: "context", Value: "x11-ctx"})
	slowDev := llm.Device{Name: "slow-prefill", FLOPS: 1e11, MemBW: 2.6e12, DecodeBW: 8e9}
	_, frep, err := s.cliffFetcher(client, slowDev, cliffPlanner()).Fetch(fctx, "x11-ctx")
	root.End()
	if err != nil {
		return nil, err
	}

	recs := tr.Snapshot()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start.Before(recs[j].Start) })
	var base time.Time
	var total time.Duration
	for _, r := range recs {
		if base.IsZero() || r.Start.Before(base) {
			base = r.Start
		}
		if end := r.Start.Add(r.Dur).Sub(base); end > total {
			total = end
		}
	}

	rep := &Report{
		ID:    "X11",
		Title: fmt.Sprintf("Telemetry plane: TTFT attribution for one cliff fetch (8→0.2 Mbps at 15 ms, %d spans, %.0f ms total)", len(recs), total.Seconds()*1e3),
		Columns: []string{"Phase", "Chunk", "Level", "Start", "Dur", "Bytes",
			fmt.Sprintf("Waterfall (%.0f ms)", total.Seconds()*1e3)},
	}
	const width = 40
	events := 0
	for _, r := range recs {
		offset := r.Start.Sub(base)
		switch r.Name {
		case "transfer", "decode", "recompute", "manifest", "prefill", "queue":
			bytes := "-"
			if b := x11Attr(r, "bytes"); b != "" {
				bytes = b
			}
			lv := x11Attr(r, "level")
			if lv == "" {
				lv = "-"
			}
			ch := x11Attr(r, "chunk")
			if ch == "" {
				ch = "-"
			}
			rep.AddRow(r.Name, ch, lv,
				fmt.Sprintf("%.1f ms", offset.Seconds()*1e3),
				fmt.Sprintf("%.1f ms", r.Dur.Seconds()*1e3),
				bytes, x11Bar(offset, r.Dur, total, width))
		case "switch", "cancel", "corrupt-reject":
			events++
			detail := x11Attr(r, "level")
			for _, a := range r.Attrs {
				if a.Key == "bandwidth_bps" {
					if bps, ok := a.Value.(float64); ok {
						detail += " @" + metrics.FormatBandwidth(bps)
					}
				}
			}
			rep.AddRow("▸ "+r.Name, x11Attr(r, "chunk"), detail,
				fmt.Sprintf("%.1f ms", offset.Seconds()*1e3), "-", "-",
				x11Bar(offset, 0, total, width))
		}
	}
	rep.AddNote("the same span intervals produce the FetchReport's exclusive attribution — transfer %.1f ms + decode %.1f ms + recompute %.1f ms ≤ load %.1f ms — so the waterfall, the report and a Chrome trace_event export of this request cannot disagree; steering events (▸) are instants",
		frep.TransferTime.Seconds()*1e3, frep.DecodeTime.Seconds()*1e3,
		frep.RecomputeTime.Seconds()*1e3, frep.LoadTime.Seconds()*1e3)
	if events == 0 {
		rep.AddNote("no mid-stream steering fired this run — the cliff landed between decision points")
	}
	return rep, nil
}

// runX11CrossCheck replays one TTFT sample into both the live registry
// histogram (log-bucketed, no samples stored) and the offline
// order-statistic summary, and checks the streaming percentiles land
// within one histogram bucket of the exact ones — the bound the
// registry's §-style quantile exposition rests on.
func runX11CrossCheck() (*Report, error) {
	s, err := newX4Stack()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	store := storage.NewMemStore()
	if _, _, err := streamer.Publish(ctx, store, s.codec, s.model, "x11-ctx", s.tokens,
		streamer.PublishOptions{KV: s.kv}); err != nil {
		return nil, err
	}
	client, done, err := serveLoopback(store, false)
	if err != nil {
		return nil, err
	}
	defer done()

	reg := telemetry.NewRegistry()
	hist := reg.Histogram("cachegen_gateway_ttft_seconds", "admission to first output token")
	const n = 30
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		fch := &streamer.Fetcher{
			Source: client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner: streamer.Planner{Adapt: false, DefaultLevel: 1},
		}
		_, frep, err := fch.Fetch(ctx, "x11-ctx")
		if err != nil {
			return nil, err
		}
		hist.ObserveDuration(frep.LoadTime)
		samples = append(samples, frep.LoadTime.Seconds())
	}
	sum := metrics.Summarize(samples)

	rep := &Report{
		ID:      "X11",
		Title:   fmt.Sprintf("Telemetry plane: live registry vs offline summary over %d loopback fetch TTFTs", n),
		Columns: []string{"Quantile", "Live registry", "Offline Summarize", "Ratio", "Within 1 bucket"},
	}
	tol := telemetry.BucketFactor * telemetry.BucketFactor
	for _, q := range []struct {
		name          string
		live, offline float64
	}{
		{"P50", hist.Quantile(0.5), sum.P50()},
		{"P95", hist.Quantile(0.95), sum.P95},
		{"P99", hist.Quantile(0.99), sum.P99},
	} {
		ratio := 0.0
		if q.offline > 0 {
			ratio = q.live / q.offline
		}
		ok := ratio >= 1/tol && ratio <= tol
		verdict := "OK"
		if !ok {
			verdict = "FAIL"
		}
		rep.AddRow(q.name,
			fmt.Sprintf("%.2f ms", q.live*1e3),
			fmt.Sprintf("%.2f ms", q.offline*1e3),
			fmt.Sprintf("%.3f", ratio),
			verdict)
		if !ok {
			return nil, fmt.Errorf("harness X11: live %s %.4gs vs offline %.4gs: outside one-bucket tolerance ×%.3f",
				q.name, q.live, q.offline, tol)
		}
	}
	rep.AddNote("the registry stores 256 atomic buckets (4 per octave), not samples: its quantile is the geometric midpoint of the bucket holding the rank, so it can differ from the exact order statistic by at most one bucket factor squared (×%.3f)", tol)
	return rep, nil
}
