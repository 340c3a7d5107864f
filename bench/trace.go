package main

import (
	"sort"
	"time"

	"repro/internal/telemetry"
)

// Trace analysis. The gateway records one span tree per request
// (request → queue / fetch → manifest, transfer, decode, recompute /
// prefill); the wrappers in wrap.go add cluster.* children under "fetch"
// and storage.* roots. A span's self time is its duration minus the part
// its children cover; because transfers and decodes of one request
// overlap, every instant of a request is charged to exactly one phase, the
// busiest-resource-first order below, which is the same rule
// streamer.FetchReport's exclusive split uses.

// phases in charging order: an instant during which both a decode and a
// transfer were running is decode time.
var phases = []string{"decode", "recompute", "transfer", "manifest", "prefill", "queue"}

type interval struct{ start, end time.Time }

// traceStats is what the per-layer rows need from the span records.
type traceStats struct {
	requests    int     // completed request trees
	spansPerReq float64 // all records ÷ requests
	// Per completed request, in microseconds.
	selfUS     []float64            // request − (queue ∪ fetch ∪ prefill): the gateway's own time
	manifestUS []float64            // the manifest round trip
	exclUS     map[string][]float64 // phase → exclusive time
	coverage   []float64            // Σ exclusive phase time ÷ request duration
	// Samples of the wrapper spans, by name.
	byName         map[string][]time.Duration
	reclaimedBytes int64
}

func attr(r telemetry.SpanRecord, key string) (any, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

func analyseTrace(recs []telemetry.SpanRecord) *traceStats {
	ts := &traceStats{exclUS: map[string][]float64{}, byName: map[string][]time.Duration{}}
	children := map[uint64][]telemetry.SpanRecord{} // parent id → timed children
	var roots []telemetry.SpanRecord
	for _, r := range recs {
		if r.Dur == 0 {
			continue // instant event
		}
		switch {
		case r.Parent != 0:
			children[r.Parent] = append(children[r.Parent], r)
			if r.Name == spanClusterChunk || r.Name == spanClusterManifest || r.Name == spanClusterStream {
				ts.byName[r.Name] = append(ts.byName[r.Name], r.Dur)
			}
		case r.Name == "request":
			roots = append(roots, r)
		default: // storage.* roots
			ts.byName[r.Name] = append(ts.byName[r.Name], r.Dur)
			if v, ok := attr(r, "reclaimed_bytes"); ok {
				if n, ok := v.(int64); ok {
					ts.reclaimedBytes += n
				}
			}
		}
	}
	for _, root := range roots {
		if v, _ := attr(root, "outcome"); v != "completed" {
			continue
		}
		ts.requests++
		byPhase := map[string][]interval{}
		var top []interval // queue, fetch, prefill: what the gateway waited on
		for _, c := range children[root.ID] {
			iv := interval{c.Start, c.Start.Add(c.Dur)}
			top = append(top, iv)
			if c.Name != "fetch" {
				byPhase[c.Name] = append(byPhase[c.Name], iv)
				continue
			}
			for _, g := range children[c.ID] {
				byPhase[g.Name] = append(byPhase[g.Name], interval{g.Start, g.Start.Add(g.Dur)})
				if g.Name == "manifest" {
					ts.manifestUS = append(ts.manifestUS, us(g.Dur))
				}
			}
		}
		ts.selfUS = append(ts.selfUS, us(root.Dur-covered(top)))
		excl := exclusive(byPhase)
		var sum time.Duration
		for _, ph := range phases {
			ts.exclUS[ph] = append(ts.exclUS[ph], us(excl[ph]))
			sum += excl[ph]
		}
		ts.coverage = append(ts.coverage, ratio(float64(sum), float64(root.Dur)))
	}
	ts.spansPerReq = ratio(float64(len(recs)), float64(ts.requests))
	return ts
}

// covered returns the length of the union of the intervals.
func covered(ivs []interval) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	var end time.Time
	for _, iv := range ivs {
		if iv.start.After(end) {
			end = iv.start
		}
		if iv.end.After(end) {
			total += iv.end.Sub(end)
			end = iv.end
		}
	}
	return total
}

// exclusive sweeps the intervals' boundaries and charges every elementary
// segment to the first phase, in charging order, that was active in it.
func exclusive(byPhase map[string][]interval) map[string]time.Duration {
	var cuts []time.Time
	for _, ivs := range byPhase {
		for _, iv := range ivs {
			cuts = append(cuts, iv.start, iv.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	out := map[string]time.Duration{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if !hi.After(lo) {
			continue
		}
		for _, ph := range phases {
			if active(byPhase[ph], lo, hi) {
				out[ph] += hi.Sub(lo)
				break
			}
		}
	}
	return out
}

// active reports whether any interval covers the elementary segment
// [lo, hi), which by construction crosses no interval boundary.
func active(ivs []interval, lo, hi time.Time) bool {
	for _, iv := range ivs {
		if !iv.start.After(lo) && !iv.end.Before(hi) {
			return true
		}
	}
	return false
}
