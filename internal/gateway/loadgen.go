package gateway

import (
	"context"
	"errors"
	"time"

	"repro/internal/streamer"
)

// Outcomes partitions submitted turn requests: Completed, Rejected,
// TimedOut and Failed sum to Submitted.
type Outcomes struct {
	Submitted, Completed, Rejected, TimedOut, Failed int
	// SLOMet counts completions within their SLO; PrefetchHits counts
	// completions whose KV was resident at slot grant.
	SLOMet, PrefetchHits int
}

// add counts one submission's outcome.
func (o *Outcomes) add(res *Result, err error) {
	o.Submitted++
	switch {
	case err == nil:
		o.Completed++
		if res != nil && res.SLOMet {
			o.SLOMet++
		}
		if res != nil && res.PrefetchHit {
			o.PrefetchHits++
		}
	case errors.Is(err, ErrRejected):
		o.Rejected++
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		o.TimedOut++
	default:
		o.Failed++
	}
}

// SLORate returns SLOMet/Completed (0 with no completions).
func (o *Outcomes) SLORate() float64 {
	if o.Completed == 0 {
		return 0
	}
	return float64(o.SLOMet) / float64(o.Completed)
}

// LoadReport aggregates one Replay run.
type LoadReport struct {
	// Offered is the configured arrival rate (sessions/s).
	Offered float64
	// Outcomes totals the run's turn requests. A session abandons its
	// remaining turns after a failed turn.
	Outcomes
	// Sessions counts generated arrivals; WarmTurns counts completed
	// turns ≥ 2 (served with a Resident prefix).
	Sessions, WarmTurns int
	// Tenants is each tenant's account of the run.
	Tenants map[string]*TenantReport
	// WarmTTFTs are the completed warm turns' TTFTs, across tenants.
	WarmTTFTs []time.Duration
	// Duration is first arrival → last completion.
	Duration time.Duration
}

// TenantReport is one tenant's account of a run, folded from its turns'
// Results and their streamer reports; the byte, time and source fields
// sum over completed fetches.
type TenantReport struct {
	Outcomes
	// TTFTs are the completed requests' TTFTs, in completion order.
	TTFTs []time.Duration
	// TransferTime, DecodeTime and RecomputeTime split the cumulative
	// KV-load time into network transfer, decode and text recompute.
	TransferTime, DecodeTime, RecomputeTime time.Duration
	// Bytes is the payload moved for the tenant; LevelBytes splits it by
	// delivered configuration ("L0", "text", …), cancel waste included.
	Bytes      int64
	LevelBytes map[string]int64
	// Bandwidth is the live estimate from the tenant's most recent
	// completed fetch, bits per second (0 before any completion).
	Bandwidth float64
	// Switches and Cancels count mid-stream steering events.
	Switches, Cancels int
	// CorruptRejected counts payloads rejected on integrity grounds.
	CorruptRejected int
	// Sources counts delivered chunks per source class ("ram", "disk",
	// "remote", "xregion", "recompute", "peer").
	Sources map[string]int64
}

// addFetch folds one completed fetch's streamer report into the account.
func (t *TenantReport) addFetch(r *streamer.FetchReport) {
	t.TransferTime += r.TransferTime
	t.DecodeTime += r.DecodeTime
	t.RecomputeTime += r.RecomputeTime
	t.Bytes += r.BytesReceived
	t.Switches += r.Switches
	t.Cancels += r.Cancels
	t.CorruptRejected += r.CorruptRejected
	if r.Bandwidth > 0 {
		t.Bandwidth = r.Bandwidth
	}
	for lv, n := range r.LevelBytes {
		t.LevelBytes[lv] += n
	}
	for i := range r.Decisions {
		t.Sources[streamer.DecisionSource(r.Decisions[i])]++
	}
}

// EffectiveBandwidth is the tenant's byte-weighted average delivery
// rate: payload moved over cumulative transfer time.
func (t *TenantReport) EffectiveBandwidth() float64 {
	if t.TransferTime <= 0 {
		return 0
	}
	return float64(t.Bytes) * 8 / t.TransferTime.Seconds()
}

// Throughput returns completed requests per second of wall time.
func (r *LoadReport) Throughput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Duration.Seconds()
}

// AllTTFTs flattens the per-tenant TTFT samples.
func (r *LoadReport) AllTTFTs() []time.Duration {
	var out []time.Duration
	for _, t := range r.Tenants {
		out = append(out, t.TTFTs...)
	}
	return out
}

// Sources sums the tenants' delivered chunks per source class.
func (r *LoadReport) Sources() map[string]int64 {
	out := map[string]int64{}
	for _, t := range r.Tenants {
		for src, n := range t.Sources {
			out[src] += n
		}
	}
	return out
}
