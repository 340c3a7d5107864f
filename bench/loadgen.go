package main

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/streamer"
)

// outcome classifies one request.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeFailed
	outcomeRejected
	outcomeTimedOut
)

// request is one generated arrival: which context, for which tenant, and
// (open loop) when it is due relative to the window's start.
type request struct {
	ctx    *benchContext // what the fetched KV is checked against
	id     string        // context id to fetch; "" means ctx.id
	tenant string
}

// sample is what the load generator keeps of one request.
type sample struct {
	ctx     *benchContext
	outcome outcome
	// ttft is Submit call → return in a closed loop and due time → return
	// in an open loop, so a stall is charged to every request it delayed.
	ttft time.Duration
	lag  time.Duration // open loop: how late the generator sent it

	key    string // per-chunk decision vector
	digest uint64 // of the KV Submit returned

	queueWait   time.Duration
	prefetchHit bool
	degraded    bool

	load, transfer, decode, recompute time.Duration
	wireBytes, wastedBytes, kvBytes   int64
	switches, cancels, corrupt        int
	chunks, textChunks, levelSum      int
	sources                           map[string]int
}

// errorsLogged caps how many request errors a run prints.
var errorsLogged atomic.Int32

// submit runs one request through the gateway and reduces the result.
// The digest is taken after the clock stops.
func submit(gw *gateway.Gateway, req request, slo time.Duration, start time.Time) sample {
	s := sample{ctx: req.ctx}
	id := req.id
	if id == "" {
		id = req.ctx.id
	}
	res, err := gw.Submit(context.Background(), gateway.Request{Tenant: req.tenant, ContextID: id, SLO: slo})
	s.ttft = time.Since(start)
	if err != nil && errorsLogged.Add(1) <= 5 {
		logf("request for %s did not complete: %v", id, err)
	}
	switch {
	case err == nil:
	case errors.Is(err, gateway.ErrRejected):
		s.outcome = outcomeRejected
		return s
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.outcome = outcomeTimedOut
		return s
	default:
		s.outcome = outcomeFailed
		return s
	}
	s.digest = kvDigest(res.KV)
	s.kvBytes = res.KV.SizeBytesFP16()
	s.queueWait = res.QueueWait
	s.prefetchHit = res.PrefetchHit
	s.degraded = res.DegradeStep > 0
	rep := res.Report
	s.key = decisionKey(rep.Decisions)
	s.load, s.transfer, s.decode, s.recompute = rep.LoadTime, rep.TransferTime, rep.DecodeTime, rep.RecomputeTime
	s.wireBytes = rep.BytesReceived
	s.switches, s.cancels, s.corrupt = rep.Switches, rep.Cancels, rep.CorruptRejected
	s.sources = map[string]int{}
	for _, d := range rep.Decisions {
		s.wastedBytes += d.Abandoned
		s.chunks++
		if d.Choice.Text {
			s.textChunks++
		} else {
			s.levelSum += int(d.Choice.Level)
		}
		s.sources[streamer.DecisionSource(d)]++
	}
	return s
}

// closedLoop is one client: the next request goes out when the previous
// one returns. before, when set, runs ahead of every request, outside its
// clock. It returns the samples and the span of time they cover.
func closedLoop(gw *gateway.Gateway, dur time.Duration, slo time.Duration,
	next func(i int) request, before func()) ([]sample, time.Duration) {

	var out []sample
	t0 := time.Now()
	for i := 0; time.Since(t0) < dur; i++ {
		if before != nil {
			before()
		}
		out = append(out, submit(gw, next(i), slo, time.Now()))
	}
	return out, time.Since(t0)
}

// openLoop sends request i at arrivals[i] after the start whether or not
// earlier ones have returned: the calling goroutine keeps the schedule
// (and draws each request through next at its due time), and each
// in-flight request blocks in Submit on a goroutine of its own. It
// returns once every request has completed.
func openLoop(gw *gateway.Gateway, arrivals []time.Duration, slo time.Duration, next func(i int) request) []sample {
	out := make([]sample, len(arrivals))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, at := range arrivals {
		due := t0.Add(at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		req := next(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = submit(gw, req, slo, due)
			out[i].lag = lag
		}()
	}
	wg.Wait()
	return out
}
