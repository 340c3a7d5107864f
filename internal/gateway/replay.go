package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// ReplayOptions configures Replay.
type ReplayOptions struct {
	// Publisher is the publish side of the store (a cluster.ShardedStore
	// over the gateway's fleet, or any storage.Store). Required when the
	// source publishes contexts or schedules agentic sessions; a source
	// whose contexts are already published may omit it.
	Publisher storage.Store
	// Started, when set, is called once — after the trace's contexts are
	// published, immediately before the first arrival is scheduled. It is
	// the t=0 anchor a chaos schedule should start from, so fault offsets
	// line up with arrival offsets rather than with publish time.
	Started func()
}

// Replay validates the trace, publishes its contexts and replays its
// arrival schedule against the gateway, blocking until every session resolves.
// Arrival offsets are honoured against a shared t=0, so the same trace
// produces the same submission sequence every run — and lines up with a
// chaos schedule injected against the same instant. Cancelling ctx
// stops launching new arrivals and abandons the in-flight ones.
//
// Non-agentic arrivals replay like Workload sessions: Turns requests
// for the same context, each warm turn carrying the previous turn's KV
// as Resident. Agentic arrivals (AppendTokens > 0) run a
// gateway.Session: each turn appends the trace's synthesised tool
// output, so the published context grows mid-replay.
func Replay(ctx context.Context, g *Gateway, tr *workload.Trace, opts ReplayOptions) (*LoadReport, error) {
	if g == nil || tr == nil {
		return nil, errors.New("gateway: replay needs a gateway and a trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	agentic := false
	for _, a := range tr.ArrivalList {
		if a.AppendTokens > 0 {
			agentic = true
			break
		}
	}
	if opts.Publisher == nil && (len(tr.ContextList) > 0 || agentic) {
		return nil, fmt.Errorf("gateway: trace %q needs a publisher (it publishes contexts)", tr.TraceName)
	}
	for _, c := range tr.ContextList {
		if _, _, err := streamer.Publish(ctx, opts.Publisher, g.cfg.Codec, g.cfg.Model,
			c.ID, c.BuildTokens(), streamer.PublishOptions{}); err != nil {
			return nil, fmt.Errorf("gateway: trace %q: publishing context %q: %w", tr.TraceName, c.ID, err)
		}
	}

	rep := &LoadReport{Tenants: map[string]*TenantReport{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	if opts.Started != nil {
		opts.Started()
	}
	start := time.Now()

	for _, a := range tr.ArrivalList {
		if !wait(ctx, a.At-time.Since(start)) {
			break
		}
		rep.Sessions++
		wg.Add(1)
		go func(a workload.Arrival) {
			defer wg.Done()
			if a.AppendTokens > 0 {
				replayAgentic(ctx, g, opts.Publisher, a, rep, &mu)
			} else {
				replayChat(ctx, g, a, rep, &mu)
			}
		}(a)
	}
	wg.Wait()
	rep.Duration = time.Since(start)
	return rep, nil
}

// replayChat runs one non-agentic session: Turns fetches of the same
// context, warm turns riding the previous turn's KV.
func replayChat(ctx context.Context, g *Gateway, a workload.Arrival, rep *LoadReport, mu *sync.Mutex) {
	srng := rand.New(rand.NewSource(a.Seed))
	turns := a.Turns
	if turns < 1 {
		turns = 1
	}
	var resident *tensor.KV
	for turn := 1; turn <= turns; turn++ {
		if turn > 1 && !wait(ctx, workload.ExpDuration(srng, a.ThinkTime)) {
			return
		}
		res, err := g.Submit(ctx, Request{
			Tenant:       a.Tenant,
			ContextID:    a.ContextID,
			SuffixTokens: a.SuffixTokens,
			SLO:          a.SLO,
			Deadline:     a.Deadline,
			Resident:     resident,
		})
		account(rep, mu, a.Tenant, turn, res, err)
		if err != nil {
			return // a failed turn ends the session
		}
		resident = res.KV
	}
}

// replayAgentic runs one tool-using session through gateway.Session:
// the first turn creates and publishes the context, each later turn
// fetches warm and append-publishes the trace's synthesised tool
// output. Gateway-served turns (turn ≥ 2) are accounted; turn 1 never
// reaches the scheduler.
func replayAgentic(ctx context.Context, g *Gateway, pub storage.Store, a workload.Arrival, rep *LoadReport, mu *sync.Mutex) {
	s, err := g.NewSession(pub, a.Tenant, a.ContextID)
	if err != nil {
		account(rep, mu, a.Tenant, 1, nil, err)
		return
	}
	s.SLO = a.SLO
	s.Deadline = a.Deadline
	s.SuffixTokens = a.SuffixTokens
	srng := rand.New(rand.NewSource(a.Seed))
	turns := a.Turns
	if turns < 2 {
		turns = 2 // an agentic session needs at least one append turn
	}
	for turn := 1; turn <= turns; turn++ {
		if turn > 1 && !wait(ctx, workload.ExpDuration(srng, a.ThinkTime)) {
			return
		}
		tr, err := s.Turn(ctx, workload.TurnTokens(a.Seed, turn, a.AppendTokens))
		// Turn 1 is a publish, not a gateway request: it is accounted
		// only when it fails, so fault-induced publish failures stay
		// visible without diluting SLO rates with SLO-less completions.
		if turn > 1 || err != nil {
			var res *Result
			if tr != nil {
				res = tr.Result
			}
			account(rep, mu, a.Tenant, turn, res, err)
		}
		if err != nil {
			return
		}
	}
}

// account folds one turn's outcome into the run's totals and its
// tenant's account.
func account(rep *LoadReport, mu *sync.Mutex, tenant string, turn int, res *Result, err error) {
	mu.Lock()
	defer mu.Unlock()
	t := rep.Tenants[tenant]
	if t == nil {
		t = &TenantReport{LevelBytes: map[string]int64{}, Sources: map[string]int64{}}
		rep.Tenants[tenant] = t
	}
	rep.add(res, err)
	t.add(res, err)
	if err != nil || res == nil {
		return
	}
	t.TTFTs = append(t.TTFTs, res.TTFT)
	if turn > 1 {
		rep.WarmTurns++
		rep.WarmTTFTs = append(rep.WarmTTFTs, res.TTFT)
	}
	if res.Report != nil {
		t.addFetch(res.Report)
	}
}

// wait sleeps for d, returning early (false) when ctx is done.
func wait(ctx context.Context, d time.Duration) bool {
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
	return ctx.Err() == nil
}
