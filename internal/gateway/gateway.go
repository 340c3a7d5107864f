// Package gateway implements the multi-tenant serving frontend in front
// of the KV-cache delivery path: it admits per-tenant requests (context
// id + prompt + TTFT SLO), queues them with weighted-round-robin fairness
// across tenants (FIFO within a tenant), schedules them onto a fixed pool
// of decode slots — the GPU abstraction, costed through the internal/llm
// prefill model — and, critically, starts streaming a request's KV chunks
// from the cluster while the request is still waiting in the queue, so
// transmission overlaps queueing delay and the streamer's per-chunk level
// choices react to the SLO budget already burned (§5.3 applied at the
// serving frontend rather than per connection).
//
// The lifecycle of one request:
//
//	Submit ──admission──▶ tenant queue ──WRR──▶ decode slot ──▶ Result
//	             │             │                    │
//	          reject        prefetch            wait KV, then
//	        (queue full)  (streamer.Fetcher     hold the slot for
//	                       races the queue)     the prefill time
//
// Cancellation (an expired deadline or an abandoned caller) propagates
// down through streamer.Fetcher's chunk loop and cluster.Pool's replica
// sweep, releases the decode slot, and stops in-flight chunk fetches.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// Submission errors. Submit wraps them, so test with errors.Is.
var (
	// ErrRejected is returned when admission control turns a request away
	// because the queue bound is reached.
	ErrRejected = errors.New("gateway: queue full")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("gateway: closed")
)

// DefaultSuffixTokens is the prompt-suffix length assumed when a request
// does not specify one (matching the streamer's simulator).
const DefaultSuffixTokens = 32

// Request is one tenant request: load this context's KV cache and prefill
// the prompt suffix against it within the TTFT objective.
type Request struct {
	// Tenant identifies the paying tenant for fair queueing and stats.
	Tenant string
	// ContextID names the published context to stream.
	ContextID string
	// SuffixTokens is the user-prompt length prefilled in the decode slot
	// after the context KV is resident (0 = DefaultSuffixTokens).
	SuffixTokens int
	// SLO is the TTFT objective. It parameterises the streamer's per-chunk
	// adaptation (time already spent queueing counts against it) and the
	// gateway's SLO-attainment accounting. Zero = no objective.
	SLO time.Duration
	// Deadline, if positive, hard-abandons the request that long after
	// admission: it is dequeued (or its slot released), its in-flight chunk
	// fetches are cancelled, and Submit returns the context error.
	Deadline time.Duration
	// Resident, if non-nil, is a KV prefix of the context the caller
	// already holds (a session resuming after earlier turns). The fetch
	// streams only the cold suffix chunks (streamer.FetchFrom): a warm
	// turn costs one manifest round trip plus whatever the last append
	// added, not the whole history.
	Resident *tensor.KV
}

// Result describes one completed request.
type Result struct {
	// KV is the reassembled context cache, ready for generate_with_kv.
	KV *tensor.KV
	// TTFT is admission → first output token (queue wait + KV load +
	// suffix prefill, with load overlapping the wait when prefetching).
	TTFT time.Duration
	// QueueWait is admission → decode-slot grant.
	QueueWait time.Duration
	// DecodeTime is the modelled slot occupancy for the suffix prefill.
	DecodeTime time.Duration
	// PrefetchHit reports that the KV was fully resident when the slot was
	// granted — the fetch hid entirely inside the queue wait.
	PrefetchHit bool
	// Seq is the order in which this request was granted a slot (1-based),
	// global across tenants; fairness tests read it.
	Seq uint64
	// SLOMet reports TTFT ≤ SLO (true when no SLO was set).
	SLOMet bool
	// Report is the streamer's per-chunk account of the fetch. Its
	// LoadTime is anchored at admission, not at fetch start.
	Report *streamer.FetchReport
	// DegradeStep is the degradation-ladder rung this request was served
	// at: 0 = configured quality, each step caps quality one encoding
	// level coarser; past the coarsest level cost picks between it and
	// text. Always 0 with Config.Degrade off.
	DegradeStep int
}

// Config assembles a Gateway.
type Config struct {
	// Slots is the number of concurrent decode slots (the GPU pool). ≥ 1.
	Slots int
	// QueueLimit bounds the number of queued (not yet scheduled) requests
	// across all tenants; admission rejects beyond it. 0 = unbounded.
	QueueLimit int
	// Tenants maps tenant → weighted-round-robin weight. Unlisted tenants
	// get weight 1; queues are created on first use.
	Tenants map[string]int
	// Prefetch starts a request's KV stream while it queues, so
	// transmission overlaps queueing delay. Off, the fetch runs inside the
	// decode slot (the no-overlap baseline).
	Prefetch bool
	// MaxPrefetch bounds concurrent background prefetches. 0 = 4×Slots;
	// negative = unbounded. A request granted a slot bypasses the bound
	// (its fetch is foreground work from then on).
	MaxPrefetch int
	// Degrade enables the graceful-degradation ladder: under pressure
	// (queue depth approaching QueueLimit, SLO budget mostly burned) a
	// request is given a rung, and the rung means the same with or
	// without Sched (streamer.Terms.Rung): quality capped at
	// DefaultLevel+rung, and past the coarsest level the cheaper of that
	// level and text recompute — load shifts onto the local GPU only
	// when that actually prices cheaper — before admission control ever
	// starts shedding. Off, requests stream at the configured quality
	// regardless of pressure.
	Degrade bool

	// Source serves metadata and chunks: a transport.Client or a
	// cluster.Pool over the ring.
	Source streamer.ChunkSource
	// Codec decodes chunk bitstreams.
	Codec *core.Codec
	// Model recomputes text-fallback chunks and anchors cost estimates.
	Model *llm.Model
	// Device is the decode-slot hardware model.
	Device llm.Device
	// Planner is the per-chunk adaptation policy template; each request
	// gets a copy with its own SLO and ladder rung. Set Planner.Adapt for
	// SLO-aware adaptation. Without Sched it is the policy (Algorithm 1
	// over the one fleet link); with Sched it still supplies DefaultLevel
	// and Adapt.
	Planner streamer.Planner
	// PipelineDepth is the streamer's transfer-pipeline depth per request:
	// up to this many chunk transfers in flight while decode proceeds in
	// order (0 = streamer.DefaultPipelineDepth).
	PipelineDepth int

	// Sched, when set, swaps the price table Algorithm 1 decides over:
	// every request gets a sched.Plan pricing each chunk across all
	// sources (payload cache, colocated disk, remote and cross-region
	// fleet nodes, GPU recompute and peer-resident KV) instead of the
	// Planner's one link, the decode-slot pool feeds the recompute cost
	// live, and repeat decisions pass a hysteresis band. The decision
	// procedure and the meaning of a rung are the same either way. Nil
	// keeps the Planner: the one-source front end, and the reference arm
	// the scheduler is measured against. A scheduler serves one gateway:
	// its bound slot tracker is the gateway's count of slot grants.
	Sched *sched.Scheduler
	// Recorder, when set, captures every submission (admitted or not) as
	// a replayable workload arrival (cachegen-gateway -capture-trace).
	Recorder *TraceRecorder

	// DecodeTime overrides the modelled slot-occupancy cost (context
	// tokens, suffix tokens) → duration. Nil uses the llm cost model's
	// marginal prefill time on Device. Harness runs inject a scaled cost.
	DecodeTime func(contextTokens, suffixTokens int) time.Duration

	// Chaos, when set, receives the fetchers' integrity-rejection ticks
	// (chaos.Counters.CorruptFramesRejected), so a chaos run's
	// fleet-wide tally includes rejections from fetches that then failed.
	Chaos *chaos.Counters

	// Telemetry, when set, receives the gateway's live instruments
	// (admission counters, queue-depth gauges, TTFT and queue-wait
	// histograms — aggregate and per-tenant). Nil costs nothing: every
	// instrument is nil-safe.
	Telemetry *telemetry.Registry
	// Tracer, when set, records one span tree per request — admission,
	// queue wait, fetch (with the streamer's per-chunk transfer/decode
	// children), prefill — exportable as JSON-lines or Chrome
	// trace_event JSON. Nil disables tracing with zero allocation.
	Tracer *telemetry.Tracer
}

// pending states: dispatch and abandonment race on a CAS so a request is
// either granted a slot or withdrawn, never both.
const (
	stateQueued int32 = iota
	stateRunning
	stateAbandoned
)

type fetchOutcome struct {
	kv     *tensor.KV
	report *streamer.FetchReport
	err    error
}

// pending is one admitted request moving through the gateway.
type pending struct {
	req         Request
	ctx         context.Context
	span        *telemetry.Span // root request span (nil when untraced)
	admitted    time.Time
	state       atomic.Int32
	seq         uint64        // slot-grant sequence, set by the dispatcher
	granted     chan struct{} // closed when a decode slot is granted
	fetched     chan fetchOutcome
	prefetching bool
	degrade     int         // ladder rung, set at fetch start (before p.fetched)
	plan        *sched.Plan // scheduler plan (nil on the greedy path)
}

// tenantQueue is one tenant's FIFO plus its smooth-WRR state.
type tenantQueue struct {
	name    string
	weight  int
	current int // smooth-WRR accumulator
	fifo    []*pending
}

// Gateway is the serving frontend. Safe for concurrent use; Submit blocks
// until its request completes, times out, or is rejected, so callers run
// it from one goroutine per in-flight request (Workload.Run does).
type Gateway struct {
	cfg         Config
	prefetchSem chan struct{} // nil = unbounded

	// mu guards the scheduler state: queues, WRR accumulators, the
	// decode-slot grants, and the queued-depth bound admission reads.
	mu     sync.Mutex
	queues map[string]*tenantQueue
	order  []string // tenants in first-seen order (deterministic WRR)
	// slots is the one count of decode-slot grants. The gateway acquires
	// and releases it only under mu, so freeLocked is exact there; the
	// scheduler reads its occupancy lock-free to price recompute.
	slots     *llm.SlotTracker
	queued    int
	maxQueued int
	grantSeq  uint64
	closed    bool

	admitted     atomic.Uint64
	rejected     atomic.Uint64
	timedOut     atomic.Uint64
	completed    atomic.Uint64
	failed       atomic.Uint64
	prefetchHits atomic.Uint64
	degraded     atomic.Uint64

	tele gwInstruments
}

// gwInstruments is the gateway's slice of the live metrics registry.
// Every field is nil when Config.Telemetry is nil; every method on a
// nil instrument is a no-op, so the serving path never branches on
// whether telemetry is wired.
type gwInstruments struct {
	reg       *telemetry.Registry // kept for lazy per-tenant histograms
	ttft      *telemetry.Histogram
	queueWait *telemetry.Histogram
	// prefillLate is how long after its modelled duration the prefill
	// timer returned: the scheduling delay a busy process adds to every
	// request, which the prefill span's modelled duration leaves out.
	prefillLate *telemetry.Histogram
	bandwidth   *telemetry.Gauge
	// decodeLanes tracks coder-lane decodes in flight across every live
	// fetch — the fleet's instantaneous decode parallelism.
	decodeLanes *telemetry.Gauge
}

// register wires the gateway's instruments into reg (nil-safe).
func (g *Gateway) register(reg *telemetry.Registry) {
	g.tele = gwInstruments{
		reg:       reg,
		ttft:      reg.Histogram("cachegen_gateway_ttft_seconds", "admission to first output token"),
		queueWait: reg.Histogram("cachegen_gateway_queue_wait_seconds", "admission to decode-slot grant"),
		prefillLate: reg.Histogram("cachegen_gateway_prefill_late_seconds",
			"prefill timer's return past the modelled prefill duration"),
		bandwidth: reg.Gauge("cachegen_gateway_bandwidth_bps", "live estimate from the most recent fetch frames"),
		decodeLanes: reg.Gauge("cachegen_codec_decode_lanes_inflight",
			"coder-lane decodes currently running or queued on the codec worker pool"),
	}
	if reg == nil {
		return
	}
	// One accounting, two exposures: the outcome series read the atomics
	// Stats reads.
	for _, c := range []struct {
		name, help string
		n          *atomic.Uint64
	}{
		{"cachegen_gateway_admitted_total", "requests past admission control", &g.admitted},
		{"cachegen_gateway_rejected_total", "requests rejected at the queue bound", &g.rejected},
		{"cachegen_gateway_timed_out_total", "requests abandoned on deadline", &g.timedOut},
		{"cachegen_gateway_completed_total", "requests served to first token", &g.completed},
		{"cachegen_gateway_failed_total", "requests whose fetch errored", &g.failed},
		{"cachegen_gateway_prefetch_hits_total", "completions whose KV was resident at slot grant", &g.prefetchHits},
		{"cachegen_gateway_degraded_total", "requests served below configured quality by the degradation ladder", &g.degraded},
	} {
		n := c.n
		reg.GaugeFunc(c.name, c.help, func() float64 { return float64(n.Load()) })
	}
	// The codec keeps its own totals; elems ÷ busy seconds is the live
	// per-core decode throughput, the bench ledger's
	// core.decode_mb_per_s_1core in elements.
	reg.GaugeFunc("cachegen_codec_decode_busy_seconds_total", "time codec workers spent decoding token groups", func() float64 {
		busy, _ := g.cfg.Codec.DecodeTotals()
		return busy.Seconds()
	})
	reg.GaugeFunc("cachegen_codec_decoded_elems_total", "K and V elements decoded", func() float64 {
		_, elems := g.cfg.Codec.DecodeTotals()
		return float64(elems)
	})
	// The codec's two-class slot scheduler: how much loads and publishes
	// wait for each other on the shared coder budget.
	slot := func(name, help string, read func(core.SlotTotals) float64, labels ...string) {
		reg.GaugeFunc(name, help, func() float64 { return read(g.cfg.Codec.SlotTotals()) }, labels...)
	}
	slot("cachegen_codec_loads_in_flight", "loads registered with the codec, reserving coder slots from publishes",
		func(t core.SlotTotals) float64 { return float64(t.LoadsInFlight) })
	slot("cachegen_codec_slot_wait_seconds_total", "time queued for a coder slot",
		func(t core.SlotTotals) float64 { return t.LoadWait.Seconds() }, "class", "load")
	slot("cachegen_codec_slot_wait_seconds_total", "time queued for a coder slot",
		func(t core.SlotTotals) float64 { return t.PublishWait.Seconds() }, "class", "publish")
	slot("cachegen_codec_publish_yields_total", "coder slots a publish batch handed over at a block boundary",
		func(t core.SlotTotals) float64 { return float64(t.PublishYields) })
	slot("cachegen_codec_publish_exempt_total", "publish batches loads kept out past the wait bound",
		func(t core.SlotTotals) float64 { return float64(t.PublishExempt) })
	slot("cachegen_codec_publish_blocks_beside_loads_total", "publish blocks begun, within the slot bound, while a load was in flight",
		func(t core.SlotTotals) float64 { return float64(t.PublishBlocksBesideLoads) })
	reg.GaugeFunc("cachegen_gateway_queue_depth", "requests queued, not yet scheduled", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.queued)
	})
	reg.GaugeFunc("cachegen_gateway_free_slots", "idle decode slots", func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.freeLocked())
	})
}

// New validates the configuration and returns a ready gateway.
func New(cfg Config) (*Gateway, error) {
	if cfg.Slots < 1 {
		return nil, fmt.Errorf("gateway: need at least 1 decode slot, got %d", cfg.Slots)
	}
	if cfg.Source == nil || cfg.Codec == nil || cfg.Model == nil {
		return nil, errors.New("gateway: config needs Source, Codec and Model")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, fmt.Errorf("gateway: %w", err)
	}
	for t, w := range cfg.Tenants {
		if w < 1 {
			return nil, fmt.Errorf("gateway: tenant %q has non-positive weight %d", t, w)
		}
	}
	g := &Gateway{cfg: cfg, queues: map[string]*tenantQueue{}}
	if cfg.Sched != nil {
		g.slots = cfg.Sched.BindSlots(cfg.Slots)
	} else {
		g.slots = llm.NewSlotTracker(cfg.Slots)
	}
	g.register(cfg.Telemetry)
	bound := cfg.MaxPrefetch
	if bound == 0 {
		bound = 4 * cfg.Slots
	}
	if bound > 0 {
		g.prefetchSem = make(chan struct{}, bound)
	}
	return g, nil
}

// Close stops admission: subsequent Submits fail with ErrClosed. Requests
// already admitted run to completion.
func (g *Gateway) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

// Submit admits, queues, schedules and serves one request, blocking until
// it completes or fails. Cancelling ctx (or exceeding req.Deadline)
// withdraws the request wherever it is — queued, fetching, or decoding —
// releasing its slot and stopping its chunk fetches.
func (g *Gateway) Submit(ctx context.Context, req Request) (*Result, error) {
	if req.Tenant == "" {
		return nil, errors.New("gateway: request has no tenant")
	}
	if req.ContextID == "" {
		return nil, errors.New("gateway: request has no context id")
	}
	if req.SuffixTokens <= 0 {
		req.SuffixTokens = DefaultSuffixTokens
	}
	// Capture before admission: a replayable trace reproduces the offered
	// load, including submissions the queue bound turned away.
	g.cfg.Recorder.Record(req, time.Now())
	reqCtx, cancel := g.requestContext(ctx, req)
	defer cancel()

	// One span tree per request. The root span rides in the request
	// context, so the streamer's per-chunk transfer/decode phases land
	// under it; each terminal path stamps the outcome attribute (end).
	var rootSpan *telemetry.Span
	if tr := g.cfg.Tracer; tr != nil {
		reqCtx, rootSpan = tr.StartRequest(reqCtx, "request",
			telemetry.Attr{Key: "tenant", Value: req.Tenant},
			telemetry.Attr{Key: "context", Value: req.ContextID})
		defer rootSpan.End()
	}

	p := &pending{
		req:      req,
		ctx:      reqCtx,
		span:     rootSpan,
		admitted: time.Now(),
		granted:  make(chan struct{}),
		fetched:  make(chan fetchOutcome, 1),
	}

	// Admission + enqueue + a dispatch attempt, atomically.
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	if g.cfg.QueueLimit > 0 && g.queued >= g.cfg.QueueLimit {
		g.mu.Unlock()
		return nil, g.end(p, &g.rejected, "rejected", ErrRejected)
	}
	q := g.queueLocked(req.Tenant)
	q.fifo = append(q.fifo, p)
	g.queued++
	if g.queued > g.maxQueued {
		g.maxQueued = g.queued
	}
	g.admitted.Add(1)
	g.dispatchLocked()
	g.mu.Unlock()

	if g.cfg.Prefetch {
		p.prefetching = true
		go g.runFetch(p, true)
	}

	// Wait for a decode slot, watching for the prefetch to fail early (a
	// request whose stream already errored must withdraw rather than
	// occupy queue space and burn a slot grant to report it) and for the
	// deadline to expire.
	fetchCh := p.fetched
	for waiting := true; waiting; {
		select {
		case <-p.granted:
			waiting = false
		case out := <-fetchCh:
			if out.err != nil && p.state.CompareAndSwap(stateQueued, stateAbandoned) {
				g.mu.Lock()
				g.queued--
				g.mu.Unlock()
				if p.ctx.Err() != nil {
					return nil, g.timeout(p, "while queued")
				}
				return nil, g.end(p, &g.failed, "failed", out.err)
			}
			// KV ready (or the slot was granted concurrently): put the
			// outcome back for serve and just wait for the grant.
			p.fetched <- out
			fetchCh = nil
		case <-reqCtx.Done():
			if p.state.CompareAndSwap(stateQueued, stateAbandoned) {
				g.mu.Lock()
				g.queued--
				g.mu.Unlock()
				return nil, g.timeout(p, "while queued")
			}
			// Lost the race: the dispatcher granted the slot concurrently.
			// Fall through and release it on the normal path.
			<-p.granted
			waiting = false
		}
	}
	return g.serve(p)
}

// requestContext derives the per-request context carrying the deadline
// and the soft SLO budget. The budget rides the context all the way into
// cluster.Pool, where it shrinks per-attempt timeouts as it burns — a
// request with 80ms of SLO left no longer grants one replica a full
// fixed timeout.
func (g *Gateway) requestContext(ctx context.Context, req Request) (context.Context, context.CancelFunc) {
	if req.SLO > 0 {
		ctx = resilience.WithBudget(ctx, req.SLO)
	}
	if req.Deadline > 0 {
		return context.WithTimeout(ctx, req.Deadline)
	}
	return context.WithCancel(ctx)
}

// queueLocked returns the tenant's queue, creating it on first use.
func (g *Gateway) queueLocked(tenant string) *tenantQueue {
	q, ok := g.queues[tenant]
	if !ok {
		w := g.cfg.Tenants[tenant]
		if w < 1 {
			w = 1
		}
		q = &tenantQueue{name: tenant, weight: w}
		g.queues[tenant] = q
		g.order = append(g.order, tenant)
	}
	return q
}

// dispatchLocked grants free decode slots to queued requests, one WRR
// pick at a time. pickLocked returns requests already transitioned to
// running, so every pick consumes a slot.
func (g *Gateway) dispatchLocked() {
	for g.freeLocked() > 0 {
		p := g.pickLocked()
		if p == nil {
			return
		}
		g.queued--
		g.slots.Acquire()
		g.grantSeq++
		p.seq = g.grantSeq
		close(p.granted)
	}
}

// freeLocked is the idle decode-slot count.
func (g *Gateway) freeLocked() int { return g.slots.Total() - g.slots.Busy() }

// pickLocked pops the next request under smooth weighted round-robin
// across tenants with queued work (nginx-style: each pick every contender
// gains its weight, the richest wins and pays the total). FIFO within a
// tenant. Ties break by tenant arrival order, so scheduling is
// deterministic for a fixed submission order.
func (g *Gateway) pickLocked() *pending {
	for {
		// Tenants whose queues drained are dropped as we scan: scheduler
		// state (and the scan itself) stays proportional to tenants with
		// queued work, not every tenant id ever seen. WRR credit
		// therefore lives only while a tenant has a backlog, which is
		// when it matters. Withdrawn heads are dropped here too, before
		// any WRR accounting.
		var contenders []*tenantQueue
		total := 0
		live := g.order[:0]
		for _, name := range g.order {
			q := g.queues[name]
			for len(q.fifo) > 0 && q.fifo[0].state.Load() == stateAbandoned {
				q.fifo = q.fifo[1:]
			}
			if len(q.fifo) == 0 {
				delete(g.queues, name)
				continue
			}
			live = append(live, name)
			contenders = append(contenders, q)
			total += q.weight
		}
		g.order = live
		if len(contenders) == 0 {
			return nil
		}
		var best *tenantQueue
		for _, q := range contenders {
			if best == nil || q.current+q.weight > best.current+best.weight {
				best = q
			}
		}
		// Claim the winner's head before charging any WRR credit:
		// abandonment races this pick lock-free, and a corpse caught in
		// the window must not cost its tenant (or anyone) a turn.
		p := best.fifo[0]
		if !p.state.CompareAndSwap(stateQueued, stateRunning) {
			best.fifo = best.fifo[1:]
			continue // rescan; no credits were touched
		}
		for _, q := range contenders {
			q.current += q.weight
		}
		best.current -= total
		best.fifo = best.fifo[1:]
		return p
	}
}

// releaseSlot returns a decode slot and immediately re-dispatches.
func (g *Gateway) releaseSlot() {
	g.mu.Lock()
	g.slots.Release()
	g.dispatchLocked()
	g.mu.Unlock()
}

// degradeStep computes the ladder rung for one request at fetch start:
// how many encoding levels below configured quality it should stream at.
// Pressure comes from two independent signals — the queue filling toward
// the admission bound (the fleet is not keeping up) and the request's
// own SLO budget already mostly burned (this request is not keeping up).
// Each contributes up to two rungs, so sustained pressure walks quality
// down gradually instead of jumping straight to the floor.
func (g *Gateway) degradeStep(p *pending) int {
	if !g.cfg.Degrade {
		return 0
	}
	step := 0
	g.mu.Lock()
	queued, free := g.queued, g.freeLocked()
	g.mu.Unlock()
	if g.cfg.QueueLimit > 0 {
		qfrac := float64(queued) / float64(g.cfg.QueueLimit)
		if qfrac >= 0.5 {
			step++
		}
		if qfrac >= 0.9 {
			step++
		}
	} else if free == 0 && queued > g.cfg.Slots {
		// No admission bound to measure against: a backlog deeper than
		// the slot pool with nothing idle is the coarse equivalent.
		step++
	}
	if p.req.SLO > 0 {
		if rem, ok := resilience.Remaining(p.ctx); ok {
			frac := float64(rem) / float64(p.req.SLO)
			if frac < 0.5 {
				step++
			}
			if frac < 0.2 {
				step++
			}
		}
	}
	return step
}

// fetcher builds the per-request streamer, anchored at admission time so
// the planner sees queueing delay as budget already spent.
func (g *Gateway) fetcher(p *pending) *streamer.Fetcher {
	pl := g.cfg.Planner
	if p.req.SLO > 0 {
		pl.SLO = p.req.SLO
	}
	step := g.degradeStep(p)
	if step > 0 {
		p.degrade = step
		g.degraded.Add(1)
		p.span.SetAttr("degrade_step", step)
	}
	// The rung means the same under either policy (streamer.Terms.Rung):
	// a quality cap Algorithm 1 optimises under, and past the coarsest
	// level text recompute wins only when it actually prices cheaper.
	pl.Rung = step
	f := &streamer.Fetcher{
		Source:         g.cfg.Source,
		Codec:          g.cfg.Codec,
		Model:          g.cfg.Model,
		Device:         g.cfg.Device,
		Planner:        pl,
		Start:          p.admitted,
		PipelineDepth:  g.cfg.PipelineDepth,
		Chaos:          g.cfg.Chaos,
		BandwidthGauge: g.tele.bandwidth,
		LanesGauge:     g.tele.decodeLanes,
	}
	if g.cfg.Sched != nil {
		slo := pl.SLO
		if !pl.Adapt {
			slo = 0 // pinned quality, only the source floats
		}
		p.plan = g.cfg.Sched.NewPlan(sched.Request{
			ContextID:    p.req.ContextID,
			SLO:          slo,
			DefaultLevel: pl.DefaultLevel,
			Rung:         step,
		})
		f.Policy = p.plan
		f.Local = g.cfg.Sched.Cache()
		f.LocalStore = g.cfg.Sched.DiskStore()
		f.Peers = g.cfg.Sched.PeerSource()
	}
	return f
}

// runFetch streams the request's KV and delivers the outcome. Background
// prefetches respect the prefetch bound until the request is granted a
// slot, at which point the fetch is foreground work and proceeds
// regardless.
func (g *Gateway) runFetch(p *pending, background bool) {
	if background && g.prefetchSem != nil {
		select {
		case g.prefetchSem <- struct{}{}:
			// The token covers the fetch only while the request is still
			// queued: a slot grant turns the fetch into foreground work,
			// and holding the token past it would starve other queued
			// requests of their prefetch at exactly the saturation point
			// prefetching exists for.
			done := make(chan struct{})
			defer close(done)
			go func() {
				select {
				case <-p.granted:
				case <-done:
				}
				<-g.prefetchSem
			}()
		case <-p.granted:
		case <-p.ctx.Done():
			p.fetched <- fetchOutcome{err: p.ctx.Err()}
			return
		}
	}
	// A child "fetch" span groups the streamer's per-chunk phases and
	// separates a prefetch that started while queued from the slot phase.
	ctx := p.ctx
	var fsp *telemetry.Span
	if p.span != nil {
		fsp = p.span.Child("fetch", telemetry.Attr{Key: "background", Value: background})
		ctx = telemetry.With(ctx, fsp)
	}
	kv, report, err := g.fetcher(p).FetchFrom(ctx, p.req.ContextID, p.req.Resident)
	fsp.End()
	if p.plan != nil {
		// Close the plan: per-source delivery counters, the closing
		// bandwidth estimate, and — on success — resident-index
		// registration so peer gateways can serve this context's KV.
		g.cfg.Sched.FinishPlan(p.plan, kv, report)
	}
	p.fetched <- fetchOutcome{kv: kv, report: report, err: err}
}

// serve runs the decode-slot phase: wait for the KV (prefetched or
// fetched now), hold the slot for the modelled prefill, account the TTFT.
func (g *Gateway) serve(p *pending) (*Result, error) {
	defer g.releaseSlot()
	grant := time.Now()
	// The queue phase is over; record it as a span (admission → grant)
	// and feed the live histogram from the same interval.
	p.span.Record("queue", p.admitted, grant.Sub(p.admitted))
	g.tele.queueWait.ObserveDuration(grant.Sub(p.admitted))

	var out fetchOutcome
	prefetchHit := false
	if p.prefetching {
		select {
		case out = <-p.fetched:
			// KV (or its error) was already resident when the slot opened.
			prefetchHit = out.err == nil
		default:
			select {
			case out = <-p.fetched:
			case <-p.ctx.Done():
				return nil, g.timeout(p, "waiting for KV stream")
			}
		}
	} else {
		g.runFetch(p, false)
		out = <-p.fetched
	}
	if out.err != nil {
		if p.ctx.Err() != nil {
			return nil, g.timeout(p, "fetching")
		}
		return nil, g.end(p, &g.failed, "failed", out.err)
	}

	decode := g.decodeCost(out.kv.Tokens, p.req.SuffixTokens)
	prefillStart := time.Now()
	timer := time.NewTimer(decode)
	select {
	case <-timer.C:
	case <-p.ctx.Done():
		timer.Stop()
		return nil, g.timeout(p, "decoding")
	}
	// The span keeps the modelled duration (the trace's attribution reads
	// it); how late the timer returned is an attribute and a histogram.
	late := max(time.Since(prefillStart)-decode, 0)
	g.tele.prefillLate.ObserveDuration(late)
	if p.span != nil {
		p.span.Record("prefill", prefillStart, decode,
			telemetry.Attr{Key: "late_us", Value: float64(late) / float64(time.Microsecond)})
	}

	ttft := time.Since(p.admitted)
	sloMet := p.req.SLO <= 0 || ttft <= p.req.SLO
	g.end(p, &g.completed, "completed", nil)
	if prefetchHit {
		// Counted at completion, not at grant, so PrefetchHits never
		// exceeds Completed in reports.
		g.prefetchHits.Add(1)
	}
	g.tele.ttft.ObserveDuration(ttft)
	// The live per-tenant view. Registration is idempotent, so the
	// registry lookup doubles as the cache.
	g.tele.reg.Histogram("cachegen_gateway_ttft_seconds", "admission to first output token",
		"tenant", p.req.Tenant).ObserveDuration(ttft)
	if p.span != nil {
		p.span.SetAttr("ttft_ms", float64(ttft)/float64(time.Millisecond))
		p.span.SetAttr("prefetch_hit", prefetchHit)
		p.span.SetAttr("slo_met", sloMet)
	}
	return &Result{
		KV:          out.kv,
		TTFT:        ttft,
		QueueWait:   grant.Sub(p.admitted),
		DecodeTime:  decode,
		PrefetchHit: prefetchHit,
		Seq:         p.seq,
		SLOMet:      sloMet,
		Report:      out.report,
		DegradeStep: p.degrade,
	}, nil
}

// decodeCost is the modelled decode-slot occupancy: the marginal prefill
// of the prompt suffix given the context KV resident.
func (g *Gateway) decodeCost(contextTokens, suffixTokens int) time.Duration {
	if g.cfg.DecodeTime != nil {
		return g.cfg.DecodeTime(contextTokens, suffixTokens)
	}
	return g.cfg.Model.Config().MarginalPrefillTime(contextTokens, suffixTokens, g.cfg.Device, 1)
}

// end accounts one terminal outcome — rejected, failed, timed out or
// completed: it bumps the outcome's one count, stamps the outcome on the
// request span, and wraps err (if any) with the request's identity.
func (g *Gateway) end(p *pending, count *atomic.Uint64, outcome string, err error) error {
	count.Add(1)
	p.span.SetAttr("outcome", outcome)
	if err == nil {
		return nil
	}
	return fmt.Errorf("gateway: tenant %q context %q: %w", p.req.Tenant, p.req.ContextID, err)
}

// timeout accounts one abandoned request and returns its error.
func (g *Gateway) timeout(p *pending, where string) error {
	p.span.SetAttr("where", where)
	return g.end(p, &g.timedOut, "timed_out", fmt.Errorf("abandoned %s: %w", where, p.ctx.Err()))
}

// Stats snapshots the gateway's lifetime counters. A run's per-tenant
// account is its LoadReport (or the caller's Results).
type Stats struct {
	Admitted, Rejected, TimedOut, Completed, Failed uint64
	// PrefetchHits counts completions whose KV was fully resident when
	// their slot was granted (the fetch hid entirely in the queue wait).
	PrefetchHits uint64
	// Degraded counts requests the degradation ladder served below
	// configured quality (always 0 with Config.Degrade off).
	Degraded uint64
	// QueueDepth is the current queued-request count; MaxQueueDepth its
	// high-water mark.
	QueueDepth, MaxQueueDepth int
	// FreeSlots is the current free decode-slot count.
	FreeSlots int
}

// Stats returns a snapshot of the gateway's counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	depth, maxDepth, free := g.queued, g.maxQueued, g.freeLocked()
	g.mu.Unlock()
	return Stats{
		Admitted:      g.admitted.Load(),
		Rejected:      g.rejected.Load(),
		TimedOut:      g.timedOut.Load(),
		Completed:     g.completed.Load(),
		Failed:        g.failed.Load(),
		PrefetchHits:  g.prefetchHits.Load(),
		Degraded:      g.degraded.Load(),
		QueueDepth:    depth,
		MaxQueueDepth: maxDepth,
		FreeSlots:     free,
	}
}
