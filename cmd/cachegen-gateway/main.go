// Command cachegen-gateway runs the multi-tenant serving frontend
// against a local delivery ring: it launches N storage nodes, publishes
// per-tenant contexts across them, and drives an open-loop Poisson
// workload through a gateway.Gateway — admission control, weighted-fair
// queueing across tenants, a fixed decode-slot pool, and KV prefetch
// racing the queue. It prints per-tenant TTFT distributions (P50/P99),
// SLO attainment, gateway counters, and the fleet's aggregate RAM-tier
// stats, then exits. The defaults are a short mixed-tenant burst that
// still queues.
//
// Instead of the Poisson generator, -workload-trace replays a named
// scenario ("rag-burst", "agentic", "longdoc-qa", "flash-crowd"); -chaos
// arms a fault schedule (node kills, partitions, slow disks, bandwidth
// cliffs, wire corruption) against the live fleet while either workload
// runs. A run is a function of its flags and -seed.
//
// Each request is priced by the fleet-wide min-TTFT chunk scheduler.
//
// Usage:
//
//	cachegen-gateway
//	cachegen-gateway -nodes 4 -slots 4 -rate 300 -requests 200 \
//	    -tenants gold:4,silver:2,bronze:1 -slo 150ms
//	cachegen-gateway -workload-trace rag-burst -chaos "kill@150ms+450ms"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/workload"
)

type tenantSpec struct {
	name   string
	weight int
}

// parseTenants parses "gold:4,silver:2,bronze:1" (weight defaults to 1).
func parseTenants(s string) ([]tenantSpec, error) {
	var out []tenantSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, ":")
		spec := tenantSpec{name: strings.TrimSpace(name), weight: 1}
		if spec.name == "" {
			return nil, fmt.Errorf("empty tenant name in %q", s)
		}
		if hasWeight {
			w, err := strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || w < 1 {
				return nil, fmt.Errorf("tenant %q has bad weight %q", spec.name, weightStr)
			}
			spec.weight = w
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, errors.New("no tenants specified")
	}
	return out, nil
}

func main() {
	nodes := flag.Int("nodes", 3, "storage nodes in the local ring")
	replicas := flag.Int("replicas", 2, "replication factor (copies per chunk)")
	ramMB := flag.Int("ram-cache-mb", 64, "per-node RAM tier budget in MB (0 = disabled)")
	slots := flag.Int("slots", 2, "decode slots (concurrent prefills the GPU pool admits)")
	queueLimit := flag.Int("queue-limit", 64, "max queued requests before admission rejects (0 = unbounded)")
	prefetch := flag.Bool("prefetch", true, "stream KV chunks while requests wait in the queue")
	maxPrefetch := flag.Int("max-prefetch", 0, "concurrent background prefetch bound (0 = 4x slots, <0 = unbounded)")
	pipelineDepth := flag.Int("pipeline-depth", 4, "chunk transfers in flight per request while decode proceeds in order")
	probeInterval := flag.Duration("probe-interval", 250*time.Millisecond, "active health-probe cycle for suspect/dead nodes, a dead node's way back into routing (<=0 = 250ms)")
	hedge := flag.Bool("hedge", true, "start a chunk fetch's failover to the next replica early, past the first node's adaptive P99 latency")
	degrade := flag.Bool("degrade", true, "step requests down quality levels (to text at the floor) under queue or SLO-budget pressure instead of shedding")
	tenantsFlag := flag.String("tenants", "gold:4,silver:2,bronze:1", "tenant list as name:weight,... (weight = WRR share and traffic share)")
	bwTrace := flag.String("bandwidth-trace", "", "per-node egress bandwidth trace as RATE[:DUR],... (e.g. 200Mbps:1s,40Mbps); exercises mid-stream adaptation")
	rate := flag.Float64("rate", 18, "offered load in requests/second (open-loop Poisson)")
	requests := flag.Int("requests", 50, "total requests to generate")
	slo := flag.Duration("slo", 500*time.Millisecond, "per-request TTFT objective")
	deadline := flag.Duration("deadline", 0, "hard abandon time per request (0 = none)")
	turns := flag.Int("turns", 2, "turns per session (>1 = multi-turn chat mix: warm turns reuse the previous turn's KV as a resident prefix)")
	think := flag.Duration("think", 20*time.Millisecond, "mean think time between a session's turns (exponential)")
	nContexts := flag.Int("contexts", 2, "published contexts per tenant")
	tokens := flag.Int("tokens", 800, "tokens per context (with -workload-trace: per codec-bank training context)")
	modelName := flag.String("model", "Mistral-7B", "model for the published contexts")
	channels := flag.Int("channels", 16, "synthesised KV channels")
	seed := flag.Int64("seed", 1, "workload seed")
	traceFlag := flag.String("workload-trace", "", "replay a named workload scenario (rag-burst, agentic, longdoc-qa, flash-crowd) instead of the Poisson generator")
	chaosFlag := flag.String("chaos", "", "fault schedule armed at workload start, as class@offset[+heal][:param];... (e.g. \"kill@500ms+1s; corrupt@0s:0.25\")")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /debug metrics+pprof exposition on this address (e.g. :9100; empty = disabled)")
	traceOut := flag.String("trace-out", "", "write the request traces here at exit (.jsonl = JSON-lines, else Chrome trace_event JSON for Perfetto)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-gateway: ")
	if *version {
		fmt.Println("cachegen-gateway " + telemetry.Version)
		return
	}
	if *nodes < 1 || *slots < 1 {
		log.Fatal("-nodes and -slots must be at least 1")
	}
	if *replicas > *nodes {
		log.Printf("capping -replicas %d to fleet size %d", *replicas, *nodes)
		*replicas = *nodes
	}
	specs, err := parseTenants(*tenantsFlag)
	if err != nil {
		log.Fatal(err)
	}

	// A trace brings its own tenants and contexts: the gateway's tenant
	// weights come from the trace's arrival schedule (uniform), and
	// Replay publishes the trace's contexts itself.
	var trace *workload.Trace
	if *traceFlag != "" {
		trace, err = workload.Resolve(*traceFlag, *seed)
		if err != nil {
			log.Fatal(err)
		}
		specs = specs[:0]
		seen := map[string]bool{}
		for _, a := range trace.ArrivalList {
			if !seen[a.Tenant] {
				seen[a.Tenant] = true
				specs = append(specs, tenantSpec{name: a.Tenant, weight: 1})
			}
		}
	}
	drill, err := chaos.NewDrill(*chaosFlag, *seed)
	if err != nil {
		log.Fatal(err)
	}

	// Model, codec, bank — one per LLM (§5.2).
	cfg, err := llm.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	published := 0
	if trace == nil {
		published = *nContexts * len(specs)
	}
	log.Printf("training codec bank for %s...", cfg.Name)
	stack, err := dataset.TrainStack(cfg.WithChannels(*channels), 2, published, *tokens)
	if err != nil {
		log.Fatal(err)
	}
	model, codec := stack.Model, stack.Codec

	// Telemetry plane: one registry shared by every component of this
	// process's fleet, one tracer for the request span trees. Both stay
	// nil (free) unless their flag asks for them.
	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" || *telemetryAddr != "" {
		tracer = telemetry.NewTracer(0)
	}

	// Launch the ring.
	srvOpts := []transport.ServerOption{transport.WithTelemetry(reg)}
	if *bwTrace != "" {
		tr, err := netsim.ParseTrace(*bwTrace)
		if err != nil {
			log.Fatal(err)
		}
		srvOpts = append(srvOpts, transport.WithEgressTrace(tr))
		log.Printf("replaying egress bandwidth trace %q on every node", *bwTrace)
	}
	// Every node is a chaos.LocalFleet node — its store behind the
	// slow-disk shim, its RAM tier over that — so a -chaos schedule can
	// kill, restart, partition, slow or corrupt it mid-run.
	fl := &chaos.LocalFleet{}
	defer fl.Close()
	stores, err := fl.LaunchNodes(*nodes, int64(*ramMB)<<20, reg, srvOpts...)
	if err != nil {
		log.Fatal(err)
	}
	ring := cluster.NewRing(*replicas, 0)
	sharded, err := cluster.NewShardedStore(ring, stores)
	if err != nil {
		log.Fatal(err)
	}

	// Publish per-tenant contexts (the Poisson path; a trace's contexts
	// are published by Replay).
	bg := context.Background()
	profiles := make([]workload.PoissonTenant, 0, len(specs))
	weights := map[string]int{}
	next := 0
	for _, spec := range specs {
		p := workload.PoissonTenant{
			Name: spec.name, Share: spec.weight,
			SLO: *slo, Deadline: *deadline,
			Turns: *turns, ThinkTime: *think,
		}
		if trace == nil {
			for j := 0; j < *nContexts; j++ {
				id := fmt.Sprintf("%s-%02d", spec.name, j)
				if _, _, err := streamer.Publish(bg, sharded, codec, model, id, stack.Contexts[next].Tokens, streamer.PublishOptions{}); err != nil {
					log.Fatal(err)
				}
				next++
				p.ContextIDs = append(p.ContextIDs, id)
			}
			log.Printf("tenant %s: weight %d, %d contexts of ~%d tokens", spec.name, spec.weight, *nContexts, *tokens)
		}
		profiles = append(profiles, p)
		weights[spec.name] = spec.weight
	}

	// Gateway over the fleet.
	counters := &chaos.Counters{}
	counters.Register(reg)
	pool := cluster.NewPool(ring,
		cluster.WithTelemetry(reg),
		cluster.WithResilience(resilience.Config{ProbeInterval: *probeInterval}),
		cluster.WithHedging(*hedge))
	defer pool.Close()
	fl.OnHeal = pool.Invalidate

	// The unified chunk scheduler prices every chunk across all sources,
	// reading node health from the pool's resilience layer and placement
	// from the ring.
	schd := sched.New(sched.Options{
		ID:         "gateway-0",
		Locator:    ring,
		Resilience: pool.Resilience(),
		Telemetry:  reg,
	})

	// Recompute is priced on llm.A40x4(), which on this toy model costs
	// microseconds per chunk, so the scheduler serves nearly every chunk
	// as text and decodes almost no bitstream: a default run ends with a
	// source mix such as "recompute 50". ROADMAP item 3(b) is to price
	// recompute the way the benchmark does.
	gw, err := gateway.New(gateway.Config{
		Slots:       *slots,
		QueueLimit:  *queueLimit,
		Tenants:     weights,
		Prefetch:    *prefetch,
		MaxPrefetch: *maxPrefetch,

		PipelineDepth: *pipelineDepth,
		Degrade:       *degrade,
		Sched:         schd,
		Source:        pool,
		Codec:         codec,
		Model:         model,
		Device:        llm.A40x4(),
		Planner:       streamer.Planner{Adapt: true, DefaultLevel: 1},
		Chaos:         counters,
		Telemetry:     reg,
		Tracer:        tracer,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *telemetryAddr != "" {
		dbg, err := telemetry.ServeDebug(*telemetryAddr, reg, tracer)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("telemetry exposition on http://%s/debug/metrics", dbg.Addr())
	}

	// Both workload paths arm the chaos schedule at their arrival
	// clock's t=0, so fault offsets line up with arrival offsets.
	armChaos := func() {
		if drill == nil {
			return
		}
		log.Printf("arming chaos schedule %q (seed %d)", *chaosFlag, *seed)
		if err := drill.Start(fl, counters); err != nil {
			log.Fatal(err)
		}
	}

	var rep *gateway.LoadReport
	if trace != nil {
		log.Printf("replaying trace %q: %d contexts, %d arrivals over %v across %d tenants (%d nodes, %d slots)...",
			trace.TraceName, len(trace.ContextList), len(trace.ArrivalList), trace.Duration().Round(time.Millisecond),
			len(specs), *nodes, *slots)
		rep, err = gateway.Replay(bg, gw, trace, gateway.ReplayOptions{Publisher: sharded, Started: armChaos})
	} else {
		log.Printf("driving %d requests at %.0f/s across %d tenants (%d nodes, %d slots, prefetch %v)...",
			*requests, *rate, len(specs), *nodes, *slots, *prefetch)
		poisson, perr := workload.Poisson(*rate, *requests, profiles, *seed)
		if perr != nil {
			log.Fatal(perr)
		}
		rep, err = gateway.Replay(bg, gw, poisson, gateway.ReplayOptions{Started: armChaos})
	}
	if err != nil {
		log.Fatal(err)
	}
	if err := drill.Finish(); err != nil {
		log.Printf("chaos: %v", err)
	}

	// Report.
	st := gw.Stats()
	log.Printf("run: %d sessions, %d turn requests submitted, %d completed, %d rejected, %d timed out, %d failed in %v (%.0f req/s)",
		rep.Sessions, rep.Submitted, rep.Completed, rep.Rejected, rep.TimedOut, rep.Failed,
		rep.Duration.Round(time.Millisecond), rep.Throughput())
	log.Printf("SLO %v met by %.0f%% of completions; %d/%d prefetch hits; peak queue depth %d",
		*slo, 100*rep.SLORate(), st.PrefetchHits, rep.Completed, st.MaxQueueDepth)
	if rep.WarmTurns > 0 {
		warm := metrics.Summarize(metrics.Seconds(rep.WarmTTFTs))
		log.Printf("warm turns: %d served against a resident prefix, P50 TTFT %.1f ms / P99 %.1f ms",
			rep.WarmTurns, warm.P50()*1e3, warm.P99*1e3)
	}
	names := make([]string, 0, len(rep.Tenants))
	for name := range rep.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := rep.Tenants[name]
		sum := metrics.Summarize(metrics.Seconds(ts.TTFTs))
		log.Printf("tenant %-8s done %3d/%3d  TTFT p50 %6.1fms  p99 %6.1fms  max %6.1fms  SLO %3.0f%%  load xfer/dec/rec %.0f/%.0f/%.0fms",
			name, ts.Completed, ts.Submitted, sum.P50()*1e3, sum.P99*1e3, sum.Max*1e3, 100*ts.SLORate(),
			ts.TransferTime.Seconds()*1e3, ts.DecodeTime.Seconds()*1e3, ts.RecomputeTime.Seconds()*1e3)
		corrupt := ""
		if ts.CorruptRejected > 0 {
			corrupt = fmt.Sprintf(", %d corrupt payloads rejected", ts.CorruptRejected)
		}
		log.Printf("  %-8s %s moved (eff %s, live est %s), %d switches / %d cancels, by level %v%s",
			"", metrics.FormatBytes(ts.Bytes), metrics.FormatBandwidth(ts.EffectiveBandwidth()),
			metrics.FormatBandwidth(ts.Bandwidth), ts.Switches, ts.Cancels, ts.LevelBytes, corrupt)
	}
	if *ramMB > 0 {
		agg := fl.CacheStats()
		log.Printf("fleet RAM tier: %d hits, %d misses (%.0f%% hit rate), %d evictions, %s resident",
			agg.Hits, agg.Misses, 100*agg.HitRate(), agg.Evictions, metrics.FormatBytes(agg.Bytes))
	}
	ps := pool.Stats()
	amp := "-"
	if ps.Requests > 0 {
		amp = fmt.Sprintf("%.3f", float64(ps.Attempts)/float64(ps.Requests))
	}
	log.Printf("pool: %d dials, %d failovers, %d open connections, %d requests / %d attempts (amplification %s)",
		ps.Dials, ps.Failovers, ps.OpenConns, ps.Requests, ps.Attempts, amp)
	rs := pool.Resilience().Stats()
	log.Printf("resilience: %d probes (%d failed), %d deaths, %d recoveries, %d hedges (%d wins), retry tokens %.1f (%d spent, %d denied)",
		rs.Probes, rs.ProbeFailures, rs.Deaths, rs.Recoveries, rs.Hedges, rs.HedgeWins,
		rs.RetryTokens, rs.RetriesSpent, rs.RetriesDenied)
	if st.Degraded > 0 {
		log.Printf("degradation ladder: %d requests served at reduced quality under pressure", st.Degraded)
	}
	if sources := rep.Sources(); len(sources) > 0 {
		srcs := make([]string, 0, len(sources))
		for src := range sources {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		parts := make([]string, 0, len(srcs))
		for _, src := range srcs {
			parts = append(parts, fmt.Sprintf("%s %d", src, sources[src]))
		}
		log.Printf("scheduler: chunks by source: %s", strings.Join(parts, ", "))
	}
	if snap := counters.Snapshot(); !snap.Zero() {
		log.Printf("chaos: %s", snap.String())
	}
	if *traceOut != "" {
		if err := tracer.WriteFile(*traceOut); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d span records to %s (dropped %d beyond the ring)", tracer.Len(), *traceOut, tracer.Dropped())
	}
}
