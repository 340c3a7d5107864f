package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// The gateway scenario (ISSUE 2): the serving frontend the paper measures
// against in §8 — many tenants' requests arriving open-loop (Poisson)
// against a fixed decode-slot pool, with the KV stream racing the queue.
// Numbers come from loopback sockets with a fixed modelled decode cost,
// so they show the scheduling mechanics (queueing collapse, fairness,
// prefetch overlap), not WAN magnitudes.

func init() {
	register("X5", "Extension: multi-tenant serving gateway (SLO scheduling, prefetch-while-queued)", runX5Gateway)
}

// x5DecodeCost is the fixed modelled decode-slot occupancy per request.
// Fixing it decouples the experiment's queueing behaviour from host
// speed; 2 ms × 2 slots caps service at ~1000 req/s when fetches hide in
// the queue.
const x5DecodeCost = 2 * time.Millisecond

// x5ChunkRTT is the simulated WAN round trip added per chunk (and meta)
// request: the storage fleet sits across a network, not on loopback. It
// makes the fetch cost deterministic across hosts — a context costs
// ~4 RTTs (meta + 3 chunks) ≈ 8 ms — so fetch-in-slot service time is
// ~10 ms/request (≈200 req/s over 2 slots) while prefetch-while-queued
// stays decode-bound (~1000 req/s).
const x5ChunkRTT = 2 * time.Millisecond

// wanSource adds the simulated RTT in front of every source round trip.
// The sleep runs in the fetching goroutine, so concurrent requests
// overlap their delays exactly as concurrent WAN fetches would.
type wanSource struct {
	src streamer.ChunkSource
	rtt time.Duration
}

func (w wanSource) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	time.Sleep(w.rtt)
	return w.src.GetManifest(ctx, id)
}

func (w wanSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	time.Sleep(w.rtt)
	return w.src.GetChunkData(ctx, hash)
}

// x5Stack is the published corpus: one small model/codec and a handful of
// contexts the tenants request.
type x5Stack struct {
	model    *llm.Model
	codec    *core.Codec
	contexts []string
}

func newX5Stack() (*x5Stack, error) {
	model, err := llm.New(llm.Config{
		Name: "gateway-x5", Layers: 4, KVChannels: 8, Channels: 8,
		Hidden: 64, Params: 1e8, Seed: 21,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = 64
	rng := rand.New(rand.NewSource(5))
	sample := make([]llm.Token, 256)
	for i := range sample {
		sample[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	bank, err := core.Train(cfg, []*tensor.KV{model.CalculateKV(sample)})
	if err != nil {
		return nil, err
	}
	return &x5Stack{model: model, codec: core.NewCodec(bank)}, nil
}

// publish stores nContexts small contexts (3 chunks of 64 tokens each)
// across the fleet.
func (s *x5Stack) publish(st storage.Store, nContexts int) error {
	rng := rand.New(rand.NewSource(6))
	s.contexts = nil
	for i := 0; i < nContexts; i++ {
		id := fmt.Sprintf("x5-ctx-%02d", i)
		tokens := make([]llm.Token, 192)
		for j := range tokens {
			tokens[j] = llm.Token(rng.Intn(llm.VocabSize))
		}
		if _, _, err := streamer.Publish(context.Background(), st, s.codec, s.model, id, tokens,
			streamer.PublishOptions{}); err != nil {
			return err
		}
		s.contexts = append(s.contexts, id)
	}
	return nil
}

// x5Run is one load point: a fleet, a gateway, and one workload.
type x5Run struct {
	nodes    int
	rate     float64
	requests int
	prefetch bool
	tenants  []workload.PoissonTenant
	weights  map[string]int
}

const x5SLO = 60 * time.Millisecond

// mixes for the sweep: an even 2-tenant split and a 3-tenant mix with a
// heavyweight tenant, both under the same SLO.
func x5Mixes(contexts []string) map[string][]workload.PoissonTenant {
	return map[string][]workload.PoissonTenant{
		"2 even": {
			{Name: "tenant-a", Share: 1, ContextIDs: contexts[:3], SLO: x5SLO},
			{Name: "tenant-b", Share: 1, ContextIDs: contexts[3:], SLO: x5SLO},
		},
		"3 skewed": {
			{Name: "gold", Share: 2, ContextIDs: contexts[:2], SLO: x5SLO},
			{Name: "silver", Share: 1, ContextIDs: contexts[2:4], SLO: x5SLO},
			{Name: "bronze", Share: 1, ContextIDs: contexts[4:], SLO: x5SLO},
		},
	}
}

func x5Weights(tenants []workload.PoissonTenant) map[string]int {
	w := map[string]int{}
	for _, t := range tenants {
		w[t.Name] = t.Share
	}
	return w
}

// run executes one load point and returns the report.
func (s *x5Stack) run(r x5Run) (*gateway.LoadReport, error) {
	replicas := 2
	if r.nodes == 1 {
		replicas = 1
	}
	fl, sharded, err := launchRing(r.nodes, replicas, 4<<20)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	if err := s.publish(sharded, 6); err != nil {
		return nil, err
	}
	pool := cluster.NewPool(sharded.Ring(), cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()

	g, err := gateway.New(gateway.Config{
		Slots:       2,
		QueueLimit:  4 * r.requests, // admission studied elsewhere; don't reject here
		Tenants:     r.weights,
		Prefetch:    r.prefetch,
		MaxPrefetch: 8,
		Source:      wanSource{src: pool, rtt: x5ChunkRTT},
		Codec:       s.codec,
		Model:       s.model,
		Device:      llm.A40x4(),
		Planner:     streamer.Planner{Adapt: true, DefaultLevel: 1, PriorBandwidth: netsim.Gbps(1)},
		DecodeTime:  func(int, int) time.Duration { return x5DecodeCost },
	})
	if err != nil {
		return nil, err
	}
	tr, err := workload.Poisson(r.rate, r.requests, r.tenants, 17)
	if err != nil {
		return nil, err
	}
	return gateway.Replay(context.Background(), g, tr, gateway.ReplayOptions{Offered: r.rate})
}

func x5Row(rep *gateway.LoadReport) (p50, p99 string, slo string, thpt string) {
	sum := metrics.Summarize(metrics.Seconds(rep.AllTTFTs()))
	return fmt.Sprintf("%.1f ms", sum.P50()*1e3),
		fmt.Sprintf("%.1f ms", sum.P99*1e3),
		fmt.Sprintf("%.0f%%", 100*rep.SLORate()),
		fmt.Sprintf("%.0f/s", rep.Throughput())
}

func runX5Gateway(f *Fixture) ([]*Report, error) {
	s, err := newX5Stack()
	if err != nil {
		return nil, err
	}
	// Context ids are stable across fleets (publish regenerates them), so
	// build the mixes from a fixed id list.
	ids := make([]string, 6)
	for i := range ids {
		ids[i] = fmt.Sprintf("x5-ctx-%02d", i)
	}
	mixes := x5Mixes(ids)

	sweep := &Report{
		ID:      "X5",
		Title:   "Serving gateway: throughput and tail TTFT vs arrival rate (2 decode slots, prefetch on)",
		Columns: []string{"Nodes", "Mix", "Rate", "Done", "T/O", "Thpt", "P50 TTFT", "P99 TTFT", "SLO met", "Load xfer/dec"},
	}
	for _, mixName := range []string{"2 even", "3 skewed"} {
		tenants := mixes[mixName]
		for _, rate := range []float64{150, 400} {
			rep, err := s.run(x5Run{
				nodes: 3, rate: rate, requests: 60, prefetch: true,
				tenants: tenants, weights: x5Weights(tenants),
			})
			if err != nil {
				return nil, err
			}
			p50, p99, slo, thpt := x5Row(rep)
			sweep.AddRow("3", mixName, fmt.Sprintf("%.0f/s", rate),
				fmt.Sprintf("%d/%d", rep.Completed, rep.Submitted),
				fmt.Sprintf("%d", rep.TimedOut), thpt, p50, p99, slo, gatewayBreakdown(rep))
		}
	}
	// One single-node point at the higher rate: the fleet-size axis.
	singleTenants := mixes["2 even"]
	rep, err := s.run(x5Run{
		nodes: 1, rate: 400, requests: 60, prefetch: true,
		tenants: singleTenants, weights: x5Weights(singleTenants),
	})
	if err != nil {
		return nil, err
	}
	p50, p99, slo, thpt := x5Row(rep)
	sweep.AddRow("1", "2 even", "400/s", fmt.Sprintf("%d/%d", rep.Completed, rep.Submitted),
		fmt.Sprintf("%d", rep.TimedOut), thpt, p50, p99, slo, gatewayBreakdown(rep))
	sweep.AddNote("open-loop Poisson arrivals over a simulated %v per-chunk WAN RTT; TTFT = admission → first token (queue wait + KV load + suffix prefill); SLO %v", x5ChunkRTT, x5SLO)
	sweep.AddNote("'Load xfer/dec' splits the cumulative KV-load time into transfer vs decode+recompute across all completed requests: which resource the fleet would have to scale")

	// Prefetch-while-queued benefit: same load, fetch overlapping the
	// queue vs fetch inside the decode slot.
	bench := &Report{
		ID:      "X5",
		Title:   "Serving gateway: prefetch-while-queued vs fetch-in-slot (3 nodes, 400/s offered)",
		Columns: []string{"Prefetch", "Done", "Thpt", "P50 TTFT", "P99 TTFT", "SLO met", "Prefetch hits"},
	}
	tenants := mixes["2 even"]
	for _, prefetch := range []bool{false, true} {
		rep, err := s.run(x5Run{
			nodes: 3, rate: 400, requests: 60, prefetch: prefetch,
			tenants: tenants, weights: x5Weights(tenants),
		})
		if err != nil {
			return nil, err
		}
		p50, p99, slo, thpt := x5Row(rep)
		label := "off (fetch in slot)"
		hits := "-"
		if prefetch {
			label = "on (fetch while queued)"
			hits = fmt.Sprintf("%d/%d", rep.PrefetchHits, rep.Completed)
		}
		bench.AddRow(label, fmt.Sprintf("%d/%d", rep.Completed, rep.Submitted),
			thpt, p50, p99, slo, hits)
	}
	bench.AddNote("without prefetch the decode slot is held for transfer + decode, so at this rate the queue grows and tail TTFT inflates; prefetch hides the stream inside queueing delay")
	return []*Report{sweep, bench}, nil
}

// gatewayBreakdown renders the fleet-wide KV-load time split (transfer vs
// decode+recompute) summed over every tenant's completed requests.
func gatewayBreakdown(rep *gateway.LoadReport) string {
	var transfer, compute time.Duration
	for _, ts := range rep.Tenants {
		transfer += ts.TransferTime
		compute += ts.DecodeTime + ts.RecomputeTime
	}
	return fmt.Sprintf("%.0f/%.0f ms", transfer.Seconds()*1e3, compute.Seconds()*1e3)
}
