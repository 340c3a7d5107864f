package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// The fixed rig. These are constants, not flags: a benchmark whose shape
// can be tuned per run measures nothing comparable.
const (
	// bankSeed seeds the two codec-bank training contexts. The bank is
	// profiled once per LLM, offline (§5.2), so it does not follow -seed:
	// payload sizes then differ between seeds only through the contexts.
	bankSeed        = 0xCAC4E6E
	bankTrainToks   = 600
	modelledPrefill = 5 * time.Millisecond

	// benchDeviceFLOPS prices text recompute for the scheduler: an eighth of
	// the paper's 4×A40 testbed, ≈1.56 ms/token for Mistral-7B.
	// Rig trap 2: the scheduler sends a chunk as text whenever recomputing
	// everything left fits the SLO, because text is lossless. The LLM
	// simulator recomputes at ≈70 µs/token (32 channels, 2 cores), cheaper
	// than any link that keeps a request network-bound, so at its true
	// price every chunk of every request here goes to "recompute" and the
	// run measures the simulator (llm.A40x4() does the same to
	// `cachegen-gateway -demo`). At this price recomputing even the
	// shortest context (400 tokens, 624 ms) fits none of the SLOs used
	// here, and sched.src_recompute_ratio shows a drift back.
	benchDeviceFLOPS = 1e13
)

// benchDevice is the one device every scheduler workload prices with.
func benchDevice() llm.Device {
	d := llm.A40x4()
	d.Name = "bench"
	d.FLOPS = benchDeviceFLOPS
	return d
}

// constPrefill is rig trap 1: GatewayConfig.Device also sets the
// decode-slot sleep, so a "thin" device makes TTFT mostly time.Timer.
// Every workload holds the slot for the same constant instead.
func constPrefill(int, int) time.Duration { return modelledPrefill }

// benchContext is one published context and everything needed to check a
// fetch of it: the exact tokens and the lossless KV.
type benchContext struct {
	id     string
	tokens []llm.Token
	kv     *tensor.KV
}

func randTokens(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

// inputs are a workload's seeded inputs, generated once per run before
// any set-up is timed: computing KV is the LLM's job, not the delivery
// system's, so it is outside setup_s and reported as
// llm.calculate_kv_ktok_per_s.
type inputs struct {
	model    *llm.Model
	trainKVs []*tensor.KV
	contexts []*benchContext
	kvTokens int           // tokens run through the simulator
	kvTime   time.Duration // time that took
}

func newInputs(channels, trainTokens int) *inputs {
	in := &inputs{model: llm.MustNew(llm.Mistral7B().WithChannels(channels))}
	rng := rand.New(rand.NewSource(bankSeed))
	for i := 0; i < 2; i++ {
		in.trainKVs = append(in.trainKVs, in.calculate(randTokens(rng, trainTokens)))
	}
	return in
}

func (in *inputs) calculate(tokens []llm.Token) *tensor.KV {
	t0 := time.Now()
	kv := in.model.CalculateKV(tokens)
	in.kvTime += time.Since(t0)
	in.kvTokens += len(tokens)
	return kv
}

// extend computes the KV of prefix+suffix given the prefix's KV.
func (in *inputs) extend(prefix *tensor.KV, suffix []llm.Token) (*tensor.KV, error) {
	t0 := time.Now()
	part, err := in.model.ExtendKV(prefix, prefix.Tokens, suffix)
	in.kvTime += time.Since(t0)
	in.kvTokens += len(suffix)
	if err != nil {
		return nil, err
	}
	return tensor.ConcatTokens(prefix, part)
}

func (in *inputs) add(id string, tokens []llm.Token, kv *tensor.KV) {
	in.contexts = append(in.contexts, &benchContext{id: id, tokens: tokens, kv: kv})
}

// addDocs adds n independent contexts of the given length.
func (in *inputs) addDocs(rng *rand.Rand, n, tokens int) {
	for i := 0; i < n; i++ {
		toks := randTokens(rng, tokens)
		in.add(fmt.Sprintf("doc-%d", i), toks, in.calculate(toks))
	}
}

// fleetSpec describes the storage side of a rig.
type fleetSpec struct {
	nodes, replicas int
	fileStore       bool  // FileStore under a temp dir instead of MemStore
	ramTierBytes    int64 // per-node CachingStore budget; 0 = no RAM tier
	hedging         bool
}

type fleetNode struct {
	addr    string
	srv     *transport.Server
	caching *storage.CachingStore
}

// fleet is N in-process storage nodes on loopback plus the publish-side
// ShardedStore and the fetch-side Pool over the same ring.
type fleet struct {
	nodes   []*fleetNode
	ring    *cluster.Ring
	sharded *cluster.ShardedStore
	pool    *cluster.Pool
	dir     string
	serving sync.WaitGroup
}

// launchFleet starts the nodes. reg and tracer are nil for an untraced
// run; with a tracer every node's store is wrapped in a tracedStore.
func launchFleet(spec fleetSpec, outDir string, reg *telemetry.Registry, tracer *telemetry.Tracer) (*fleet, error) {
	fl := &fleet{ring: cluster.NewRing(spec.replicas, 0)}
	ok := false
	defer func() {
		if !ok {
			fl.close()
		}
	}()
	if spec.fileStore {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "filestore-")
		if err != nil {
			return nil, err
		}
		fl.dir = dir
	}
	stores := map[string]storage.Store{}
	for i := 0; i < spec.nodes; i++ {
		var st storage.Store = storage.NewMemStore()
		if spec.fileStore {
			fs, err := storage.NewFileStore(filepath.Join(fl.dir, fmt.Sprintf("node-%d", i)))
			if err != nil {
				return nil, err
			}
			st = fs
		}
		nd := &fleetNode{}
		if spec.ramTierBytes > 0 {
			nd.caching = storage.NewCachingStore(st, spec.ramTierBytes)
			st = nd.caching
		}
		if tracer != nil {
			st = &tracedStore{Store: st, tracer: tracer}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		nd.addr = ln.Addr().String()
		nd.srv = transport.NewServer(st, transport.WithTelemetry(reg))
		fl.serving.Add(1)
		go func() {
			defer fl.serving.Done()
			_ = nd.srv.Serve(ln) // returns net.ErrClosed on close
		}()
		fl.nodes = append(fl.nodes, nd)
		stores[nd.addr] = st
	}
	sharded, err := cluster.NewShardedStore(fl.ring, stores)
	if err != nil {
		return nil, err
	}
	fl.sharded = sharded
	fl.pool = cluster.NewPool(fl.ring,
		cluster.WithTelemetry(reg),
		cluster.WithHedging(spec.hedging),
		cluster.WithResilience(resilience.Config{}))
	ok = true
	return fl, nil
}

// close stops the pool and the nodes, waits for their accept loops and
// removes the FileStore directory.
func (fl *fleet) close() {
	if fl.pool != nil {
		fl.pool.Close()
	}
	for _, nd := range fl.nodes {
		nd.srv.Close()
	}
	fl.serving.Wait()
	if fl.dir != "" {
		os.RemoveAll(fl.dir)
	}
}

func (fl *fleet) cacheStats() storage.CacheStats {
	var agg storage.CacheStats
	for _, nd := range fl.nodes {
		if nd.caching != nil {
			agg.Add(nd.caching.Stats())
		}
	}
	return agg
}

// trainCodec trains the bank on the fixed training contexts.
func trainCodec(in *inputs) (*core.Codec, error) {
	bank, err := core.Train(core.DefaultConfig(), in.trainKVs)
	if err != nil {
		return nil, err
	}
	return core.NewCodec(bank), nil
}

// publish stores a context with its precomputed KV, so the simulator
// never sits inside a timed write.
func publish(st storage.Store, codec *core.Codec, model *llm.Model, c *benchContext) error {
	_, _, err := streamer.Publish(context.Background(), st, codec, model, c.id, c.tokens,
		streamer.PublishOptions{KV: c.kv})
	return err
}
