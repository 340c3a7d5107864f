package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// The small live stacks the extension cells (X7, X10, X12, X13) run
// over loopback sockets: an in-process ring, two trained model/codec
// pairs, and the report helpers they share. Their shapes, seeds and
// corpora are fixed, so the cells' checks and rows stay comparable
// across changes; the model names keep the ids of the cells that first
// used them.

// launchRing launches n in-process nodes over fresh MemStores (each with
// a RAM tier of cacheBytes when that is above zero) in one
// chaos.LocalFleet, places them on a ring with the given replication, and
// returns the fleet and the publish-side sharded store over the nodes'
// served stores. The ring is the sharded store's.
func launchRing(n, replicas int, cacheBytes int64) (*chaos.LocalFleet, *cluster.ShardedStore, error) {
	fl := &chaos.LocalFleet{}
	stores, err := fl.LaunchNodes(n, cacheBytes, nil)
	var sharded *cluster.ShardedStore
	if err == nil {
		sharded, err = cluster.NewShardedStore(cluster.NewRing(replicas, 0), stores)
	}
	if err != nil {
		fl.Close()
		return nil, nil, err
	}
	return fl, sharded, nil
}

// contextStack is a 6-layer model, its trained codec, and one 512-token
// context (8 chunks of 64) with its exact KV.
type contextStack struct {
	model  *llm.Model
	codec  *core.Codec
	tokens []llm.Token
	kv     *tensor.KV
}

func newContextStack() (*contextStack, error) {
	model, err := llm.New(llm.Config{
		Name: "cluster-x4", Layers: 6, KVChannels: 16, Channels: 16,
		Hidden: 128, Params: 1e8, Seed: 11,
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = 64
	rng := rand.New(rand.NewSource(4))
	sample := make([]llm.Token, 320)
	for i := range sample {
		sample[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	bank, err := core.Train(cfg, []*tensor.KV{model.CalculateKV(sample)})
	if err != nil {
		return nil, err
	}
	tokens := make([]llm.Token, 512) // 8 chunks of 64
	for i := range tokens {
		tokens[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return &contextStack{
		model:  model,
		codec:  core.NewCodec(bank),
		tokens: tokens,
		kv:     model.CalculateKV(tokens),
	}, nil
}

func (s *contextStack) publish(st storage.Store, id string) (storage.Manifest, error) {
	man, _, err := streamer.Publish(context.Background(), st, s.codec, s.model, id, s.tokens,
		streamer.PublishOptions{KV: s.kv})
	return man, err
}

// corpusStack is a 4-layer model and its trained codec, which X10, X12
// and X13 publish their multi-context corpora through.
type corpusStack struct {
	model *llm.Model
	codec *core.Codec
}

func newCorpusStack() (*corpusStack, error) {
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
	return &corpusStack{model: model, codec: core.NewCodec(bank)}, nil
}

// fixedDecodeCost is the fixed modelled decode-slot occupancy per
// request. Fixing it decouples a gateway cell's queueing behaviour from
// host speed.
const fixedDecodeCost = 2 * time.Millisecond

// loadRow renders a load run's P50 and P99 TTFT, SLO attainment and
// throughput.
func loadRow(rep *gateway.LoadReport) (p50, p99 string, slo string, thpt string) {
	sum := metrics.Summarize(metrics.Seconds(rep.AllTTFTs()))
	return fmt.Sprintf("%.1f ms", sum.P50()*1e3),
		fmt.Sprintf("%.1f ms", sum.P99*1e3),
		fmt.Sprintf("%.0f%%", 100*rep.SLORate()),
		fmt.Sprintf("%.0f/s", rep.Throughput())
}
