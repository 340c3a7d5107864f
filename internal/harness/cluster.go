package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// The cluster scenario (ISSUE 1): the paper's single "dedicated storage
// server" (§3) replaced by a consistent-hash ring of nodes, measured
// over the live TCP path — TTFT-proxy load time vs node count, load time
// under a mid-fleet node failure, and the effect of the per-node RAM
// tier on a repeated fetch. Numbers come from loopback sockets, so they
// show the delivery-path mechanics (parallel fan-out, failover cost,
// cache hits), not WAN magnitudes.

func init() {
	register("X4", "Extension: sharded KV delivery cluster (ring + RAM tier)", runX4Cluster)
}

// launchRing launches n in-process nodes over fresh MemStores (each with
// a RAM tier of cacheBytes when that is above zero) in one
// chaos.LocalFleet, places them on a ring with the given replication, and
// returns the fleet and the publish-side sharded store over the nodes'
// served stores. The ring is the sharded store's.
func launchRing(n, replicas int, cacheBytes int64) (*chaos.LocalFleet, *cluster.ShardedStore, error) {
	fl := &chaos.LocalFleet{}
	stores := map[string]storage.Store{}
	for i := 0; i < n; i++ {
		node, err := fl.Launch("127.0.0.1:0", storage.NewMemStore(), cacheBytes)
		if err != nil {
			fl.Close()
			return nil, nil, err
		}
		stores[node.Addr] = node.Store
	}
	sharded, err := cluster.NewShardedStore(cluster.NewRing(replicas, 0), stores)
	if err != nil {
		fl.Close()
		return nil, nil, err
	}
	return fl, sharded, nil
}

// x4Stack is the model/codec/context shared by every fleet size.
type x4Stack struct {
	model  *llm.Model
	codec  *core.Codec
	tokens []llm.Token
	kv     *tensor.KV
}

func newX4Stack() (*x4Stack, error) {
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
	return &x4Stack{
		model:  model,
		codec:  core.NewCodec(bank),
		tokens: tokens,
		kv:     model.CalculateKV(tokens),
	}, nil
}

func (s *x4Stack) publish(st storage.Store, id string) (storage.Manifest, error) {
	man, _, err := streamer.Publish(context.Background(), st, s.codec, s.model, id, s.tokens,
		streamer.PublishOptions{KV: s.kv})
	return man, err
}

func (s *x4Stack) fetch(src streamer.ChunkSource, id string) (*streamer.FetchReport, error) {
	f := &streamer.Fetcher{
		Source:  src,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	kv, report, err := f.Fetch(context.Background(), id)
	if err != nil {
		return nil, err
	}
	if kv.Tokens != len(s.tokens) {
		return nil, fmt.Errorf("assembled %d tokens, want %d", kv.Tokens, len(s.tokens))
	}
	return report, nil
}

func runX4Cluster(f *Fixture) ([]*Report, error) {
	s, err := newX4Stack()
	if err != nil {
		return nil, err
	}
	const contextID = "x4-ctx"
	const cacheBytes = 4 << 20

	scaling := &Report{
		ID:      "X4",
		Title:   "Delivery cluster: load time vs fleet size (loopback, level 0)",
		Columns: []string{"Nodes", "Replicas", "Chunks", "Bytes", "Load time", "Failovers"},
	}
	for _, n := range []int{1, 2, 4} {
		replicas := 2
		if n == 1 {
			replicas = 1
		}
		fl, sharded, err := launchRing(n, replicas, cacheBytes)
		if err != nil {
			return nil, err
		}
		man, err := s.publish(sharded, contextID)
		if err != nil {
			fl.Close()
			return nil, err
		}
		pool := cluster.NewPool(sharded.Ring(), cluster.WithRequestTimeout(10*time.Second))
		report, err := s.fetch(pool, contextID)
		if err != nil {
			pool.Close()
			fl.Close()
			return nil, err
		}
		scaling.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", replicas),
			fmt.Sprintf("%d", man.Meta.NumChunks()),
			fmt.Sprintf("%.1f KB", float64(report.BytesReceived)/1e3),
			fmt.Sprintf("%.2f ms", report.LoadTime.Seconds()*1e3),
			fmt.Sprintf("%d", pool.Stats().Failovers))
		pool.Close()
		fl.Close()
	}

	resil := &Report{
		ID:      "X4",
		Title:   "Delivery cluster: node failure and RAM tier (4 nodes, replication 2)",
		Columns: []string{"Scenario", "Load time", "Xfer / decode", "Failovers", "RAM hit rate"},
	}
	fl, sharded, err := launchRing(4, 2, cacheBytes)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	man, err := s.publish(sharded, contextID)
	if err != nil {
		return nil, err
	}
	meta := man.Meta
	pool := cluster.NewPool(sharded.Ring(), cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()

	cold, err := s.fetch(pool, contextID)
	if err != nil {
		return nil, err
	}
	resil.AddRow("cold fetch, all nodes up",
		fmt.Sprintf("%.2f ms", cold.LoadTime.Seconds()*1e3), loadBreakdown(cold), "0",
		fmt.Sprintf("%.0f%%", 100*fl.CacheStats().HitRate()))

	warmBase := fl.CacheStats()
	warm, err := s.fetch(pool, contextID)
	if err != nil {
		return nil, err
	}
	warmStats := fl.CacheStats()
	warmHits := warmStats.Hits - warmBase.Hits
	warmMisses := warmStats.Misses - warmBase.Misses
	warmRate := 0.0
	if warmHits+warmMisses > 0 {
		warmRate = float64(warmHits) / float64(warmHits+warmMisses)
	}
	resil.AddRow("warm fetch (repeat)",
		fmt.Sprintf("%.2f ms", warm.LoadTime.Seconds()*1e3), loadBreakdown(warm),
		fmt.Sprintf("%d", pool.Stats().Failovers),
		fmt.Sprintf("%.0f%%", 100*warmRate))

	// Kill the primary of the last chunk's level-0 payload and fetch
	// again: replicas absorb its shard.
	victim := sharded.Ring().ChunkNodes(man.Hashes[0][meta.NumChunks()-1])[0]
	if err := fl.Kill(victim); err != nil {
		return nil, err
	}
	failoversBefore := pool.Stats().Failovers
	degraded, err := s.fetch(pool, contextID)
	if err != nil {
		return nil, err
	}
	resil.AddRow("one node down (replica failover)",
		fmt.Sprintf("%.2f ms", degraded.LoadTime.Seconds()*1e3), loadBreakdown(degraded),
		fmt.Sprintf("%d", pool.Stats().Failovers-failoversBefore),
		"-")
	resil.AddNote("chunk placement ignores the encoding level, so a chunk's text fallback lives with its bitstreams and failover never splits a chunk across fleets")
	return []*Report{scaling, resil}, nil
}

// loadBreakdown renders a fetch report's load-time components: network
// transfer vs codec decode (plus text recompute when present).
func loadBreakdown(rep *streamer.FetchReport) string {
	if rep.RecomputeTime > 0 {
		return fmt.Sprintf("%.1f/%.1f/%.1f ms", rep.TransferTime.Seconds()*1e3,
			rep.DecodeTime.Seconds()*1e3, rep.RecomputeTime.Seconds()*1e3)
	}
	return fmt.Sprintf("%.1f/%.1f ms", rep.TransferTime.Seconds()*1e3, rep.DecodeTime.Seconds()*1e3)
}
