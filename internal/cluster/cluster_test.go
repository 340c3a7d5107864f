package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// clusterNode is one in-process storage node: a RAM-tiered store served
// over TCP.
type clusterNode struct {
	addr  string
	cache *storage.CachingStore
	srv   *transport.Server
}

// clusterStack is the acceptance-test rig: a published context on a
// ≥3-node ring plus a single-store reference fetch path.
type clusterStack struct {
	model   *llm.Model
	codec   *core.Codec
	tokens  []llm.Token
	kv      *tensor.KV
	man     storage.Manifest
	meta    storage.ContextMeta
	nodes   []*clusterNode
	ring    *Ring
	sharded *ShardedStore
	refKV   *tensor.KV // KV fetched through a single MemStore server
}

const testContextID = "ctx-cluster"

func startNode(t *testing.T, cacheBytes int64) *clusterNode {
	t.Helper()
	cache := storage.NewCachingStore(storage.NewMemStore(), cacheBytes)
	srv := transport.NewServer(cache)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return &clusterNode{addr: ln.Addr().String(), cache: cache, srv: srv}
}

func newClusterStack(t *testing.T, nodeCount, replicas int) *clusterStack {
	t.Helper()
	model, err := llm.New(llm.Config{
		Name: "ctest", Layers: 6, KVChannels: 16, Channels: 16,
		Hidden: 128, Params: 1e8, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = 80

	rng := rand.New(rand.NewSource(42))
	sample := make([]llm.Token, 400)
	for i := range sample {
		sample[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	bank, err := core.Train(cfg, []*tensor.KV{model.CalculateKV(sample)})
	if err != nil {
		t.Fatal(err)
	}
	codec := core.NewCodec(bank)

	tokens := make([]llm.Token, 400) // 5 chunks of 80
	for i := range tokens {
		tokens[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	kv := model.CalculateKV(tokens)
	ctx := context.Background()

	// Reference path: the same context through one MemStore and one
	// server, as a pre-cluster deployment would fetch it.
	single := storage.NewMemStore()
	if _, _, err := streamer.Publish(ctx, single, codec, model, testContextID, tokens, streamer.PublishOptions{KV: kv}); err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(single)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	refKV, _, err := fetchThrough(t, model, codec, client)
	if err != nil {
		t.Fatal(err)
	}

	// Cluster path: the ring of RAM-tiered nodes.
	s := &clusterStack{model: model, codec: codec, tokens: tokens, kv: kv, refKV: refKV}
	s.ring = NewRing(replicas, 0)
	stores := map[string]storage.Store{}
	for i := 0; i < nodeCount; i++ {
		n := startNode(t, 1<<20)
		s.nodes = append(s.nodes, n)
		stores[n.addr] = n.cache
	}
	s.sharded, err = NewShardedStore(s.ring, stores)
	if err != nil {
		t.Fatal(err)
	}
	s.man, _, err = streamer.Publish(ctx, s.sharded, codec, model, testContextID, tokens, streamer.PublishOptions{KV: kv})
	if err != nil {
		t.Fatal(err)
	}
	s.meta = s.man.Meta
	return s
}

func fetchThrough(t *testing.T, model *llm.Model, codec *core.Codec, src streamer.ChunkSource) (*tensor.KV, *streamer.FetchReport, error) {
	t.Helper()
	f := &streamer.Fetcher{
		Source:  src,
		Codec:   codec,
		Model:   model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	return f.Fetch(context.Background(), testContextID)
}

func (s *clusterStack) node(addr string) *clusterNode {
	for _, n := range s.nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// chunkHash returns the published hash of (level, chunk) or fails.
func (s *clusterStack) chunkHash(t *testing.T, level, chunk int) string {
	t.Helper()
	h, err := s.man.ChunkHash(level, chunk)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// killAfterChunk passes fetches through to the pool and kills one node's
// server as soon as the trigger payload has been delivered — a node
// dying mid-stream.
type killAfterChunk struct {
	src       streamer.ChunkSource
	afterHash string
	kill      func()
	once      sync.Once
}

func (k *killAfterChunk) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	return k.src.GetManifest(ctx, id)
}

func (k *killAfterChunk) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	data, err := k.src.GetChunkData(ctx, hash)
	if hash == k.afterHash {
		k.once.Do(k.kill)
	}
	return data, err
}

// TestClusterFailoverAndRAMTier is the acceptance scenario: a 4-node
// ring with replication 2, one node killed mid-stream, the decoded KV
// bit-for-bit equal to a single-store fetch, and a warm RAM tier on the
// repeated fetch.
func TestClusterFailoverAndRAMTier(t *testing.T) {
	s := newClusterStack(t, 4, 2)

	// The context must actually be sharded: more than one distinct
	// primary across its chunk payloads.
	primaries := map[string]struct{}{}
	for c := 0; c < s.meta.NumChunks(); c++ {
		primaries[s.ring.ChunkNodes(s.chunkHash(t, 0, c))[0]] = struct{}{}
	}
	if len(primaries) < 2 {
		t.Fatalf("all %d chunks share one primary; ring not sharding", s.meta.NumChunks())
	}

	pool := NewPool(s.ring, WithRequestTimeout(5*time.Second))
	defer pool.Close()

	// Kill the primary of the last chunk right after chunk 1 arrives, so
	// a later chunk must fail over to its replica mid-stream.
	last := s.meta.NumChunks() - 1
	victim := s.node(s.ring.ChunkNodes(s.chunkHash(t, 0, last))[0])
	src := &killAfterChunk{src: pool, afterHash: s.chunkHash(t, 0, 1), kill: func() { victim.srv.Close() }}

	kv, report, err := fetchThrough(t, s.model, s.codec, src)
	if err != nil {
		t.Fatalf("cluster fetch with mid-stream node kill: %v", err)
	}
	if kv.Tokens != len(s.tokens) {
		t.Fatalf("assembled %d tokens, want %d", kv.Tokens, len(s.tokens))
	}
	if len(report.Decisions) != s.meta.NumChunks() {
		t.Fatalf("fetched %d chunks, want %d", len(report.Decisions), s.meta.NumChunks())
	}
	if got := pool.Stats().Failovers; got == 0 {
		t.Error("killed a primary mid-stream but the pool reports no failovers")
	}

	// Bit-for-bit match with the single-store fetch.
	diff, err := kv.MaxAbsDiff(s.refKV)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("cluster-fetched KV differs from single-store fetch by %v", diff)
	}

	// Repeat the fetch: the surviving nodes' RAM tiers must now serve
	// hits.
	if _, _, err := fetchThrough(t, s.model, s.codec, pool); err != nil {
		t.Fatalf("repeated cluster fetch: %v", err)
	}
	var agg storage.CacheStats
	for _, n := range s.nodes {
		st := n.cache.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
	}
	if agg.Hits == 0 {
		t.Errorf("repeated fetch produced no RAM-tier hits (stats %+v)", agg)
	}
	if agg.HitRate() <= 0 {
		t.Errorf("aggregate hit rate %.2f, want > 0", agg.HitRate())
	}
}

func TestPoolManifestAndBankFailover(t *testing.T) {
	s := newClusterStack(t, 3, 2)
	// The per-attempt timeout lets failover move past a killed node even
	// when the dial lands in its dead accept backlog (where a read would
	// otherwise block until the caller's deadline).
	pool := NewPool(s.ring, WithRequestTimeout(2*time.Second))
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Kill the node that would answer the manifest request first; a
	// replica must answer instead (manifests are on every node).
	first := s.ring.Locate(manifestRingKey(testContextID), s.ring.Len())[0]
	s.node(first).srv.Close()
	man, err := pool.GetManifest(ctx, testContextID)
	if err != nil {
		t.Fatalf("manifest fetch with dead first node: %v", err)
	}
	if man.Meta.TokenCount != len(s.tokens) {
		t.Errorf("manifest says %d tokens, want %d", man.Meta.TokenCount, len(s.tokens))
	}
	if pool.Stats().Failovers == 0 {
		t.Error("manifest fetch past a dead node reported no failover")
	}

	// No node serves a bank: the error must mention every replica tried.
	if _, err := pool.GetBank(ctx); err == nil {
		t.Error("GetBank succeeded with no bank configured")
	}

	// A missing context is authoritative from the first live node: typed
	// not-found, no fleet-wide failover sweep.
	failoversBefore := pool.Stats().Failovers
	if _, err := pool.GetManifest(ctx, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing context error = %v, want storage.ErrNotFound", err)
	}
	// At most one failover (if the dead node from above is first in ring
	// order for this key); a live node's answer must stop the sweep.
	if d := pool.Stats().Failovers - failoversBefore; d > 1 {
		t.Errorf("missing-context manifest fetch swept %d failovers", d)
	}
}

func TestPoolAllReplicasDead(t *testing.T) {
	s := newClusterStack(t, 3, 1) // replication 1: the primary is the only copy
	pool := NewPool(s.ring, WithRequestTimeout(2*time.Second))
	defer pool.Close()

	hash := s.chunkHash(t, 0, 0)
	victim := s.ring.ChunkNodes(hash)[0]
	s.node(victim).srv.Close()
	if _, err := pool.GetChunkData(context.Background(), hash); err == nil {
		t.Error("fetch succeeded though the only replica is dead")
	}
}

// TestPoolHonorsCancelledContext: an abandoned request must not sweep
// the replica set or open connections on its way out.
func TestPoolHonorsCancelledContext(t *testing.T) {
	s := newClusterStack(t, 3, 2)
	pool := NewPool(s.ring)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dialsBefore := pool.Stats().Dials
	hash := s.chunkHash(t, 0, 0)
	if _, err := pool.GetChunkData(ctx, hash); !errors.Is(err, context.Canceled) {
		t.Errorf("GetChunkData with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := pool.GetManifest(ctx, testContextID); !errors.Is(err, context.Canceled) {
		t.Errorf("GetManifest with cancelled ctx = %v, want context.Canceled", err)
	}
	if err := pool.DeleteContext(ctx, testContextID); !errors.Is(err, context.Canceled) {
		t.Errorf("DeleteContext with cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := pool.Sweep(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep with cancelled ctx = %v, want context.Canceled", err)
	}
	if d := pool.Stats().Dials - dialsBefore; d != 0 {
		t.Errorf("cancelled requests opened %d connections", d)
	}
}

func TestShardedStoreRoundTrip(t *testing.T) {
	s := newClusterStack(t, 3, 2)
	ctx := context.Background()

	ids, err := s.sharded.ListContexts(ctx)
	if err != nil || len(ids) != 1 || ids[0] != testContextID {
		t.Fatalf("ListContexts = %v, %v", ids, err)
	}
	// Every chunk payload must be resident on exactly its replica set —
	// placed by content hash, independent of the publishing context.
	for c := 0; c < s.meta.NumChunks(); c++ {
		hash := s.chunkHash(t, 0, c)
		holders := 0
		for _, n := range s.nodes {
			if _, err := n.cache.GetChunk(ctx, hash); err == nil {
				holders++
			}
		}
		if holders != s.ring.Replicas() {
			t.Errorf("chunk %d resident on %d nodes, want %d", c, holders, s.ring.Replicas())
		}
		if nodes := s.ring.ChunkNodes(hash); len(nodes) != s.ring.Replicas() {
			t.Errorf("chunk %d placed on %d nodes", c, len(nodes))
		}
	}
	// Every node derives the dedup index from its copy of the manifest,
	// so every node answers for every chunk, until the context goes.
	key := storage.FingerprintKey(s.man.Producer, 0, 0, 0, s.meta.ChunkTokens[0], s.man.ChainDigests[0])
	for _, n := range s.nodes {
		if fp, err := n.cache.GetFingerprint(ctx, key); err != nil || fp.Hash != s.chunkHash(t, 0, 0) {
			t.Errorf("node %s: GetFingerprint = %+v, %v", n.addr, fp, err)
		}
	}
	if err := s.sharded.DeleteContext(ctx, testContextID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sharded.GetManifest(ctx, testContextID); err == nil {
		t.Error("manifest survived DeleteContext")
	}
	if _, err := s.sharded.GetFingerprint(ctx, key); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetFingerprint after DeleteContext = %v, want ErrNotFound", err)
	}
	if err := s.sharded.DeleteContext(ctx, testContextID); err == nil {
		t.Error("double delete succeeded")
	}
}

// TestClusterDedupAndRefcountedGC is the content-addressed acceptance
// scenario over a live multi-node ring: two contexts sharing a prefix
// store shared payloads once per replica set; deleting one context and
// sweeping the fleet reclaims exactly its unique payloads; the surviving
// context still decodes bit-for-bit.
func TestClusterDedupAndRefcountedGC(t *testing.T) {
	s := newClusterStack(t, 4, 2)
	ctx := context.Background()

	// Publish a second context sharing the first 3 chunks (240 tokens).
	tokensB := append(append([]llm.Token{}, s.tokens[:240]...), s.tokens[:100]...)
	manB, statsB, err := streamer.Publish(ctx, s.sharded, s.codec, s.model, "ctx-b", tokensB, streamer.PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if statsB.EncodesSkipped == 0 || statsB.PayloadsReused == 0 {
		t.Fatalf("no cross-context dedup on the ring: %+v", statsB)
	}
	// Shared payloads land on the same replica set regardless of context:
	// their placement keys are the content hashes the manifests share.
	for c := 0; c < 3; c++ {
		ha := s.chunkHash(t, 0, c)
		hb, _ := manB.ChunkHash(0, c)
		if ha != hb {
			t.Fatalf("chunk %d not shared across contexts", c)
		}
	}
	// Byte accounting: each node holds each shared payload once. Count
	// holders of a shared payload — exactly the replica factor, not 2×.
	sharedHash := s.chunkHash(t, 0, 0)
	holders := 0
	for _, n := range s.nodes {
		if _, err := n.cache.GetChunk(ctx, sharedHash); err == nil {
			holders++
		}
	}
	if holders != s.ring.Replicas() {
		t.Errorf("shared payload on %d nodes, want %d", holders, s.ring.Replicas())
	}

	pool := NewPool(s.ring)
	defer pool.Close()
	fetcher := &streamer.Fetcher{
		Source: pool, Codec: s.codec, Model: s.model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	kvBBefore, _, err := fetcher.Fetch(ctx, "ctx-b")
	if err != nil {
		t.Fatal(err)
	}

	// Delete the original context over the wire and sweep the fleet.
	before, err := pool.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.DeleteContext(ctx, testContextID); err != nil {
		t.Fatal(err)
	}
	res, err := pool.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedChunks == 0 || res.ReclaimedBytes == 0 {
		t.Fatalf("fleet sweep reclaimed nothing: %+v", res)
	}
	after, err := pool.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.ChunkBytes != before.ChunkBytes-res.ReclaimedBytes {
		t.Errorf("usage %d -> %d but sweep claims %d reclaimed", before.ChunkBytes, after.ChunkBytes, res.ReclaimedBytes)
	}

	// The surviving context decodes bit-for-bit after the sweep.
	kvBAfter, _, err := fetcher.Fetch(ctx, "ctx-b")
	if err != nil {
		t.Fatalf("surviving context unfetchable after sweep: %v", err)
	}
	diff, err := kvBBefore.MaxAbsDiff(kvBAfter)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("surviving context decodes differently after sweep (diff %g)", diff)
	}
	// Every payload ctx-b references is still resident somewhere.
	for lv, row := range manB.Hashes {
		for c, h := range row {
			if _, err := s.sharded.GetChunk(ctx, h); err != nil {
				t.Errorf("surviving payload (lv %d, c %d) reclaimed: %v", lv, c, err)
			}
		}
	}
	// And the deleted context is gone.
	if _, err := pool.GetManifest(ctx, testContextID); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("deleted context still resolvable: %v", err)
	}
	// A second sweep finds nothing: the first reclaimed everything
	// unreferenced.
	res2, err := pool.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RemovedChunks != 0 {
		t.Errorf("second sweep reclaimed %d more chunks", res2.RemovedChunks)
	}
}
