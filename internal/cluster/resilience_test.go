package cluster

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/transport"
)

// restartNode brings a closed node back up on its old address over the
// same store, as a chaos heal does.
func restartNode(t *testing.T, n *clusterNode) {
	t.Helper()
	srv := transport.NewServer(n.cache)
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	n.srv = srv
	t.Cleanup(func() { srv.Close() })
}

// TestPoolFleetUnavailableFastFail is the fully-partitioned fleet
// scenario: once every replica is marked dead, fetches fail fast with
// the distinguishable ErrFleetUnavailable instead of spinning through
// the whole attempt list, and batch fetches propagate it.
func TestPoolFleetUnavailableFastFail(t *testing.T) {
	s := newClusterStack(t, 3, 2)
	pool := NewPool(s.ring,
		WithRequestTimeout(time.Second),
		// One failure condemns a node, the breaker stays open for the
		// whole test, and the prober is off so nothing resurrects them.
		WithResilience(resilience.Config{
			DeadAfter:       1,
			BreakerCooldown: time.Hour,
			ProbeInterval:   -1,
		}))
	defer pool.Close()
	ctx := context.Background()
	hash := s.chunkHash(t, 0, 0)

	// Partition the whole fleet.
	for _, n := range s.nodes {
		n.srv.Close()
	}

	// The first fetch sweeps the replicas, fails, and condemns them.
	if _, err := pool.GetManifest(ctx, testContextID); err == nil {
		t.Fatal("manifest fetch succeeded on a fully-partitioned fleet")
	}
	if _, err := pool.GetBank(ctx); err == nil {
		t.Fatal("bank fetch succeeded on a fully-partitioned fleet")
	}
	for _, n := range s.nodes {
		if st := pool.Resilience().State(n.addr); st != resilience.Dead {
			t.Fatalf("node %s = %v after fleet partition, want dead", n.addr, st)
		}
	}

	// Now every replica is marked failed: requests fail fast and
	// distinguishably, without burning a per-node attempt list.
	start := time.Now()
	_, err := pool.GetChunkData(ctx, hash)
	if !errors.Is(err, ErrFleetUnavailable) {
		t.Fatalf("chunk fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("fleet-unavailable fast fail took %v", took)
	}
	if _, err := pool.GetManifest(ctx, testContextID); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("manifest fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	if _, err := pool.GetChunkBatch(ctx, []string{hash, s.chunkHash(t, 0, 1)}); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("batch fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	if st := pool.Resilience().Stats(); st.FastFails == 0 {
		t.Errorf("fast fails not accounted: %+v", st)
	}

	// A near-exhausted deadline budget takes the same fast path even
	// when a breaker trial would otherwise be admitted.
	tight := resilience.WithBudget(ctx, time.Millisecond)
	if _, err := pool.GetChunkData(tight, hash); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("tight-budget fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
}

// TestPoolRecoversThroughInvalidate: the chaos-heal fast path still
// works with breakers in front — Invalidate reopens routing to a node
// whose breaker would otherwise stay open for the full cooldown.
func TestPoolRecoversThroughInvalidate(t *testing.T) {
	s := newClusterStack(t, 3, 2)
	pool := NewPool(s.ring,
		WithRequestTimeout(time.Second),
		WithResilience(resilience.Config{
			DeadAfter:       1,
			BreakerCooldown: time.Hour,
			ProbeInterval:   -1,
		}))
	defer pool.Close()
	ctx := context.Background()

	for _, n := range s.nodes {
		n.srv.Close()
	}
	if _, err := pool.GetManifest(ctx, testContextID); err == nil {
		t.Fatal("manifest fetch succeeded on a dead fleet")
	}

	// Heal: restart the servers on their old addresses and fast-path
	// them back in, as chaos heals (and the prober) do.
	for _, n := range s.nodes {
		restartNode(t, n)
		pool.Invalidate(n.addr)
	}
	man, err := pool.GetManifest(ctx, testContextID)
	if err != nil {
		t.Fatalf("manifest fetch after heal: %v", err)
	}
	if man.Meta.TokenCount != len(s.tokens) {
		t.Errorf("healed manifest says %d tokens, want %d", man.Meta.TokenCount, len(s.tokens))
	}
	for _, n := range s.nodes {
		if st := pool.Resilience().State(n.addr); st == resilience.Dead {
			t.Errorf("node %s still dead after heal + success", n.addr)
		}
	}
}

// slowManifestNode serves one manifest from a node whose store answers
// every lookup after read, and returns a pool over that one node.
func slowManifestNode(t *testing.T, read time.Duration) (*Pool, string, *storage.LatencyStore) {
	t.Helper()
	ctx := context.Background()
	mem := storage.NewMemStore()
	h := storage.HashChunk([]byte("chunk"))
	if err := mem.PutManifest(ctx, storage.Manifest{
		Meta: storage.ContextMeta{
			ContextID: "doc", TokenCount: 10, ChunkTokens: []int{10},
			Levels: 1, SizesBytes: [][]int64{{5}}, TextBytes: []int64{5},
		},
		Hashes: map[int][]string{0: {h}, storage.TextLevel: {h}},
	}); err != nil {
		t.Fatal(err)
	}
	slow := storage.NewLatencyStore(mem)
	slow.SetLatency(read, 0)
	srv := transport.NewServer(slow)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	node := ln.Addr().String()
	ring := NewRing(1, 0)
	ring.Add(node)
	pool := NewPool(ring, WithRequestTimeout(time.Second), WithResilience(resilience.Config{ProbeInterval: -1}))
	t.Cleanup(func() { pool.Close() })
	return pool, node, slow
}

// awaitLateAnswers waits until the pool's connection to node has
// consumed every answer its callers gave up on.
func awaitLateAnswers(t *testing.T, pool *Pool, node string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		pool.mu.Lock()
		n := pool.nodes[node]
		pool.mu.Unlock()
		n.mu.Lock()
		c := n.client
		n.mu.Unlock()
		if c == nil || c.Abandoned() == 0 {
			return
		}
	}
	t.Fatal("late answers never arrived")
}

// TestPoolBudgetExpiryIsNotANodeFailure: an attempt cut short by the
// request's own nearly spent deadline budget says nothing about the node.
// Three requests that each give up on a slow node before it answers
// leave it healthy, its breaker closed and its one connection in place,
// and that connection answers the next request in order.
func TestPoolBudgetExpiryIsNotANodeFailure(t *testing.T) {
	ctx := context.Background()
	pool, node, slow := slowManifestNode(t, 150*time.Millisecond)
	for i := 0; i < 3; i++ {
		tight := resilience.WithBudget(ctx, 10*time.Millisecond)
		if _, err := pool.GetManifest(tight, "doc"); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("request %d on a node slower than its budget = %v, want a deadline error", i, err)
		}
		awaitLateAnswers(t, pool, node)
	}
	if st := pool.Resilience().State(node); st != resilience.Healthy {
		t.Errorf("node %v after three budget expiries, want healthy", st)
	}
	if n := pool.Resilience().Stats().BreakerOpens; n != 0 {
		t.Errorf("%d breaker opens after three budget expiries, want 0", n)
	}
	slow.SetLatency(0, 0)
	man, err := pool.GetManifest(ctx, "doc")
	if err != nil || man.Meta.ContextID != "doc" {
		t.Fatalf("manifest once the node is fast again = %q, %v", man.Meta.ContextID, err)
	}
	if d := pool.Stats().Dials; d != 1 {
		t.Errorf("%d dials, want the one connection kept throughout", d)
	}
}

// TestPoolHungNodeLeavesHealthy: budget expiries do not hide a node that
// stops answering. Once a request gives up while an earlier one is still
// owed its answer, the node is reported failed and the connection, with
// its backlog, is dropped.
func TestPoolHungNodeLeavesHealthy(t *testing.T) {
	ctx := context.Background()
	pool, node, _ := slowManifestNode(t, 3*time.Second)
	for i := 0; i < 4; i++ {
		tight := resilience.WithBudget(ctx, 10*time.Millisecond)
		if _, err := pool.GetManifest(tight, "doc"); err == nil {
			t.Fatalf("request %d on a hung node succeeded", i)
		}
	}
	if st := pool.Resilience().State(node); st == resilience.Healthy {
		t.Error("hung node still healthy after four budget expiries")
	}
	if d := pool.Stats().Dials; d < 2 {
		t.Errorf("%d dials, want the backlogged connection replaced", d)
	}
}
