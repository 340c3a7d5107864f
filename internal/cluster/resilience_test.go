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
// scenario: once every replica is marked dead, chunk fetches, manifest
// fetches and chunk streams all fail fast with the distinguishable
// ErrFleetUnavailable, without dialing a node — even one that has come
// back but that neither the prober nor a heal hook has re-admitted.
func TestPoolFleetUnavailableFastFail(t *testing.T) {
	s := newClusterStack(t, 3, 2, false)
	pool := NewPool(s.ring,
		WithRequestTimeout(time.Second),
		// One failure condemns a node, and the prober's first cycle is
		// an hour away, so nothing resurrects them.
		WithResilience(resilience.Config{DeadAfter: 1, ProbeInterval: time.Hour}))
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
	for _, n := range s.nodes {
		if st := pool.Resilience().State(n.addr); st != resilience.Dead {
			t.Fatalf("node %s = %v after fleet partition, want dead", n.addr, st)
		}
	}
	// The nodes come back unannounced: a dial would now succeed and
	// count, so a dial-free fast fail shows as Dials staying at zero.
	for _, n := range s.nodes {
		restartNode(t, n)
	}

	start := time.Now()
	if _, err := pool.GetChunkData(ctx, hash); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("chunk fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	if _, err := pool.GetManifest(ctx, testContextID); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("manifest fetch on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	cs, err := pool.OpenChunkStream(ctx, transport.StreamRequest{
		Chunks: []transport.StreamChunk{{Index: 0, Hashes: map[int]string{0: hash}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if _, err := cs.Recv(ctx); !errors.Is(err, ErrFleetUnavailable) {
		t.Errorf("chunk stream on dead fleet = %v, want ErrFleetUnavailable", err)
	}
	if took := time.Since(start); took > 200*time.Millisecond {
		t.Errorf("fleet-unavailable fast fails took %v", took)
	}
	if d := pool.Stats().Dials; d != 0 {
		t.Errorf("%d dials to dead nodes, want 0", d)
	}
	if st := pool.Resilience().Stats(); st.FastFails != 3 {
		t.Errorf("%d fast fails accounted, want 3", st.FastFails)
	}
}

// TestPoolRecoversThroughInvalidate: the chaos-heal fast path —
// Invalidate reopens routing to dead nodes that nothing else would bring
// back before the prober's next cycle.
func TestPoolRecoversThroughInvalidate(t *testing.T) {
	s := newClusterStack(t, 3, 2, false)
	pool := NewPool(s.ring,
		WithRequestTimeout(time.Second),
		WithResilience(resilience.Config{DeadAfter: 1, ProbeInterval: time.Hour}))
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
	pool := NewPool(ring, WithRequestTimeout(time.Second), WithResilience(resilience.Config{ProbeInterval: time.Hour}))
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
// leave it healthy and its one connection in place,
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
	if n := pool.Resilience().Stats().Deaths; n != 0 {
		t.Errorf("%d deaths after three budget expiries, want 0", n)
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

// TestPoolCancelledCallerKeepsConnection: a caller that gives up (a
// hedge loser, a gateway deadline, a failed fetch cancelling its
// siblings) says nothing about the node, and must not close the one
// connection the node's other callers are waiting on.
func TestPoolCancelledCallerKeepsConnection(t *testing.T) {
	pool, node, _ := slowManifestNode(t, 100*time.Millisecond)
	cctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	for _, ctx := range []context.Context{cctx, context.Background()} {
		go func(ctx context.Context) {
			_, err := pool.GetManifest(ctx, "doc")
			errs <- err
		}(ctx)
	}
	// Cancel once both round trips are likely on the one connection; the
	// outcome must be the same at any timing, only the case under test
	// (an abandoned wait beside a live one) needs both in flight.
	time.Sleep(30 * time.Millisecond)
	cancel()
	var cancelled, served int
	for i := 0; i < 2; i++ {
		switch err := <-errs; {
		case err == nil:
			served++
		case errors.Is(err, context.Canceled):
			cancelled++
		default:
			t.Errorf("request beside a cancelled one: %v", err)
		}
	}
	if cancelled != 1 || served != 1 {
		t.Errorf("%d cancelled, %d served, want 1 and 1", cancelled, served)
	}
	if st := pool.Resilience().State(node); st != resilience.Healthy {
		t.Errorf("node %v after a caller cancelled, want healthy", st)
	}
	if d := pool.Stats().Dials; d != 1 {
		t.Errorf("%d dials, want the one shared connection kept", d)
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

// TestPoolHedgeAccounting pins how the replica walk counts a chunk
// fetch whose primary misbehaves on a warm pool (every node's latency
// histogram past the hedge warmup, every connection dialed). A
// failover after a failure is never a hedge or a hedge win; a hedge is
// counted when its timer starts the next replica, and wins only when
// that replica answers first.
func TestPoolHedgeAccounting(t *testing.T) {
	cases := []struct {
		name      string
		sever     bool // sever every request, else stall it past the hedge delay
		failovers uint64
		hedges    uint64
		wins      uint64
	}{
		{name: "sever", sever: true, failovers: 1},
		{name: "stall", hedges: 1, wins: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newClusterStack(t, 3, 2, false)
			pool := NewPool(s.ring,
				WithRequestTimeout(2*time.Second),
				WithResilience(resilience.Config{ProbeInterval: time.Hour}))
			defer pool.Close()
			ctx := context.Background()
			res := pool.Resilience()
			hash := s.chunkHash(t, 0, 0)
			primary := s.ring.ChunkNodes(hash)[0]
			for i := 0; i < 20; i++ {
				if _, err := pool.Usage(ctx); err != nil {
					t.Fatal(err)
				}
				if _, err := pool.GetChunkData(ctx, hash); err != nil {
					t.Fatal(err)
				}
			}
			for _, n := range s.nodes {
				if _, warm := res.HedgeDelay(n.addr); !warm {
					t.Fatalf("node %s not warm after 40 fetches", n.addr)
				}
			}
			// Each case's precondition must not hang on loopback timing
			// under load: a severed request fails long before the hedge
			// delay (pinned at its ceiling), and a stalled one answers a
			// second after it, long after the replica.
			if tc.sever {
				for i := 0; i < 100; i++ {
					res.ReportSuccess(primary, time.Second)
				}
			}
			delay, _ := res.HedgeDelay(primary)
			ps0, rs0 := pool.Stats(), res.Stats()
			if tc.sever {
				s.node(primary).srv.SetFlaky(1, 0, 1, 1)
			} else {
				s.node(primary).srv.SetFlaky(1, delay+time.Second, 0, 1)
			}
			data, err := pool.GetChunkData(ctx, hash)
			if err != nil || len(data) == 0 {
				t.Fatalf("fetch beside a misbehaving primary = %d bytes, %v", len(data), err)
			}
			ps, rs := pool.Stats(), res.Stats()
			if d := ps.Requests - ps0.Requests; d != 1 {
				t.Errorf("%d requests, want 1", d)
			}
			if d := ps.Attempts - ps0.Attempts; d != 2 {
				t.Errorf("%d attempts, want 2", d)
			}
			if d := ps.Failovers - ps0.Failovers; d != tc.failovers {
				t.Errorf("%d failovers, want %d", d, tc.failovers)
			}
			if d := rs.Hedges - rs0.Hedges; d != tc.hedges {
				t.Errorf("%d hedges, want %d (hedge delay %v)", d, tc.hedges, delay)
			}
			if d := rs.HedgeWins - rs0.HedgeWins; d != tc.wins {
				t.Errorf("%d hedge wins, want %d", d, tc.wins)
			}
			if !tc.sever {
				// The loser was cancelled, not failed: the stalled node
				// stays healthy and keeps its connection.
				if st := res.State(primary); st != resilience.Healthy {
					t.Errorf("stalled primary %v after losing a hedge race, want healthy", st)
				}
				if d := ps.Dials - ps0.Dials; d != 0 {
					t.Errorf("%d dials, want the loser's connection kept", d)
				}
			}
		})
	}
}
