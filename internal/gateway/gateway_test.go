package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/workload"
)

// testRing is a live 3-node loopback fleet with published contexts and a
// fetch pool — the serving backend every gateway test runs against.
type testRing struct {
	model    *llm.Model
	codec    *core.Codec
	pool     *cluster.Pool
	sharded  *cluster.ShardedStore
	contexts []string
	tokens   int
}

func newTestRing(t *testing.T, nContexts int) *testRing {
	t.Helper()
	model, err := llm.New(llm.Config{
		Name: "gwtest", Layers: 4, KVChannels: 8, Channels: 8,
		Hidden: 64, Params: 1e8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.ChunkTokens = 64

	rng := rand.New(rand.NewSource(9))
	sample := make([]llm.Token, 256)
	for i := range sample {
		sample[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	bank, err := core.Train(cfg, []*tensor.KV{model.CalculateKV(sample)})
	if err != nil {
		t.Fatal(err)
	}
	codec := core.NewCodec(bank)

	ring := cluster.NewRing(2, 0)
	stores := map[string]storage.Store{}
	for i := 0; i < 3; i++ {
		store := storage.NewCachingStore(storage.NewMemStore(), 1<<20)
		addr := transportServer(t, store)
		stores[addr] = store
	}
	sharded, err := cluster.NewShardedStore(ring, stores)
	if err != nil {
		t.Fatal(err)
	}

	r := &testRing{model: model, codec: codec, sharded: sharded, tokens: 192}
	for i := 0; i < nContexts; i++ {
		id := fmt.Sprintf("ctx-%02d", i)
		tokens := make([]llm.Token, r.tokens) // 3 chunks of 64
		for j := range tokens {
			tokens[j] = llm.Token(rng.Intn(llm.VocabSize))
		}
		if _, _, err := streamer.Publish(context.Background(), sharded, codec, model, id, tokens,
			streamer.PublishOptions{}); err != nil {
			t.Fatal(err)
		}
		r.contexts = append(r.contexts, id)
	}
	r.pool = cluster.NewPool(ring)
	t.Cleanup(func() { r.pool.Close() })
	return r
}

func (r *testRing) config(slots int, prefetch bool) Config {
	return Config{
		Slots:    slots,
		Prefetch: prefetch,
		Source:   r.pool,
		Codec:    r.codec,
		Model:    r.model,
		Device:   llm.A40x4(),
		Planner:  streamer.Planner{Adapt: false, DefaultLevel: 0},
		// A fixed slot cost keeps the test's queueing behaviour independent
		// of the host's speed.
		DecodeTime: func(int, int) time.Duration { return 2 * time.Millisecond },
	}
}

// transportServer starts one storage node and returns its address.
func transportServer(t *testing.T, st storage.Store) string {
	t.Helper()
	srv := transport.NewServer(st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestGatewayConcurrentFairness is the acceptance scenario: ≥32
// concurrent requests from 3 tenants against a live ring, every tenant
// served (no starvation), and slot grants interleaved across tenants by
// the weighted round-robin rather than drained tenant-by-tenant.
func TestGatewayConcurrentFairness(t *testing.T) {
	r := newTestRing(t, 3)
	cfg := r.config(2, true)
	cfg.Tenants = map[string]int{"alpha": 2, "beta": 1, "gamma": 1}
	cfg.Telemetry = telemetry.NewRegistry()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	tenants := []string{"alpha", "beta", "gamma"}
	const perTenant = 12 // 36 concurrent requests total
	var wg sync.WaitGroup
	var mu sync.Mutex
	seqByTenant := map[string][]uint64{}
	errs := 0
	for ti, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, ctxIdx int) {
				defer wg.Done()
				res, err := g.Submit(context.Background(), Request{
					Tenant:    tenant,
					ContextID: r.contexts[ctxIdx%len(r.contexts)],
					SLO:       5 * time.Second,
				})
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					errs++
					t.Errorf("tenant %s: %v", tenant, err)
					return
				}
				seqByTenant[tenant] = append(seqByTenant[tenant], res.Seq)
			}(tenant, ti)
		}
	}
	wg.Wait()
	if errs > 0 {
		t.Fatalf("%d requests failed", errs)
	}

	st := g.Stats()
	if st.Completed != 36 || st.Admitted != 36 {
		t.Fatalf("completed %d / admitted %d, want 36/36", st.Completed, st.Admitted)
	}
	for _, tenant := range tenants {
		if n := len(seqByTenant[tenant]); n != perTenant {
			t.Errorf("tenant %s completed %d, want %d (starved?)", tenant, n, perTenant)
		}
		h := cfg.Telemetry.Histogram("cachegen_gateway_ttft_seconds", "", "tenant", tenant)
		if n := h.Count(); n != perTenant {
			t.Errorf("tenant %s TTFT histogram has %d samples, want %d", tenant, n, perTenant)
		}
	}

	// Interleaving: once all three tenants are queued, every WRR cycle
	// serves each of them, so each tenant's earliest grant must land in
	// the first few grants — not after another tenant's whole backlog.
	// (The first one or two grants can race ahead of the other tenants'
	// submissions, hence the slack.)
	for _, tenant := range tenants {
		seqs := seqByTenant[tenant]
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		if first := seqs[0]; first > 8 {
			t.Errorf("tenant %s first slot grant was seq %d; FIFO-drained, not round-robin", tenant, first)
		}
	}
}

// gatedSource wraps a ChunkSource, counting chunk fetches per context
// and blocking designated contexts until released (or the request is
// cancelled). Chunk requests carry only content hashes, so the wrapper
// learns the hash→context mapping from the manifests flowing through it
// (the fetcher always reads the manifest first).
type gatedSource struct {
	src   streamer.ChunkSource
	mu    sync.Mutex
	owner map[string]string // payload hash → context id
	calls map[string]int
	gates map[string]chan struct{}
	// events, when set, receives every chunk request as it arrives and
	// again once the wrapped source has answered it. It must be buffered
	// for the whole test: sends block.
	events chan chunkEvent
}

// chunkEvent is one chunk request a gatedSource saw: its context, and
// whether the wrapped source has answered it.
type chunkEvent struct {
	context  string
	answered bool
}

func newGatedSource(src streamer.ChunkSource) *gatedSource {
	return &gatedSource{src: src, owner: map[string]string{}, calls: map[string]int{}, gates: map[string]chan struct{}{}}
}

func (s *gatedSource) block(contextID string) chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	s.gates[contextID] = ch
	s.mu.Unlock()
	return ch
}

func (s *gatedSource) callCount(contextID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[contextID]
}

func (s *gatedSource) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	man, err := s.src.GetManifest(ctx, id)
	if err == nil {
		s.mu.Lock()
		for _, h := range man.AllHashes() {
			s.owner[h] = id
		}
		s.mu.Unlock()
	}
	return man, err
}

func (s *gatedSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	s.mu.Lock()
	id := s.owner[hash]
	s.calls[id]++
	gate := s.gates[id]
	s.mu.Unlock()
	if s.events != nil {
		s.events <- chunkEvent{context: id}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	data, err := s.src.GetChunkData(ctx, hash)
	if err == nil && s.events != nil {
		s.events <- chunkEvent{context: id, answered: true}
	}
	return data, err
}

// awaitChunks blocks until n chunk events for contextID with the given
// answered flag have arrived, skipping every other event.
func (s *gatedSource) awaitChunks(t *testing.T, contextID string, answered bool, n int) {
	t.Helper()
	timeout := time.After(10 * time.Second)
	for n > 0 {
		select {
		case ev := <-s.events:
			if ev.context == contextID && ev.answered == answered {
				n--
			}
		case <-timeout:
			t.Fatalf("context %s: %d chunk events (answered=%v) never arrived", contextID, n, answered)
		}
	}
}

// TestGatewayPrefetchOverlapsQueue: while the only decode slot is held,
// a queued request's KV stream runs to the end, so its slot grant finds
// the KV resident (PrefetchHit). With Prefetch off, the queued request
// does not touch the source until the slot frees.
func TestGatewayPrefetchOverlapsQueue(t *testing.T) {
	r := newTestRing(t, 3)
	held, queued, third := r.contexts[0], r.contexts[1], r.contexts[2]
	chunks := r.tokens / 64 // newTestRing publishes 64-token chunks
	for _, prefetch := range []bool{true, false} {
		t.Run(fmt.Sprintf("prefetch=%v", prefetch), func(t *testing.T) {
			gated := newGatedSource(r.pool)
			// Room for every event the three requests send (two per chunk
			// request, 6×chunks in all) with slack for a refetch.
			gated.events = make(chan chunkEvent, 64)
			gate := gated.block(held)
			cfg := r.config(1, prefetch)
			cfg.Source = gated
			// One prefetch at a time: a prefetch holds its token until its
			// fetch has handed over the KV, so a later request's first chunk
			// request proves the earlier prefetch finished.
			cfg.MaxPrefetch = 1
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			type outcome struct {
				res *Result
				err error
			}
			submit := func(tenant, contextID string) chan outcome {
				done := make(chan outcome, 1)
				go func() {
					res, err := g.Submit(context.Background(), Request{Tenant: tenant, ContextID: contextID})
					done <- outcome{res, err}
				}()
				return done
			}
			wait := func(tenant string, done chan outcome) *Result {
				out := <-done
				if out.err != nil {
					t.Fatalf("%s: %v", tenant, out.err)
				}
				return out.res
			}

			// The holder takes the slot; its chunk requests park on the gate.
			hdone := submit("holder", held)
			gated.awaitChunks(t, held, false, 1)
			qdone := submit("queued", queued)
			var tdone chan outcome
			if prefetch {
				gated.awaitChunks(t, queued, true, chunks)
				if st := g.Stats(); st.FreeSlots != 0 || st.QueueDepth != 1 {
					t.Fatalf("queued request's chunks arrived with %d free slots, queue depth %d; want 0, 1", st.FreeSlots, st.QueueDepth)
				}
				tdone = submit("third", third)
				gated.awaitChunks(t, third, false, 1)
			} else {
				waitFor(t, 10*time.Second, func() bool { return g.Stats().QueueDepth == 1 })
				if n := gated.callCount(queued); n != 0 {
					t.Fatalf("queued request issued %d chunk requests with Prefetch off", n)
				}
			}

			close(gate)
			wait("holder", hdone)
			if res := wait("queued", qdone); res.PrefetchHit != prefetch {
				t.Errorf("PrefetchHit = %v, want %v", res.PrefetchHit, prefetch)
			}
			if tdone != nil {
				wait("third", tdone)
			}
			if n := gated.callCount(queued); n != chunks {
				t.Errorf("queued request issued %d chunk requests, want %d", n, chunks)
			}
		})
	}
}

// TestGatewayCancellation is the second acceptance scenario: a cancelled
// request releases its decode slot and stops fetching, and a deadline
// expiring in the queue withdraws the request.
func TestGatewayCancellation(t *testing.T) {
	r := newTestRing(t, 2)
	gated := newGatedSource(r.pool)
	cfg := r.config(1, true) // one slot: the victim blocks the whole fleet
	cfg.Source = gated
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	blocked, free := r.contexts[0], r.contexts[1]
	_ = gated.block(blocked)

	// Victim: takes the only slot, its fetch hangs on the gate.
	vctx, vcancel := context.WithCancel(context.Background())
	vdone := make(chan error, 1)
	go func() {
		_, err := g.Submit(vctx, Request{Tenant: "victim", ContextID: blocked})
		vdone <- err
	}()

	// Wait until the victim's fetch is actually in flight.
	waitFor(t, time.Second, func() bool { return gated.callCount(blocked) > 0 })

	// Queued request with a short deadline: must withdraw from the queue.
	if _, err := g.Submit(context.Background(), Request{
		Tenant: "queued", ContextID: free, Deadline: 50 * time.Millisecond,
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request past its deadline returned %v, want DeadlineExceeded", err)
	}

	// Cancel the victim: Submit must return, the slot must free, and the
	// fetch must stop issuing chunk requests.
	vcancel()
	select {
	case err := <-vdone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled victim returned %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled victim did not return")
	}
	callsAtCancel := gated.callCount(blocked)
	time.Sleep(50 * time.Millisecond)
	if n := gated.callCount(blocked); n != callsAtCancel {
		t.Errorf("fetch kept issuing chunk requests after cancel (%d → %d)", callsAtCancel, n)
	}

	// The slot must have been released: a fresh request completes.
	res, err := g.Submit(context.Background(), Request{Tenant: "after", ContextID: free})
	if err != nil {
		t.Fatalf("request after cancellation: %v (decode slot leaked?)", err)
	}
	if res.KV == nil || res.KV.Tokens != r.tokens {
		t.Fatalf("post-cancel request returned wrong KV: %+v", res)
	}

	st := g.Stats()
	if st.TimedOut != 2 {
		t.Errorf("timed out %d, want 2 (one queued withdrawal, one cancelled in slot)", st.TimedOut)
	}
	if st.FreeSlots != 1 {
		t.Errorf("free slots %d, want 1", st.FreeSlots)
	}
}

// TestGatewayFailedPrefetchWithdraws: a queued request whose prefetch
// fails must withdraw immediately — no queue space held, no decode-slot
// grant burned to surface the error.
func TestGatewayFailedPrefetchWithdraws(t *testing.T) {
	r := newTestRing(t, 2)
	gated := newGatedSource(r.pool)
	cfg := r.config(1, true)
	cfg.Source = gated
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	blocked := r.contexts[0]
	gate := gated.block(blocked)
	vdone := make(chan error, 1)
	go func() {
		_, err := g.Submit(context.Background(), Request{Tenant: "victim", ContextID: blocked})
		vdone <- err
	}()
	waitFor(t, time.Second, func() bool { return gated.callCount(blocked) > 0 })

	// The only slot is held; this request queues, its prefetch hits a
	// nonexistent context, and it must fail without waiting for the slot.
	if _, err := g.Submit(context.Background(), Request{Tenant: "ghost", ContextID: "no-such-context"}); err == nil {
		t.Fatal("request for a missing context succeeded")
	}
	st := g.Stats()
	if st.Failed != 1 || st.QueueDepth != 0 {
		t.Errorf("stats after failed prefetch: failed %d, depth %d; want 1, 0", st.Failed, st.QueueDepth)
	}
	if st.FreeSlots != 0 {
		t.Errorf("free slots %d; the failed request must not have taken the victim's slot", st.FreeSlots)
	}

	close(gate)
	if err := <-vdone; err != nil {
		t.Fatalf("victim failed after release: %v", err)
	}
}

// TestGatewayAdmissionControl: a full queue rejects deterministically.
func TestGatewayAdmissionControl(t *testing.T) {
	r := newTestRing(t, 2)
	gated := newGatedSource(r.pool)
	cfg := r.config(1, false)
	cfg.Source = gated
	cfg.QueueLimit = 2
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	blocked := r.contexts[0]
	gate := gated.block(blocked)

	// Fill the slot and the queue: 1 running + 2 queued.
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: blocked})
			done <- err
		}()
		waitFor(t, time.Second, func() bool {
			st := g.Stats()
			return int(st.Admitted)-int(st.Completed) > i
		})
	}

	if _, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: blocked}); !errors.Is(err, ErrRejected) {
		t.Fatalf("over-admission returned %v, want ErrRejected", err)
	}
	if st := g.Stats(); st.Rejected != 1 || st.MaxQueueDepth != 2 {
		t.Errorf("stats %+v, want 1 rejection at max depth 2", st)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("backlogged request failed after release: %v", err)
		}
	}
	g.Close()
	if _, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: blocked}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close returned %v, want ErrClosed", err)
	}
}

// TestWorkloadRun drives the Poisson load generator end to end and checks
// the report's accounting partitions the arrivals.
func TestWorkloadRun(t *testing.T) {
	r := newTestRing(t, 3)
	cfg := r.config(2, true)
	cfg.Tenants = map[string]int{"gold": 2, "bronze": 1}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tenants := []workload.PoissonTenant{
		{Name: "gold", Share: 2, ContextIDs: r.contexts[:2], SLO: 2 * time.Second},
		{Name: "bronze", Share: 1, ContextIDs: r.contexts[2:], SLO: 2 * time.Second},
	}
	rep, err := poissonRun(g, 400, 40, tenants, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 40 {
		t.Fatalf("submitted %d, want 40", rep.Submitted)
	}
	if got := rep.Completed + rep.Rejected + rep.TimedOut + rep.Failed; got != rep.Submitted {
		t.Errorf("outcomes sum to %d, want %d", got, rep.Submitted)
	}
	if rep.Completed == 0 || rep.Throughput() <= 0 {
		t.Errorf("no throughput: %+v", rep)
	}
	if rep.Tenants["gold"] == nil || len(rep.Tenants["gold"].TTFTs) == 0 ||
		rep.Tenants["bronze"] == nil || len(rep.Tenants["bronze"].TTFTs) == 0 {
		t.Error("a tenant got no completions")
	}
	if got := len(rep.AllTTFTs()); got != rep.Completed {
		t.Errorf("AllTTFTs has %d samples, want %d", got, rep.Completed)
	}

	// Bad workloads fail fast.
	for _, bad := range []struct {
		rate     float64
		requests int
		tenants  []workload.PoissonTenant
	}{
		{0, 1, tenants},
		{10, 0, tenants},
		{10, 1, nil},
		{10, 1, []workload.PoissonTenant{{Name: "x", Share: 0, ContextIDs: []string{"c"}}}},
	} {
		if _, err := poissonRun(g, bad.rate, bad.requests, bad.tenants, 7); err == nil {
			t.Errorf("workload %+v accepted", bad)
		}
	}
}

// poissonRun builds the open-loop Poisson trace and replays it against g.
func poissonRun(g *Gateway, rate float64, requests int, tenants []workload.PoissonTenant, seed int64) (*LoadReport, error) {
	tr, err := workload.Poisson(rate, requests, tenants, seed)
	if err != nil {
		return nil, err
	}
	return Replay(context.Background(), g, tr, ReplayOptions{})
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestGatewayStreamingTelemetry: a completed request through the
// fleet's server-push stream surfaces the codec's decode totals, the
// slot scheduler's view and the prefill timer on the registry, and its
// prefill span keeps the modelled duration.
func TestGatewayStreamingTelemetry(t *testing.T) {
	r := newTestRing(t, 1)
	cfg := r.config(1, false)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Tracer = telemetry.NewTracer(256)
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// The ring's publish ran before the request: its batches may have
	// queued behind one another, but the request itself publishes nothing.
	published := cfg.Codec.SlotTotals().PublishWait
	res, err := g.Submit(context.Background(), Request{Tenant: "acme", ContextID: r.contexts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Streamed {
		t.Error("gateway fetch did not take the streaming path")
	}
	if w := cfg.Codec.SlotTotals().PublishWait; w != published {
		t.Errorf("publish wait moved %v → %v during a request that publishes nothing", published, w)
	}
	var prom strings.Builder
	cfg.Telemetry.WritePrometheus(&prom)
	busy, elems := cfg.Codec.DecodeTotals()
	if busy <= 0 || elems < int64(2*res.KV.Elems()) {
		t.Errorf("decode totals (%v, %d elems) after delivering %d elems", busy, elems, 2*res.KV.Elems())
	}
	for _, name := range []string{
		"cachegen_codec_decode_busy_seconds_total ", "cachegen_codec_decoded_elems_total ",
		// The slot scheduler's view; the load has ended, nothing published
		// beside it.
		"cachegen_codec_loads_in_flight 0\n",
		`cachegen_codec_slot_wait_seconds_total{class="load"} `,
		`cachegen_codec_slot_wait_seconds_total{class="publish"} `,
		"cachegen_codec_publish_yields_total 0\n",
		"cachegen_codec_publish_exempt_total 0\n",
		"cachegen_codec_publish_blocks_beside_loads_total 0\n",
		// One request, one prefill timer.
		"cachegen_gateway_prefill_late_seconds_count 1\n",
	} {
		if !strings.Contains(prom.String(), "\n"+name) {
			t.Errorf("exposition lacks %s:\n%s", name, prom.String())
		}
	}
	// The prefill span keeps its modelled duration and carries the lateness.
	var prefills int
	for _, sp := range cfg.Tracer.Snapshot() {
		if sp.Name != "prefill" {
			continue
		}
		prefills++
		if sp.Dur != res.DecodeTime {
			t.Errorf("prefill span lasts %v, want the modelled %v", sp.Dur, res.DecodeTime)
		}
		var late any
		for _, a := range sp.Attrs {
			if a.Key == "late_us" {
				late = a.Value
			}
		}
		if us, ok := late.(float64); !ok || us < 0 {
			t.Errorf("prefill span late_us = %v, want a non-negative float", late)
		}
	}
	if prefills != 1 {
		t.Errorf("%d prefill spans, want 1", prefills)
	}
}

// TestGatewayOutcomeSeriesAreStats: one account, two exposures. Every
// terminal outcome, a prefetch hit and the degrade ladder are driven
// through one gateway, and each cachegen_gateway_*_total series in the
// exposition equals the matching Stats field.
func TestGatewayOutcomeSeriesAreStats(t *testing.T) {
	r := newTestRing(t, 2)
	gated := newGatedSource(r.pool)
	cfg := r.config(1, true)
	cfg.Source = gated
	cfg.QueueLimit = 2
	cfg.Degrade = true
	cfg.Telemetry = telemetry.NewRegistry()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	blocked, free := r.contexts[0], r.contexts[1]
	gate := gated.block(blocked)
	submit := func(req Request) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := g.Submit(context.Background(), req)
			done <- err
		}()
		return done
	}
	admitted := func(n uint64) {
		t.Helper()
		waitFor(t, time.Second, func() bool { return g.Stats().Admitted == n })
	}

	// The victim holds the only slot until the gate opens. Behind it
	// queue one request that completes (its prefetch lands while it
	// waits, and the half-full queue degrades it) and one whose
	// deadline expires in the queue.
	victim := submit(Request{Tenant: "t", ContextID: blocked})
	admitted(1)
	served := submit(Request{Tenant: "t", ContextID: free})
	admitted(2)
	expired := submit(Request{Tenant: "t", ContextID: free, Deadline: 100 * time.Millisecond})
	admitted(3)
	if _, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: free}); !errors.Is(err, ErrRejected) {
		t.Fatalf("submit past the queue bound returned %v, want ErrRejected", err)
	}
	if err := <-expired; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request past its deadline returned %v, want DeadlineExceeded", err)
	}
	// A prefetch of a missing context fails while it queues.
	if _, err := g.Submit(context.Background(), Request{Tenant: "t", ContextID: "no-such-context"}); err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("request for a missing context returned %v, want a fetch failure", err)
	}
	close(gate)
	for _, done := range []chan error{victim, served} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	st := g.Stats()
	var prom strings.Builder
	cfg.Telemetry.WritePrometheus(&prom)
	for _, c := range []struct {
		series string
		n      uint64
	}{
		{"admitted", st.Admitted}, {"rejected", st.Rejected}, {"timed_out", st.TimedOut},
		{"completed", st.Completed}, {"failed", st.Failed},
		{"prefetch_hits", st.PrefetchHits}, {"degraded", st.Degraded},
	} {
		if c.n == 0 {
			t.Errorf("Stats counted no %s outcome; the test drove one", c.series)
		}
		line := fmt.Sprintf("\ncachegen_gateway_%s_total %g\n", c.series, float64(c.n))
		if !strings.Contains(prom.String(), line) {
			t.Errorf("exposition lacks %q (Stats: %+v):\n%s", strings.TrimSpace(line), st, prom.String())
		}
	}
}
