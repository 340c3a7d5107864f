package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/resilience"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// dialTimeout bounds the dialer: a node that silently drops
// packets must not hold a fetch (and its failover to a live replica)
// hostage to the OS connect timeout.
const dialTimeout = 5 * time.Second

// ErrFleetUnavailable distinguishes "no replica is routable" from an
// ordinary fetch error: every candidate is marked dead (or, on a chunk
// stream, already failed this position), so the pool failed fast
// without a dial. Callers match it with errors.Is.
var ErrFleetUnavailable = errors.New("every replica marked failed")

// dial opens a connection to a node (its ring id is its address). It
// honors ctx: a cancelled or expired request abandons the dial too, not
// just the round trips after it.
func dial(ctx context.Context, addr string) (*transport.Client, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	return transport.NewClient(conn), nil
}

// Pool is the inference-server side of the cluster: it resolves chunks to
// nodes through the ring, keeps one reused connection per node, fails
// over to replicas when a node dies, and fans batch fetches out across
// nodes in parallel. It satisfies streamer.ChunkSource, so a Fetcher
// streams from a fleet exactly as it would from one server. Safe for
// concurrent use.
//
// Every single-answer fetch (manifest, chunk, bank) is one walk over
// the key's replicas, tryNodes. Failure handling routes through a
// resilience.Manager: request and dial outcomes feed a per-node health
// state machine, a dead node is out of routing until the active prober
// (or Invalidate) brings it back, a chunk fetch hedges — starts its
// failover to the next replica early — after the first node's adaptive
// P99 delay, and all failovers and hedges draw from one token-bucket
// retry budget so the pool cannot storm a browning-out fleet.
type Pool struct {
	ring *Ring
	// reqTimeout bounds each per-node attempt (dial + round trip). 0 =
	// only the caller's ctx (or its deadline budget) bounds it.
	reqTimeout time.Duration

	res    *resilience.Manager
	resCfg resilience.Config
	hedge  bool
	reg    *telemetry.Registry

	// mu guards the node map and the closed flag only; dialing happens
	// under the per-node lock, so a slow connect to one node never
	// stalls fetches going to the rest of the fleet.
	mu     sync.Mutex
	nodes  map[string]*poolNode
	closed bool

	dials     atomic.Uint64
	failovers atomic.Uint64
	requests  atomic.Uint64 // logical operations (one per tryNodes walk)
	attempts  atomic.Uint64 // network attempts, including retries and hedges
}

// poolNode is the per-node connection slot. Health bookkeeping lives in
// the resilience manager; this is just the reused transport.
type poolNode struct {
	mu     sync.Mutex
	client *transport.Client
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// WithRequestTimeout bounds every per-node attempt (dial plus round
// trip) so failover moves past a node that accepts connections but
// never answers — a hung process, a half-dead kernel — instead of
// pinning the request until the caller's deadline. 0 disables the
// per-attempt bound. When the request carries a deadline budget, the
// effective attempt timeout is the smaller of this and the remaining
// budget split across the attempts left.
func WithRequestTimeout(d time.Duration) PoolOption {
	return func(p *Pool) { p.reqTimeout = d }
}

// WithResilience tunes the pool's failure domain (dead threshold, probe
// cadence, retry budget). Zero fields default.
func WithResilience(cfg resilience.Config) PoolOption {
	return func(p *Pool) { p.resCfg = cfg }
}

// WithHedging enables or disables hedged chunk fetches (default on):
// a chunk request still unanswered past the first node's adaptive P99
// latency starts its failover to the next replica without waiting for
// the first to fail; first answer wins. A failover after a failure is
// never counted as a hedge.
func WithHedging(enabled bool) PoolOption {
	return func(p *Pool) { p.hedge = enabled }
}

// WithTelemetry mirrors the pool's counters (dials, failovers, open
// connections, attempts) and its resilience state (node health,
// hedges, retry budget) into a live metrics registry as
// function gauges over the same atomics Stats() reads — one
// accounting, two exposures. Nil reg is a no-op.
func WithTelemetry(reg *telemetry.Registry) PoolOption {
	return func(p *Pool) { p.reg = reg }
}

// attemptCtx derives the per-attempt context: the configured request
// timeout, shrunk to the remaining deadline budget split across the
// attempts still available when the request carries one. budgeted
// reports that the request's budget, not the configured timeout, set
// the attempt's deadline.
func (p *Pool) attemptCtx(ctx context.Context, attemptsLeft int) (attempt context.Context, cancel context.CancelFunc, budgeted bool) {
	t := resilience.AttemptTimeout(ctx, p.reqTimeout, attemptsLeft)
	if t <= 0 {
		attempt, cancel = context.WithCancel(ctx)
		return attempt, cancel, false
	}
	attempt, cancel = context.WithTimeout(ctx, t)
	return attempt, cancel, t != p.reqTimeout
}

// NewPool returns a pool over the ring's nodes and starts its health
// prober. Close stops the prober.
func NewPool(ring *Ring, opts ...PoolOption) *Pool {
	p := &Pool{ring: ring, nodes: map[string]*poolNode{}, hedge: true}
	for _, o := range opts {
		o(p)
	}
	p.res = resilience.New(p.resCfg)
	if p.reg != nil {
		reg := p.reg
		reg.GaugeFunc("cachegen_cluster_dials_total", "connections opened (reconnects included)", func() float64 {
			return float64(p.dials.Load())
		})
		reg.GaugeFunc("cachegen_cluster_failovers_total", "fetch attempts moved past a failed node", func() float64 {
			return float64(p.failovers.Load())
		})
		reg.GaugeFunc("cachegen_cluster_open_conns", "live per-node connections", func() float64 {
			return float64(p.Stats().OpenConns)
		})
		reg.GaugeFunc("cachegen_cluster_attempts_total", "network attempts (retries and hedges included)", func() float64 {
			return float64(p.attempts.Load())
		})
		reg.GaugeFunc("cachegen_cluster_requests_total", "logical fetch operations", func() float64 {
			return float64(p.requests.Load())
		})
		p.res.Register(reg)
	}
	p.res.StartProber(p.probe)
	return p
}

// probe is the active health check: a fresh dial plus the cheapest
// round trip, off the cached connection path so a probe never fights a
// request for the per-node slot.
func (p *Pool) probe(ctx context.Context, node string) error {
	c, err := dial(ctx, node)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Usage(ctx)
	return err
}

// Resilience exposes the pool's failure domain (health states, budget
// accounting) for harnesses and debug endpoints.
func (p *Pool) Resilience() *resilience.Manager { return p.res }

// PoolStats snapshots the pool's counters.
type PoolStats struct {
	// Dials is the number of connections opened (reconnects included).
	Dials uint64
	// Failovers counts fetch attempts that moved past a failed node to a
	// replica.
	Failovers uint64
	// OpenConns is the number of live per-node connections.
	OpenConns int
	// Requests counts logical fetch operations; Attempts counts network
	// attempts including retries and hedges, so Attempts/Requests is
	// the fleet's request amplification.
	Requests uint64
	Attempts uint64
}

// Stats returns the pool's counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	slots := make([]*poolNode, 0, len(p.nodes))
	for _, n := range p.nodes {
		slots = append(slots, n)
	}
	p.mu.Unlock()
	open := 0
	for _, n := range slots {
		n.mu.Lock()
		if n.client != nil {
			open++
		}
		n.mu.Unlock()
	}
	return PoolStats{
		Dials:     p.dials.Load(),
		Failovers: p.failovers.Load(),
		OpenConns: open,
		Requests:  p.requests.Load(),
		Attempts:  p.attempts.Load(),
	}
}

// Close stops the prober and closes every node connection. Subsequent
// fetches fail.
func (p *Pool) Close() error {
	p.res.Close()
	p.mu.Lock()
	p.closed = true
	slots := make([]*poolNode, 0, len(p.nodes))
	for _, n := range p.nodes {
		slots = append(slots, n)
	}
	p.mu.Unlock()
	var err error
	for _, n := range slots {
		n.mu.Lock()
		if n.client != nil {
			if e := n.client.Close(); e != nil && err == nil {
				err = e
			}
			n.client = nil
		}
		n.mu.Unlock()
	}
	return err
}

// slot returns the per-node connection slot, creating it if needed.
func (p *Pool) slot(node string) (*poolNode, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errors.New("cluster: pool is closed")
	}
	n, ok := p.nodes[node]
	if !ok {
		n = &poolNode{}
		p.nodes[node] = n
	}
	return n, nil
}

// client returns the reused connection to a node, dialing if needed.
// Dials run under the node's own lock, concurrently across nodes. The
// dial honors ctx, so an abandoned request (a gateway deadline, say)
// is not pinned for the full connect timeout by a node that blackholes
// packets. Repeated dials to a dead node are prevented one level up:
// routing skips dead nodes.
func (p *Pool) client(ctx context.Context, node string) (*transport.Client, error) {
	n, err := p.slot(node)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.client != nil {
		return n.client, nil
	}
	c, err := dial(ctx, node)
	if err != nil {
		if ctx.Err() == nil {
			// A cancelled dial says nothing about the node's health;
			// only genuine failures feed the state machine.
			p.res.ReportFailure(node)
		}
		return nil, err
	}
	p.dials.Add(1)
	n.client = c
	return c, nil
}

// Invalidate drops a node's cached connection and fast-paths it back
// into rotation (state recovering), so the next
// request redials immediately. Chaos healing calls this when a killed
// node restarts or a partition lifts — the same shortcut the health
// prober takes on its own when a probe to a dead node succeeds.
func (p *Pool) Invalidate(node string) {
	p.res.MarkRecovered(node)
	p.mu.Lock()
	n := p.nodes[node]
	p.mu.Unlock()
	if n == nil {
		return
	}
	n.mu.Lock()
	c := n.client
	n.client = nil
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// discard drops a node's cached connection after a transport failure so
// the next request to that node redials instead of reusing a dead socket.
func (p *Pool) discard(node string, c *transport.Client) {
	p.mu.Lock()
	n := p.nodes[node]
	p.mu.Unlock()
	if n != nil {
		n.mu.Lock()
		if n.client == c {
			n.client = nil
		}
		n.mu.Unlock()
	}
	c.Close()
}

// keepConn reports whether the connection is still usable after err: the
// server answered (a remote application error or a clean not-found), as
// opposed to a dead or misbehaving transport.
func keepConn(err error) bool {
	var remote *transport.RemoteError
	return errors.As(err, &remote) || errors.Is(err, storage.ErrNotFound)
}

// tryNodes walks the routable candidates, in health order (healthy and
// recovering first, suspect next, dead never), until one answers, and
// returns op's value. Each attempt runs through withNode in its own
// goroutine. Moving on after a failed attempt is a failover and counts
// in Failovers; past a transport failure it spends a retry-budget
// token, past a clean not-found or a remote application error it is
// free (the node answered — that is replica semantics, not a retry).
// When every candidate is dead the call fails fast with
// ErrFleetUnavailable.
//
// A hedge is the next failover started early: with hedge set, the
// first candidate's latency histogram warm and a second candidate
// routable, a first attempt still unanswered past that node's adaptive
// hedge delay starts the next candidate under a retry-budget token,
// without waiting for the first to fail. The first answer wins and the
// loser is cancelled. A hedge fires at most once per call, and only a
// win by the timer-started attempt counts as a hedge win. When both
// attempts of a race fail, the walk goes on down the list.
//
// When notFoundIsFinal is set, a clean storage.ErrNotFound from a live
// node is treated as authoritative and returned immediately instead of
// burning a round trip per replica (used for metadata, which is on
// every node; chunk fetches do try replicas on not-found, since the
// primary may have joined the ring after publish).
func tryNodes[T any](ctx context.Context, p *Pool, nodes []string, what string, notFoundIsFinal, hedge bool, op func(ctx context.Context, c *transport.Client) (T, error)) (T, error) {
	var zero T
	if len(nodes) == 0 {
		return zero, fmt.Errorf("cluster: no nodes in ring for %s", what)
	}
	p.requests.Add(1)
	p.res.OnRequest()
	ordered := p.res.Order(nodes)
	if len(ordered) == 0 {
		p.res.OnFastFail()
		return zero, fmt.Errorf("cluster: %s: %w", what, ErrFleetUnavailable)
	}
	// A cancelled or expired request must not sweep the replica set:
	// each attempt costs a dial or a round trip the caller no longer
	// wants.
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("cluster: %s: %w", what, err)
	}
	var hedgeTimer <-chan time.Time
	if hedge && len(ordered) > 1 {
		if delay, warm := p.res.HedgeDelay(ordered[0]); warm {
			t := time.NewTimer(delay)
			defer t.Stop()
			hedgeTimer = t.C
		}
	}

	walk, cancel := context.WithCancel(ctx)
	defer cancel() // loser cancellation: the first answer wins below
	type answer struct {
		v      T
		err    error
		node   string
		hedged bool
	}
	// One slot per candidate, so a cancelled loser's late send never
	// blocks once the walk has returned.
	answers := make(chan answer, len(ordered))
	next, inflight := 0, 0
	launch := func(hedged bool) {
		node, left := ordered[next], len(ordered)-next
		next++
		inflight++
		go func() {
			v, err := withNode(walk, p, node, left, op)
			answers <- answer{v, err, node, hedged}
		}()
	}
	launch(false)
	var lastErr error
	for {
		select {
		case a := <-answers:
			inflight--
			if a.err == nil {
				if a.hedged {
					p.res.OnHedgeWin()
				}
				// Stamp the serving node on the request's span, so a trace
				// shows which replica answered (last writer wins per key).
				telemetry.Annotate(ctx, "node", a.node)
				return a.v, nil
			}
			if notFoundIsFinal && errors.Is(a.err, storage.ErrNotFound) {
				return zero, fmt.Errorf("cluster: %s: %w", what, a.err)
			}
			lastErr = fmt.Errorf("node %s: %w", a.node, a.err)
			if ctx.Err() != nil {
				return zero, lastErr
			}
			if inflight > 0 {
				continue // the other side of a hedge race may still answer
			}
			if next == len(ordered) {
				return zero, fmt.Errorf("cluster: %s failed on all %d replicas tried: %w", what, len(ordered), lastErr)
			}
			if !keepConn(a.err) && !p.res.TryRetry() {
				return zero, fmt.Errorf("cluster: %s: retry budget exhausted after %d attempts: %w", what, next, lastErr)
			}
			p.failovers.Add(1)
			telemetry.Event(ctx, "failover",
				telemetry.Attr{Key: "what", Value: what},
				telemetry.Attr{Key: "node", Value: ordered[next]})
			hedgeTimer = nil // the hedge belongs to the first attempt only
			launch(false)
		case <-hedgeTimer:
			hedgeTimer = nil
			if ctx.Err() == nil && p.res.TryRetry() {
				p.res.OnHedge()
				telemetry.Event(ctx, "hedge",
					telemetry.Attr{Key: "what", Value: what},
					telemetry.Attr{Key: "node", Value: ordered[next]})
				launch(true)
			}
		}
	}
}

// withNode runs one attempt against one node under the per-attempt
// timeout, feeding the outcome to the health state machine and
// discarding the connection on transport failures.
func withNode[T any](ctx context.Context, p *Pool, node string, attemptsLeft int, op func(ctx context.Context, c *transport.Client) (T, error)) (T, error) {
	p.attempts.Add(1)
	attempt, cancel, budgeted := p.attemptCtx(ctx, attemptsLeft)
	defer cancel()
	start := time.Now()
	c, err := p.client(attempt, node)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := op(attempt, c)
	if err != nil {
		switch {
		case keepConn(err):
			// The node answered; the application-level error is not a
			// health signal.
			p.res.ReportSuccess(node, time.Since(start))
		case (ctx.Err() != nil || budgeted && attempt.Err() == context.DeadlineExceeded) && c.Err() == nil && c.Abandoned() <= 1:
			// The caller gave up (a hedge loser, a gateway deadline, a
			// failed fetch cancelling its siblings), or the request's
			// own budget set this deadline and ran out: neither says
			// anything about the node. Keep the connection too — it is
			// shared by every other round trip and stream to the node,
			// and an abandoned wait consumes its late answer, so later
			// round trips stay aligned. This attempt's wait must be the
			// only one abandoned: a node still owing the answer to an
			// earlier request is not just slow against one caller, and
			// keeping its connection would queue requests behind the
			// backlog.
		default:
			p.discard(node, c)
			if ctx.Err() == nil {
				// The caller abandoning the request (parent ctx dead)
				// says nothing about the node; the configured
				// per-attempt timeout with a live parent does, and so
				// does a budget expiry behind an unanswered request.
				p.res.ReportFailure(node)
			}
		}
		return v, err
	}
	p.res.ReportSuccess(node, time.Since(start))
	return v, nil
}

// GetManifest fetches a context's manifest. Manifests are replicated to
// every node at publish time, so any node can answer; candidates are
// tried in ring order from the context's hash, spreading manifest load.
func (p *Pool) GetManifest(ctx context.Context, contextID string) (storage.Manifest, error) {
	nodes := p.ring.Locate(manifestRingKey(contextID), p.ring.Len())
	return tryNodes(ctx, p, nodes, fmt.Sprintf("manifest %q", contextID), true, false, func(ctx context.Context, c *transport.Client) (storage.Manifest, error) {
		return c.GetManifest(ctx, contextID)
	})
}

// GetChunkData fetches one chunk payload by content hash, trying the
// hash's primary node first and failing over to its replicas. A replica
// is also tried on not-found (the primary may have joined after
// publish). With hedging on and the primary's latency histogram warm,
// a request unanswered past the primary's P99 starts the failover to
// the next replica early, under the retry budget — first answer wins,
// the loser is cancelled.
func (p *Pool) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	return tryNodes(ctx, p, p.ring.ChunkNodes(hash), fmt.Sprintf("chunk %.12s…", hash), false, p.hedge, func(ctx context.Context, c *transport.Client) ([]byte, error) {
		return c.GetChunkData(ctx, hash)
	})
}

// eachNode runs op against every ring node in parallel (one goroutine
// per node over its reused connection) and returns the per-node values
// and errors, positionally aligned with the returned node list.
// Fleet-wide admin ops pay the slowest node, not the sum — with a
// per-attempt timeout, a hung node costs reqTimeout once, concurrently
// with the healthy nodes' work.
func eachNode[T any](ctx context.Context, p *Pool, op func(ctx context.Context, c *transport.Client) (T, error)) ([]string, []T, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, err
	}
	nodes := p.ring.Nodes()
	vals := make([]T, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals[i], errs[i] = withNode(ctx, p, node, 1, op)
		}()
	}
	wg.Wait()
	return nodes, vals, errs, nil
}

// DeleteContext drops a context's manifest on every node (manifests are
// replicated fleet-wide), releasing its payload references for each
// node's sweeper. It succeeds if any node held the context.
func (p *Pool) DeleteContext(ctx context.Context, contextID string) error {
	nodes, _, errs, err := eachNode(ctx, p, func(ctx context.Context, c *transport.Client) (struct{}, error) {
		return struct{}{}, c.DeleteContext(ctx, contextID)
	})
	if err != nil {
		return fmt.Errorf("cluster: delete %q: %w", contextID, err)
	}
	found := false
	for i, err := range errs {
		switch {
		case err == nil:
			found = true
		case !errors.Is(err, storage.ErrNotFound):
			return fmt.Errorf("cluster: delete %q: node %s: %w", contextID, nodes[i], err)
		}
	}
	if !found {
		return fmt.Errorf("%w: context %q", storage.ErrNotFound, contextID)
	}
	return nil
}

// Sweep triggers a garbage-collection sweep on every node — the
// fleet-wide reclamation pass after DeleteContext — and sums their
// accountings. Nodes that cannot be reached contribute an error but do
// not stop the remaining nodes from sweeping.
func (p *Pool) Sweep(ctx context.Context, minAge time.Duration) (storage.SweepResult, error) {
	var agg storage.SweepResult
	nodes, results, errs, err := eachNode(ctx, p, func(ctx context.Context, c *transport.Client) (storage.SweepResult, error) {
		return c.Sweep(ctx, minAge)
	})
	if err != nil {
		return agg, fmt.Errorf("cluster: sweep: %w", err)
	}
	for _, r := range results {
		agg.Add(r)
	}
	for i, err := range errs {
		if err != nil {
			return agg, fmt.Errorf("cluster: sweep: node %s: %w", nodes[i], err)
		}
	}
	return agg, nil
}

// Usage sums the fleet's physical footprint (replicas count as real
// bytes).
func (p *Pool) Usage(ctx context.Context) (storage.Usage, error) {
	var agg storage.Usage
	nodes, usages, errs, err := eachNode(ctx, p, func(ctx context.Context, c *transport.Client) (storage.Usage, error) {
		return c.Usage(ctx)
	})
	if err != nil {
		return agg, fmt.Errorf("cluster: usage: %w", err)
	}
	for _, u := range usages {
		agg.Add(u)
	}
	for i, err := range errs {
		if err != nil {
			return agg, fmt.Errorf("cluster: usage: node %s: %w", nodes[i], err)
		}
	}
	return agg, nil
}

// GetBank fetches the codec model bank from any node that serves one.
func (p *Pool) GetBank(ctx context.Context) ([]byte, error) {
	return tryNodes(ctx, p, p.ring.Nodes(), "model bank", false, false, func(ctx context.Context, c *transport.Client) ([]byte, error) {
		return c.GetBank(ctx)
	})
}
