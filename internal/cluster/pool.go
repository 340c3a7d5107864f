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

// ErrFleetUnavailable distinguishes "every replica is marked failed"
// from an ordinary fetch error: the pool failed fast instead of
// spinning through an attempt list it knows is dead. Callers match it
// with errors.Is.
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
// Failure handling routes through a resilience.Manager: request and
// dial outcomes feed a per-node health state machine whose circuit
// breakers gate attempts (subsuming the old dial-backoff negative
// cache), an active prober fast-paths healed nodes back into rotation,
// chunk fetches hedge to a replica after the node's adaptive P99
// delay, and all retries and hedges draw from one token-bucket retry
// budget so the pool cannot storm a browning-out fleet.
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
	requests  atomic.Uint64 // logical operations (one per tryNodes/hedged fetch)
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

// WithResilience tunes the pool's failure domain (probe cadence,
// breaker cooldown, retry budget, hedge clamps). Zero fields default.
func WithResilience(cfg resilience.Config) PoolOption {
	return func(p *Pool) { p.resCfg = cfg }
}

// WithHedging enables or disables hedged chunk fetches (default on):
// a chunk request still unanswered past the serving node's adaptive
// P99 latency is duplicated to the next replica, first answer wins.
func WithHedging(enabled bool) PoolOption {
	return func(p *Pool) { p.hedge = enabled }
}

// WithTelemetry mirrors the pool's counters (dials, failovers, open
// connections, attempts) and its resilience state (node health,
// breakers, hedges, retry budget) into a live metrics registry as
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
// prober (disable by setting a negative ProbeInterval via
// WithResilience). Close stops the prober.
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

// Resilience exposes the pool's failure domain (health states, breaker
// and budget accounting) for harnesses and debug endpoints.
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
// its circuit breaker stops requests being routed here at all.
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
// into rotation (breaker closed, state recovering), so the next
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

// tryNodes runs op against candidate nodes until one succeeds, routing
// by health (healthy and recovering first, dead last), skipping nodes
// whose breaker is open, discarding dead connections, and counting
// failovers past the first attempt. Failing over past a transport
// failure spends a retry-budget token; moving past a clean not-found
// or a remote application error is free (the node answered — that is
// replica semantics, not a retry). When every candidate is skipped the
// call fails fast with ErrFleetUnavailable instead of burning the
// attempt list, as it does when all candidates are dead and the
// remaining deadline budget cannot fund even one attempt.
//
// When notFoundIsFinal is set, a clean storage.ErrNotFound from a live
// node is treated as authoritative and returned immediately instead of
// burning a round trip per replica (used for metadata, which is on
// every node; chunk fetches do try replicas on not-found, since the
// primary may have joined the ring after publish).
func (p *Pool) tryNodes(ctx context.Context, nodes []string, what string, notFoundIsFinal bool, op func(ctx context.Context, c *transport.Client) error) error {
	if len(nodes) == 0 {
		return fmt.Errorf("cluster: no nodes in ring for %s", what)
	}
	p.requests.Add(1)
	p.res.OnRequest()
	ordered, allDead := p.res.Order(nodes)
	if allDead {
		if rem, ok := resilience.Remaining(ctx); ok && rem < 2*resilience.AttemptFloor {
			// Nothing is routable and the budget cannot fund a
			// half-open trial: fail fast, distinguishably.
			p.res.OnFastFail()
			return fmt.Errorf("cluster: %s: %w", what, ErrFleetUnavailable)
		}
	}
	var lastErr error
	attempted := 0
	lastWasFailure := false
	for i, node := range ordered {
		// A cancelled or expired request must not sweep the replica set:
		// each attempt costs a dial or a round trip the caller no longer
		// wants.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cluster: %s: %w", what, err)
		}
		if !p.res.Allow(node) {
			continue
		}
		if attempted > 0 {
			if lastWasFailure && !p.res.TryRetry() {
				return fmt.Errorf("cluster: %s: retry budget exhausted after %d attempts: %w", what, attempted, lastErr)
			}
			p.failovers.Add(1)
			telemetry.Event(ctx, "failover",
				telemetry.Attr{Key: "what", Value: what},
				telemetry.Attr{Key: "node", Value: node})
		}
		attempted++
		err := p.withNode(ctx, node, len(ordered)-i, op)
		if err != nil {
			if notFoundIsFinal && errors.Is(err, storage.ErrNotFound) {
				return fmt.Errorf("cluster: %s: %w", what, err)
			}
			lastErr = fmt.Errorf("node %s: %w", node, err)
			lastWasFailure = !keepConn(err)
			if ctx.Err() != nil {
				return lastErr
			}
			continue
		}
		// Stamp the serving node on the request's span, so a trace shows
		// which replica ultimately answered (last writer wins per key).
		telemetry.Annotate(ctx, "node", node)
		return nil
	}
	if attempted == 0 {
		p.res.OnFastFail()
		return fmt.Errorf("cluster: %s: %w", what, ErrFleetUnavailable)
	}
	return fmt.Errorf("cluster: %s failed on all %d replicas tried: %w", what, attempted, lastErr)
}

// withNode runs one attempt against one node under the per-attempt
// timeout, feeding the outcome to the health state machine and
// discarding the connection on transport failures.
func (p *Pool) withNode(ctx context.Context, node string, attemptsLeft int, op func(ctx context.Context, c *transport.Client) error) error {
	p.attempts.Add(1)
	attempt, cancel, budgeted := p.attemptCtx(ctx, attemptsLeft)
	defer cancel()
	start := time.Now()
	c, err := p.client(attempt, node)
	if err != nil {
		return err
	}
	if err := op(attempt, c); err != nil {
		switch {
		case keepConn(err):
			// The node answered; the application-level error is not a
			// health signal.
			p.res.ReportSuccess(node, time.Since(start))
		case budgeted && ctx.Err() == nil && attempt.Err() == context.DeadlineExceeded && c.Err() == nil && c.Abandoned() <= 1:
			// The request's own budget set this deadline and ran out,
			// which says nothing about the node. Keep the connection
			// too: an abandoned wait consumes its late answer, so later
			// round trips stay aligned. This attempt's wait must be the
			// only one abandoned: a node still owing the answer to an
			// earlier request is not just slow against one budget, and
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
		return err
	}
	p.res.ReportSuccess(node, time.Since(start))
	return nil
}

// GetManifest fetches a context's manifest. Manifests are replicated to
// every node at publish time, so any node can answer; candidates are
// tried in ring order from the context's hash, spreading manifest load.
func (p *Pool) GetManifest(ctx context.Context, contextID string) (storage.Manifest, error) {
	var man storage.Manifest
	nodes := p.ring.Locate(manifestRingKey(contextID), p.ring.Len())
	err := p.tryNodes(ctx, nodes, fmt.Sprintf("manifest %q", contextID), true, func(ctx context.Context, c *transport.Client) error {
		m, err := c.GetManifest(ctx, contextID)
		if err == nil {
			man = m
		}
		return err
	})
	return man, err
}

// GetChunkData fetches one chunk payload by content hash, trying the
// hash's primary node first and failing over to its replicas. A replica
// is also tried on not-found (the primary may have joined after
// publish). With hedging on and the primary's latency histogram warm,
// a request unanswered past the primary's P99 is duplicated to the
// next replica under the retry budget — first answer wins, the loser
// is cancelled.
func (p *Pool) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	nodes := p.ring.ChunkNodes(hash)
	if p.hedge && len(nodes) > 1 {
		if data, handled, err := p.getChunkHedged(ctx, hash, nodes); handled {
			return data, err
		}
	}
	var data []byte
	err := p.tryNodes(ctx, nodes, fmt.Sprintf("chunk %.12s…", hash), false, func(ctx context.Context, c *transport.Client) error {
		d, err := c.GetChunkData(ctx, hash)
		if err == nil {
			data = d
		}
		return err
	})
	return data, err
}

// getChunkHedged is the first-wins duplicate fetch: the primary gets a
// head start of its adaptive hedge delay; if it has not answered by
// then (or fails outright), the same chunk-by-hash request goes to the
// next live replica, and whichever answers first wins while the loser
// is cancelled. handled=false falls back to the sequential path (cold
// latency histogram, no live secondary, blocked primary).
func (p *Pool) getChunkHedged(parent context.Context, hash string, nodes []string) (data []byte, handled bool, err error) {
	if parent.Err() != nil {
		return nil, false, nil
	}
	ordered, _ := p.res.Order(nodes)
	primary := ordered[0]
	delay, warm := p.res.HedgeDelay(primary)
	if !warm {
		return nil, false, nil
	}
	var secondary string
	for _, n := range ordered[1:] {
		if p.res.State(n) != resilience.Dead {
			secondary = n
			break
		}
	}
	if secondary == "" || !p.res.Allow(primary) {
		return nil, false, nil
	}
	p.requests.Add(1)
	p.res.OnRequest()

	ctx, cancel := context.WithCancel(parent)
	defer cancel() // loser cancellation: first answer wins below
	type result struct {
		data   []byte
		err    error
		node   string
		hedged bool
	}
	ch := make(chan result, 2)
	fetch := func(node string, hedged bool) {
		var d []byte
		err := p.withNode(ctx, node, 1, func(ctx context.Context, c *transport.Client) error {
			b, err := c.GetChunkData(ctx, hash)
			if err == nil {
				d = b
			}
			return err
		})
		ch <- result{d, err, node, hedged}
	}
	go fetch(primary, false)
	launched := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var firstErr error
	for done := 0; done < launched; {
		select {
		case r := <-ch:
			done++
			if r.err == nil {
				if r.hedged {
					p.res.OnHedgeWin()
				}
				telemetry.Annotate(parent, "node", r.node)
				return r.data, true, nil
			}
			if firstErr == nil || errors.Is(firstErr, context.Canceled) {
				firstErr = r.err
			}
			if launched == 1 && parent.Err() == nil {
				// The primary failed before the hedge fired: fail over
				// now. Moving past an answer (not-found, remote error)
				// is free; past a transport failure it spends a token.
				if keepConn(r.err) || p.res.TryRetry() {
					p.failovers.Add(1)
					telemetry.Event(parent, "failover",
						telemetry.Attr{Key: "what", Value: fmt.Sprintf("chunk %.12s…", hash)},
						telemetry.Attr{Key: "node", Value: secondary})
					launched++
					go fetch(secondary, true)
				}
			}
		case <-timer.C:
			if launched == 1 && p.res.Allow(secondary) && p.res.TryRetry() {
				p.res.OnHedge()
				telemetry.Event(parent, "hedge",
					telemetry.Attr{Key: "what", Value: fmt.Sprintf("chunk %.12s…", hash)},
					telemetry.Attr{Key: "node", Value: secondary})
				launched++
				go fetch(secondary, true)
			}
		case <-parent.Done():
			// Outstanding fetches unwind via ctx; their sends land in
			// the buffered channel.
			return nil, true, fmt.Errorf("cluster: chunk %.12s…: %w", hash, parent.Err())
		}
	}
	return nil, true, fmt.Errorf("cluster: chunk %.12s… failed on %d replicas tried: %w", hash, launched, firstErr)
}

// eachNode runs op against every ring node in parallel (one goroutine
// per node over its reused connection) and returns the per-node errors,
// positionally aligned with the returned node list. Fleet-wide admin
// ops pay the slowest node, not the sum — with a per-attempt timeout, a
// hung node costs reqTimeout once, concurrently with the healthy nodes'
// work.
func (p *Pool) eachNode(ctx context.Context, op func(ctx context.Context, c *transport.Client) error) ([]string, []error, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	nodes := p.ring.Nodes()
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			errs[i] = p.withNode(ctx, node, 1, op)
		}(i, node)
	}
	wg.Wait()
	return nodes, errs, nil
}

// DeleteContext drops a context's manifest on every node (manifests are
// replicated fleet-wide), releasing its payload references for each
// node's sweeper. It succeeds if any node held the context.
func (p *Pool) DeleteContext(ctx context.Context, contextID string) error {
	found := atomic.Bool{}
	nodes, errs, err := p.eachNode(ctx, func(ctx context.Context, c *transport.Client) error {
		err := c.DeleteContext(ctx, contextID)
		if err == nil {
			found.Store(true)
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("cluster: delete %q: %w", contextID, err)
	}
	for i, err := range errs {
		if err != nil && !errors.Is(err, storage.ErrNotFound) {
			return fmt.Errorf("cluster: delete %q: node %s: %w", contextID, nodes[i], err)
		}
	}
	if !found.Load() {
		return fmt.Errorf("%w: context %q", storage.ErrNotFound, contextID)
	}
	return nil
}

// Sweep triggers a garbage-collection sweep on every node — the
// fleet-wide reclamation pass after DeleteContext — and sums their
// accountings. Nodes that cannot be reached contribute an error but do
// not stop the remaining nodes from sweeping.
func (p *Pool) Sweep(ctx context.Context, minAge time.Duration) (storage.SweepResult, error) {
	var mu sync.Mutex
	var agg storage.SweepResult
	nodes, errs, err := p.eachNode(ctx, func(ctx context.Context, c *transport.Client) error {
		res, err := c.Sweep(ctx, minAge)
		if err == nil {
			mu.Lock()
			agg.Add(res)
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		return agg, fmt.Errorf("cluster: sweep: %w", err)
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
	var mu sync.Mutex
	var agg storage.Usage
	nodes, errs, err := p.eachNode(ctx, func(ctx context.Context, c *transport.Client) error {
		u, err := c.Usage(ctx)
		if err == nil {
			mu.Lock()
			agg.Add(u)
			mu.Unlock()
		}
		return err
	})
	if err != nil {
		return agg, fmt.Errorf("cluster: usage: %w", err)
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
	var bank []byte
	err := p.tryNodes(ctx, p.ring.Nodes(), "model bank", false, func(ctx context.Context, c *transport.Client) error {
		b, err := c.GetBank(ctx)
		if err == nil {
			bank = b
		}
		return err
	})
	return bank, err
}

// GetChunkBatch fetches many payloads by content hash, fanning out
// across the fleet: hashes are grouped by primary node and each group
// runs on its own goroutine over that node's reused connection, so
// wall-clock approaches the slowest shard rather than the sum of all
// transfers. Per-chunk replica failover, hedging, and the fleet-
// unavailable fast-fail still apply chunk by chunk. The result is
// indexed like hashes.
func (p *Pool) GetChunkBatch(ctx context.Context, hashes []string) ([][]byte, error) {
	byNode := map[string][]int{} // primary node → positions in hashes
	for pos, h := range hashes {
		nodes := p.ring.ChunkNodes(h)
		if len(nodes) == 0 {
			return nil, fmt.Errorf("cluster: no nodes in ring for chunk %.12s…", h)
		}
		byNode[nodes[0]] = append(byNode[nodes[0]], pos)
	}
	// One shard failing dooms the whole batch, so cancel the siblings
	// rather than letting them transfer payloads the caller will discard.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([][]byte, len(hashes))
	errs := make(chan error, len(byNode))
	var wg sync.WaitGroup
	for _, positions := range byNode {
		wg.Add(1)
		go func(positions []int) {
			defer wg.Done()
			for _, pos := range positions {
				if ctx.Err() != nil {
					errs <- ctx.Err()
					return
				}
				data, err := p.GetChunkData(ctx, hashes[pos])
				if err != nil {
					errs <- err
					cancel()
					return
				}
				out[pos] = data
			}
		}(positions)
	}
	wg.Wait()
	close(errs)
	// Report the root-cause error, not a sibling's context.Canceled.
	var firstErr error
	for err := range errs {
		if firstErr == nil || errors.Is(firstErr, context.Canceled) {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
