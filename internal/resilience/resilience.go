// Package resilience is the fleet's unified failure domain: one place
// that learns, per node, whether the node is worth talking to, how long
// a request to it should be given, and how much extra work (retries,
// hedges, probes) the fleet can afford to spend routing around it.
//
// It generalizes CacheGen's core adaptation idea — spend quality
// deliberately under bandwidth variation — to node health and overload:
// the same request that steps down a quality level under a thin link
// steps around a suspect node, hedges a flaky one, and shrinks its
// per-attempt timeouts as its SLO budget burns.
//
// The pieces, consumed by cluster.Pool, streamer.Fetcher, and the
// gateway:
//
//   - a per-node health state machine (healthy → suspect → dead →
//     recovering → healthy) fed by request outcomes; a dead node is out
//     of routing (Order drops it) until the active prober or a heal
//     hook (MarkRecovered) brings it back;
//   - a token-bucket retry budget bounding total request amplification;
//   - per-node latency histograms whose upper quantile sets the
//     adaptive hedge delay for first-wins duplicate chunk fetches;
//   - deadline-budget propagation helpers (WithBudget / Remaining /
//     AttemptTimeout) threading a request's remaining SLO budget from
//     the gateway through the fetch pipeline into per-attempt timeouts.
package resilience

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// NodeState is one node's position in the health state machine.
type NodeState int32

const (
	// Healthy nodes take traffic in ring order.
	Healthy NodeState = iota
	// Suspect nodes have failed recently but not enough to be written
	// off; they are tried after healthy candidates.
	Suspect
	// Dead nodes failed past the threshold; routing skips them until a
	// probe succeeds or a heal hook marks them recovered.
	Dead
	// Recovering nodes passed a probe or were marked recovered after
	// failing; they take traffic again, and one real success promotes
	// them to Healthy.
	Recovering
)

func (s NodeState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Recovering:
		return "recovering"
	default:
		return "unknown"
	}
}

// Config tunes the failure domain. The zero value means defaults.
//
// The rest is fixed: the first failure demotes a Healthy node to
// Suspect; the hedge delay is a node's P99 latency, but never its
// slowest sample, clamped to [1ms, 250ms], and is trusted once the node
// has 16 latency samples (a request still unanswered past it is probably
// stuck, so a duplicate goes to the next replica).
type Config struct {
	// DeadAfter consecutive failures demote → Dead. Default 3.
	DeadAfter int
	// ProbeInterval is the active prober's cycle; each cycle it probes
	// every suspect and dead node. Default (and any value ≤ 0) 250ms.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe. Default 1s.
	ProbeTimeout time.Duration
	// RetryFraction is how many retry-budget tokens each logical
	// request earns; a retry or hedge spends one. Long-run request
	// amplification is thus bounded by 1+RetryFraction. Default 0.25.
	RetryFraction float64
	// RetryBurst caps the retry-budget bucket (and is its starting
	// balance). Default 16.
	RetryBurst float64
}

// The adaptive hedge delay (see Config).
const (
	minHedgeDelay = time.Millisecond
	maxHedgeDelay = 250 * time.Millisecond
	hedgeWarmup   = 16
)

func (c Config) withDefaults() Config {
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.RetryFraction <= 0 {
		c.RetryFraction = 0.25
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 16
	}
	return c
}

// node is one node's health record.
type node struct {
	mu    sync.Mutex
	state NodeState
	fails int                 // consecutive failures
	lat   telemetry.Histogram // request latency, feeds the hedge delay
}

// Manager tracks every node's health and latency, and owns
// the shared retry budget and the active prober. Safe for concurrent
// use; the zero value is not usable — call New.
type Manager struct {
	cfg    Config
	budget *RetryBudget

	mu    sync.Mutex
	nodes map[string]*node

	probeStop chan struct{}
	probeDone chan struct{}

	probes        atomic.Uint64
	probeFailures atomic.Uint64
	recoveries    atomic.Uint64
	deaths        atomic.Uint64
	hedges        atomic.Uint64
	hedgeWins     atomic.Uint64
	retriesSpent  atomic.Uint64
	retriesDenied atomic.Uint64
	fastFails     atomic.Uint64
}

// New returns a Manager with cfg's zero fields defaulted.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	return &Manager{
		cfg:    cfg,
		budget: NewRetryBudget(cfg.RetryFraction, cfg.RetryBurst),
		nodes:  map[string]*node{},
	}
}

// node returns the record for id, creating it Healthy if new.
func (m *Manager) node(id string) *node {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[id]
	if !ok {
		n = &node{}
		m.nodes[id] = n
	}
	return n
}

// State returns id's current health state (Healthy if never seen).
func (m *Manager) State(id string) NodeState {
	n := m.node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.state
}

// ReportSuccess records a successful attempt against id with its
// latency. Any answer from the node — including a clean not-found or a
// remote application error — counts: the transport is alive.
func (m *Manager) ReportSuccess(id string, d time.Duration) {
	n := m.node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	if d > 0 {
		n.lat.ObserveDuration(d)
	}
	n.fails = 0
	if n.state == Dead {
		m.recoveries.Add(1)
	}
	n.state = Healthy
}

// ReportFailure records a failed attempt (dial error or dead
// transport) against id, advancing the state machine: past the dead
// threshold the node leaves routing.
func (m *Manager) ReportFailure(id string) {
	n := m.node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails++
	switch {
	case n.state == Dead:
		// Already out of routing; a death counts once.
	case n.state == Recovering || n.fails >= m.cfg.DeadAfter:
		// A recovering node that fails again goes straight back to
		// dead: the probe's good news was premature.
		n.state = Dead
		m.deaths.Add(1)
	case n.state == Healthy:
		n.state = Suspect
	}
}

// MarkRecovered fast-paths id back into rotation on external heal
// evidence (an operator action, a chaos heal hook): state Recovering,
// so the next request tries it immediately.
func (m *Manager) MarkRecovered(id string) {
	n := m.node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = 0
	if n.state == Dead {
		m.recoveries.Add(1)
	}
	if n.state != Healthy {
		n.state = Recovering
	}
}

// probeSuccess records a successful active probe: a dead node becomes
// recovering (routable again); a suspect node is confirmed healthy.
func (m *Manager) probeSuccess(id string, d time.Duration) {
	n := m.node(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	if d > 0 {
		n.lat.ObserveDuration(d)
	}
	n.fails = 0
	switch n.state {
	case Dead:
		n.state = Recovering
		m.recoveries.Add(1)
	case Suspect:
		n.state = Healthy
	}
}

// Order returns the routable nodes — every one not Dead — in routing
// preference: healthy and recovering first, suspect next, original
// order preserved within a class. An empty result means no candidate
// is routable.
func (m *Manager) Order(nodes []string) []string {
	ordered := make([]string, 0, len(nodes))
	var suspect []string
	for _, id := range nodes {
		switch m.State(id) {
		case Suspect:
			suspect = append(suspect, id)
		case Dead:
		default:
			ordered = append(ordered, id)
		}
	}
	return append(ordered, suspect...)
}

// HedgeDelay returns the adaptive hedge delay for id — its latency
// histogram's P99, clamped to [1ms, 250ms] — and whether enough samples
// exist to trust it. Below about 150 samples the P99 is the slowest
// sample, so one hiccup would set the delay until enough fast samples
// dilute it; the quantile read is min(0.99, 1-1.5/n), whose rank
// ceil(n-1.5) is at most n-1, so the slowest sample is never the answer.
func (m *Manager) HedgeDelay(id string) (time.Duration, bool) {
	n := m.node(id)
	count := n.lat.Count()
	if count < hedgeWarmup {
		return 0, false
	}
	q := min(0.99, 1-1.5/float64(count))
	d := time.Duration(n.lat.Quantile(q) * float64(time.Second))
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	if d > maxHedgeDelay {
		d = maxHedgeDelay
	}
	return d, true
}

// OnRequest credits the retry budget for one logical request. Callers
// invoke it once per logical operation, not per attempt.
func (m *Manager) OnRequest() { m.budget.OnRequest() }

// TryRetry asks the retry budget for one extra attempt (a failover
// retry or a hedge). Denials are counted for telemetry.
func (m *Manager) TryRetry() bool {
	if m.budget.Try() {
		m.retriesSpent.Add(1)
		return true
	}
	m.retriesDenied.Add(1)
	return false
}

// OnHedge counts a hedged duplicate fetch started by the hedge timer;
// OnHedgeWin counts one that answered first, so wins never exceed
// hedges.
func (m *Manager) OnHedge()    { m.hedges.Add(1) }
func (m *Manager) OnHedgeWin() { m.hedgeWins.Add(1) }

// OnFastFail accounts a request failed fast because no replica was
// routable (the ErrFleetUnavailable path).
func (m *Manager) OnFastFail() { m.fastFails.Add(1) }

// stateCounts tallies nodes by state.
func (m *Manager) stateCounts() map[NodeState]int {
	m.mu.Lock()
	recs := make([]*node, 0, len(m.nodes))
	for _, n := range m.nodes {
		recs = append(recs, n)
	}
	m.mu.Unlock()
	counts := map[NodeState]int{}
	for _, n := range recs {
		n.mu.Lock()
		counts[n.state]++
		n.mu.Unlock()
	}
	return counts
}

// Stats snapshots the manager's counters.
type Stats struct {
	Probes        uint64
	ProbeFailures uint64
	// Recoveries counts nodes leaving Dead, by any route; Deaths
	// counts nodes entering it.
	Recoveries    uint64
	Deaths        uint64
	Hedges        uint64
	HedgeWins     uint64
	RetriesSpent  uint64
	RetriesDenied uint64
	FastFails     uint64
	RetryTokens   float64
}

// Stats returns a snapshot of the failure domain's accounting.
func (m *Manager) Stats() Stats {
	return Stats{
		Probes:        m.probes.Load(),
		ProbeFailures: m.probeFailures.Load(),
		Recoveries:    m.recoveries.Load(),
		Deaths:        m.deaths.Load(),
		Hedges:        m.hedges.Load(),
		HedgeWins:     m.hedgeWins.Load(),
		RetriesSpent:  m.retriesSpent.Load(),
		RetriesDenied: m.retriesDenied.Load(),
		FastFails:     m.fastFails.Load(),
		RetryTokens:   m.budget.Tokens(),
	}
}

// Register mirrors the failure domain into a live metrics registry
// under the cachegen_resilience_* namespace. Nil reg is a no-op.
func (m *Manager) Register(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, s := range []NodeState{Healthy, Suspect, Dead, Recovering} {
		s := s
		reg.GaugeFunc("cachegen_resilience_nodes", "nodes per health state", func() float64 {
			return float64(m.stateCounts()[s])
		}, "state", s.String())
	}
	reg.GaugeFunc("cachegen_resilience_deaths_total", "nodes taken out of routing as dead", func() float64 {
		return float64(m.deaths.Load())
	})
	reg.GaugeFunc("cachegen_resilience_probes_total", "active health probes issued", func() float64 {
		return float64(m.probes.Load())
	})
	reg.GaugeFunc("cachegen_resilience_probe_failures_total", "active health probes failed", func() float64 {
		return float64(m.probeFailures.Load())
	})
	reg.GaugeFunc("cachegen_resilience_recoveries_total", "dead nodes brought back into rotation", func() float64 {
		return float64(m.recoveries.Load())
	})
	reg.GaugeFunc("cachegen_resilience_hedges_total", "hedged duplicate chunk fetches issued", func() float64 {
		return float64(m.hedges.Load())
	})
	reg.GaugeFunc("cachegen_resilience_hedge_wins_total", "hedged fetches that beat the primary", func() float64 {
		return float64(m.hedgeWins.Load())
	})
	reg.GaugeFunc("cachegen_resilience_retries_spent_total", "retry-budget tokens spent on retries and hedges", func() float64 {
		return float64(m.retriesSpent.Load())
	})
	reg.GaugeFunc("cachegen_resilience_retries_denied_total", "retries and hedges denied by an empty budget", func() float64 {
		return float64(m.retriesDenied.Load())
	})
	reg.GaugeFunc("cachegen_resilience_retry_tokens", "retry-budget tokens available", func() float64 {
		return m.budget.Tokens()
	})
	reg.GaugeFunc("cachegen_resilience_fleet_unavailable_total", "requests failed fast with every replica dead", func() float64 {
		return float64(m.fastFails.Load())
	})
}
