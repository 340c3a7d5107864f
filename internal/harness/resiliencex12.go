package harness

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/resilience"
	"repro/internal/streamer"
)

// The resilience scenario (ISSUE 9): the fleet's failure domain —
// health-probed membership, per-node circuit breakers, hedged chunk
// fetches, and the shared retry budget — measured as three cells, each
// pinning one claim:
//
//   - recovery: after a killed node heals, the active prober puts it
//     back into rotation within a probe cycle, where the passive
//     baseline (probing disabled, breaker cooldown only) leaves it
//     sidelined indefinitely as long as its replicas stay healthy;
//   - hedging: under a flaky node that stalls a fraction of requests,
//     hedged first-wins duplicate fetches cut the P99 fetch latency to
//     a small multiple of the healthy path, while the unhedged pool's
//     P99 absorbs the full stall;
//   - containment: under gray-failing nodes that sever connections
//     intermittently, total network attempts stay within the retry
//     budget's amplification bound — the pool degrades by failing some
//     requests fast rather than by storming the fleet.

func init() {
	register("X12", "Extension: fleet resilience (post-heal recovery, hedged tail latency, retry-budget containment)", runX12Resilience)
}

// x12Seed fixes the published corpus and every flaky strike sequence.
const x12Seed = 4321

// x12Fleet is a 3-node replication-2 fleet with a published corpus and
// the hash → primary-node index the cells sample by. Unlike the X10
// fleet there is no OnHeal → Invalidate shortcut: the point of the
// recovery cell is to watch the pool notice healing on its own.
type x12Fleet struct {
	*chaos.LocalFleet
	ring    *cluster.Ring
	pool    *cluster.Pool
	hashes  []string          // every chunk payload hash (level 0)
	primary map[string]string // hash → primary node
}

func newX12Fleet(st *x5Stack, opts ...cluster.PoolOption) (*x12Fleet, error) {
	local, sharded, err := launchRing(3, 2, 0)
	if err != nil {
		return nil, err
	}
	fl := &x12Fleet{
		LocalFleet: local,
		ring:       sharded.Ring(),
		primary:    map[string]string{},
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(x12Seed))
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("x12-ctx-%02d", i)
		tokens := make([]llm.Token, 192)
		for j := range tokens {
			tokens[j] = llm.Token(rng.Intn(llm.VocabSize))
		}
		man, _, err := streamer.Publish(ctx, sharded, st.codec, st.model, id, tokens, streamer.PublishOptions{})
		if err != nil {
			fl.LocalFleet.Close()
			return nil, err
		}
		for c := 0; c < man.Meta.NumChunks(); c++ {
			h, err := man.ChunkHash(0, c)
			if err != nil {
				fl.LocalFleet.Close()
				return nil, err
			}
			fl.hashes = append(fl.hashes, h)
			fl.primary[h] = fl.ring.ChunkNodes(h)[0]
		}
	}
	fl.pool = cluster.NewPool(fl.ring,
		append([]cluster.PoolOption{cluster.WithRequestTimeout(2 * time.Second)}, opts...)...)
	return fl, nil
}

func (fl *x12Fleet) close() {
	if fl.pool != nil {
		fl.pool.Close()
	}
	fl.LocalFleet.Close()
}

// victim picks the node owning the most chunk primaries (so the cells
// have traffic to aim at it) and returns its primary chunk hashes.
func (fl *x12Fleet) victim() (string, []string) {
	byNode := map[string][]string{}
	for _, h := range fl.hashes {
		byNode[fl.primary[h]] = append(byNode[fl.primary[h]], h)
	}
	var victim string
	for node, hs := range byNode {
		if victim == "" || len(hs) > len(byNode[victim]) {
			victim = node
		}
	}
	return victim, byNode[victim]
}

// warm fetches every chunk once: every connection dialed, every node's
// health ledger and latency histogram seeded.
func (fl *x12Fleet) warm(rounds int) error {
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, h := range fl.hashes {
			if _, err := fl.pool.GetChunkData(ctx, h); err != nil {
				return fmt.Errorf("warmup fetch: %w", err)
			}
		}
	}
	return nil
}

// --- cell 1: post-heal recovery, active prober vs passive baseline ---

// x12RecoveryWindow bounds how long a variant gets to notice healing.
const x12RecoveryWindow = 1200 * time.Millisecond

type x12Recovery struct {
	variant   string
	probe     time.Duration // prober cycle (<0 disabled)
	recovered bool          // back at full routing priority inside the window
	elapsed   time.Duration // heal → routable (the window if it never happened)
	probes    uint64        // active probes issued
}

// x12RecoveryCell kills the busiest node, lets live traffic mark it
// failed, restarts it, and measures how long the pool takes to route
// to it again — with the active prober, or with probing disabled so
// only the passive machinery (breaker cooldown, request-path ordering)
// could notice. No heal hook fires: the pool is on its own.
func x12RecoveryCell(st *x5Stack, prober bool) (*x12Recovery, error) {
	out := &x12Recovery{variant: "backoff-baseline", probe: -1}
	cfg := resilience.Config{ProbeInterval: -1, BreakerCooldown: 250 * time.Millisecond}
	if prober {
		out.variant = "active-prober"
		out.probe = 15 * time.Millisecond
		cfg = resilience.Config{ProbeInterval: out.probe, ProbeTimeout: 250 * time.Millisecond}
	}
	fl, err := newX12Fleet(st, cluster.WithResilience(cfg), cluster.WithHedging(false))
	if err != nil {
		return nil, err
	}
	defer fl.close()
	victim, chunks := fl.victim()
	if err := fl.warm(1); err != nil {
		return nil, err
	}

	if err := fl.Kill(victim); err != nil {
		return nil, err
	}
	// One fetch through the dead node marks it failed; the replica
	// serves the payload, so the request itself still succeeds.
	ctx := context.Background()
	if _, err := fl.pool.GetChunkData(ctx, chunks[0]); err != nil {
		return nil, fmt.Errorf("fetch during outage: %w", err)
	}
	res := fl.pool.Resilience()
	if res.State(victim) == resilience.Healthy {
		return nil, fmt.Errorf("victim %s still healthy after failing a request", victim)
	}

	if err := fl.Restart(victim); err != nil {
		return nil, err
	}
	healed := time.Now()
	// Drive steady traffic at the victim's chunks — the baseline's only
	// conceivable path back is the request plane, so give it requests.
	deadline := healed.Add(x12RecoveryWindow)
	for i := 0; time.Now().Before(deadline); i++ {
		if res.State(victim) == resilience.Healthy {
			out.recovered = true
			out.elapsed = time.Since(healed)
			break
		}
		if _, err := fl.pool.GetChunkData(ctx, chunks[i%len(chunks)]); err != nil {
			return nil, fmt.Errorf("fetch after heal: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !out.recovered {
		out.elapsed = x12RecoveryWindow
	}
	out.probes = res.Stats().Probes
	return out, nil
}

// x12CheckRecovery enforces the recovery claim: the prober puts the
// healed node back well inside the window; the baseline never does
// while its replicas stay healthy.
func x12CheckRecovery(prober, baseline *x12Recovery) error {
	if !prober.recovered {
		return fmt.Errorf("X12 recovery: prober variant did not re-admit the healed node within %v", x12RecoveryWindow)
	}
	if prober.elapsed >= x12RecoveryWindow/4 {
		return fmt.Errorf("X12 recovery: prober took %v to re-admit the healed node, want < %v",
			prober.elapsed, x12RecoveryWindow/4)
	}
	if prober.probes == 0 {
		return fmt.Errorf("X12 recovery: prober variant issued no probes")
	}
	if baseline.recovered {
		return fmt.Errorf("X12 recovery: baseline re-admitted the node in %v without probes — the prober is not what found it",
			baseline.elapsed)
	}
	if prober.elapsed >= baseline.elapsed {
		return fmt.Errorf("X12 recovery: prober (%v) not faster than baseline (%v)", prober.elapsed, baseline.elapsed)
	}
	return nil
}

// --- cell 2: hedged vs unhedged tails under a flaky node ---

// x12Stall is the flaky node's injected stall; strikes hit half the
// requests routed to it.
const (
	x12Stall       = 30 * time.Millisecond
	x12StallRate   = 0.5
	x12HedgeSample = 110
)

type x12Hedge struct {
	hedged   bool
	samples  int
	p50, p99 float64 // seconds
	hedges   uint64
	wins     uint64
}

// x12HedgeCell measures per-chunk fetch latency against a flaky victim
// that stalls (never errors) half the requests it sees, with hedging
// on or off. The retry budget is opened wide so the cells compare the
// mechanism, not the allowance.
func x12HedgeCell(st *x5Stack, hedged bool) (*x12Hedge, error) {
	cfg := resilience.Config{ProbeInterval: -1, RetryFraction: 1, RetryBurst: 64}
	fl, err := newX12Fleet(st, cluster.WithResilience(cfg), cluster.WithHedging(hedged))
	if err != nil {
		return nil, err
	}
	defer fl.close()
	victim, chunks := fl.victim()
	// Warm until every node's latency histogram passes the hedge
	// warmup, so the adaptive delay is live from the first sample.
	if err := fl.warm(20); err != nil {
		return nil, err
	}
	if err := fl.SetFlaky(victim, x12StallRate, x12Stall, 0, x12Seed); err != nil {
		return nil, err
	}
	ctx := context.Background()
	lat := make([]time.Duration, 0, x12HedgeSample)
	for i := 0; i < x12HedgeSample; i++ {
		start := time.Now()
		if _, err := fl.pool.GetChunkData(ctx, chunks[i%len(chunks)]); err != nil {
			return nil, fmt.Errorf("flaky fetch %d: %w", i, err)
		}
		lat = append(lat, time.Since(start))
	}
	sum := metrics.Summarize(metrics.Seconds(lat))
	rs := fl.pool.Resilience().Stats()
	return &x12Hedge{
		hedged:  hedged,
		samples: len(lat),
		p50:     sum.P50(),
		p99:     sum.P99,
		hedges:  rs.Hedges,
		wins:    rs.HedgeWins,
	}, nil
}

// x12CheckHedge enforces the tail claim: the unhedged pool's P99
// absorbs the stall, the hedged pool's P99 stays well under it, and
// hedges actually fired and won.
func x12CheckHedge(hedged, unhedged *x12Hedge) error {
	stall := x12Stall.Seconds()
	if unhedged.p99 < 0.8*stall {
		return fmt.Errorf("X12 hedge: unhedged P99 %.1f ms never absorbed the %.0f ms stall — the fault did not bite",
			unhedged.p99*1e3, stall*1e3)
	}
	if hedged.p99 >= stall/2 {
		return fmt.Errorf("X12 hedge: hedged P99 %.1f ms not under half the %.0f ms stall", hedged.p99*1e3, stall*1e3)
	}
	if hedged.p99 >= unhedged.p99 {
		return fmt.Errorf("X12 hedge: hedged P99 %.1f ms not below unhedged %.1f ms", hedged.p99*1e3, unhedged.p99*1e3)
	}
	if hedged.hedges == 0 || hedged.wins == 0 {
		return fmt.Errorf("X12 hedge: %d hedges, %d wins — the tail was cut by something else", hedged.hedges, hedged.wins)
	}
	if unhedged.hedges != 0 {
		return fmt.Errorf("X12 hedge: unhedged pool issued %d hedges", unhedged.hedges)
	}
	return nil
}

// --- cell 3: retry-budget containment under gray failure ---

const (
	x12ContainRequests = 400
	x12ContainFraction = 0.05
	x12ContainBurst    = 2
)

type x12Containment struct {
	requests uint64
	attempts uint64
	bound    float64
	spent    uint64
	denied   uint64
	served   int
	failed   int
}

// x12ContainmentCell drives a fixed request load against a fleet where
// every node severs connections intermittently — gray failure pitched
// below the dead threshold, so the nodes stay in rotation, no healthy
// replica can absorb the traffic, and every strike is a failover the
// budget must fund. The claim is the amplification bound: attempts ≤
// requests·(1+fraction) + burst, with the overflow surfacing as fast
// budget-denied failures, not extra network attempts.
func x12ContainmentCell(st *x5Stack) (*x12Containment, error) {
	cfg := resilience.Config{
		ProbeInterval: -1,
		DeadAfter:     1 << 20, // strikes stay "suspect": gray, not dead
		RetryFraction: x12ContainFraction,
		RetryBurst:    x12ContainBurst,
	}
	fl, err := newX12Fleet(st, cluster.WithResilience(cfg), cluster.WithHedging(false))
	if err != nil {
		return nil, err
	}
	defer fl.close()
	if err := fl.warm(1); err != nil {
		return nil, err
	}
	for i, node := range fl.ring.Nodes() {
		if err := fl.SetFlaky(node, x12StallRate, 0, 1, x12Seed+int64(i)); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	ps0, rs0 := fl.pool.Stats(), fl.pool.Resilience().Stats()
	out := &x12Containment{}
	for i := 0; i < x12ContainRequests; i++ {
		if _, err := fl.pool.GetChunkData(ctx, fl.hashes[i%len(fl.hashes)]); err != nil {
			out.failed++
		} else {
			out.served++
		}
	}
	ps1, rs1 := fl.pool.Stats(), fl.pool.Resilience().Stats()
	out.requests = ps1.Requests - ps0.Requests
	out.attempts = ps1.Attempts - ps0.Attempts
	out.spent = rs1.RetriesSpent - rs0.RetriesSpent
	out.denied = rs1.RetriesDenied - rs0.RetriesDenied
	out.bound = float64(out.requests)*(1+x12ContainFraction) + x12ContainBurst
	return out, nil
}

// x12CheckContainment enforces the amplification bounds and that the
// budget actually gated work (denials happened, yet most requests were
// still served by healthy replicas).
func x12CheckContainment(c *x12Containment) error {
	// +2 slack: a token can accrue between the snapshot and the spend.
	if float64(c.attempts) > c.bound+2 {
		return fmt.Errorf("X12 containment: %d attempts for %d requests exceeds the budget bound %.1f",
			c.attempts, c.requests, c.bound)
	}
	amp := float64(c.attempts) / float64(c.requests)
	if amp > 1+x12ContainFraction+float64(x12ContainBurst)/float64(c.requests)+0.01 {
		return fmt.Errorf("X12 containment: amplification %.3f above the long-run bound", amp)
	}
	if c.denied == 0 {
		return fmt.Errorf("X12 containment: no retry was ever denied — the budget was never under pressure")
	}
	if c.spent == 0 {
		return fmt.Errorf("X12 containment: no retry token spent — the fault did not bite")
	}
	if c.served < x12ContainRequests/4 {
		return fmt.Errorf("X12 containment: only %d/%d requests served — the pool collapsed instead of degrading",
			c.served, x12ContainRequests)
	}
	if c.failed == 0 {
		return fmt.Errorf("X12 containment: every request served — containment was never exercised")
	}
	return nil
}

// --- the experiment ---

func runX12Resilience(*Fixture) ([]*Report, error) {
	st, err := newX5Stack()
	if err != nil {
		return nil, err
	}

	proberOut, err := x12RecoveryCell(st, true)
	if err != nil {
		return nil, err
	}
	baseOut, err := x12RecoveryCell(st, false)
	if err != nil {
		return nil, err
	}
	if err := x12CheckRecovery(proberOut, baseOut); err != nil {
		return nil, err
	}
	recovery := &Report{
		ID:      "X12",
		Title:   "Resilience: post-heal recovery time (3 nodes, replication 2, victim killed then restarted, no heal hook)",
		Columns: []string{"Variant", "Probe cycle", "Back in rotation", "Heal→routable", "Probes"},
	}
	for _, out := range []*x12Recovery{proberOut, baseOut} {
		probe, routable := "off", fmt.Sprintf("%.0f ms", float64(out.elapsed)/1e6)
		if out.probe > 0 {
			probe = out.probe.String()
		}
		back := "yes"
		if !out.recovered {
			back = "no"
			routable = fmt.Sprintf("> %.0f ms (window)", float64(x12RecoveryWindow)/1e6)
		}
		recovery.AddRow(out.variant, probe, back, routable, fmt.Sprintf("%d", out.probes))
	}
	recovery.AddNote("with probing disabled the healed node is never re-admitted while its replicas stay healthy: request-path ordering sends suspect nodes traffic only after the healthy candidates fail, so only the active prober (or an explicit heal hook) closes the loop")

	hedgedOut, err := x12HedgeCell(st, true)
	if err != nil {
		return nil, err
	}
	unhedgedOut, err := x12HedgeCell(st, false)
	if err != nil {
		return nil, err
	}
	if err := x12CheckHedge(hedgedOut, unhedgedOut); err != nil {
		return nil, err
	}
	hedge := &Report{
		ID:      "X12",
		Title:   fmt.Sprintf("Resilience: hedged vs unhedged chunk-fetch tails under a flaky node (%.0f%% of its requests stalled %v)", x12StallRate*100, x12Stall),
		Columns: []string{"Pool", "Samples", "P50", "P99", "Hedges", "Hedge wins"},
	}
	for _, out := range []*x12Hedge{unhedgedOut, hedgedOut} {
		name := "unhedged"
		if out.hedged {
			name = "hedged"
		}
		hedge.AddRow(name, fmt.Sprintf("%d", out.samples),
			fmt.Sprintf("%.1f ms", out.p50*1e3), fmt.Sprintf("%.1f ms", out.p99*1e3),
			fmt.Sprintf("%d", out.hedges), fmt.Sprintf("%d", out.wins))
	}
	hedge.AddNote("a fetch unanswered past the serving node's adaptive P99 is duplicated to the next replica, first answer wins; the stalled request is cancelled, so the flaky node's stalls never reach the caller's tail")

	contain, err := x12ContainmentCell(st)
	if err != nil {
		return nil, err
	}
	if err := x12CheckContainment(contain); err != nil {
		return nil, err
	}
	containment := &Report{
		ID:      "X12",
		Title:   "Resilience: retry-budget containment under gray failure (every node severs connections intermittently)",
		Columns: []string{"Requests", "Attempts", "Amplification", "Budget bound", "Tokens spent", "Retries denied", "Served", "Failed fast"},
	}
	containment.AddRow(
		fmt.Sprintf("%d", contain.requests), fmt.Sprintf("%d", contain.attempts),
		fmt.Sprintf("%.3f", float64(contain.attempts)/float64(contain.requests)),
		fmt.Sprintf("%.0f", contain.bound),
		fmt.Sprintf("%d", contain.spent), fmt.Sprintf("%d", contain.denied),
		fmt.Sprintf("%d", contain.served), fmt.Sprintf("%d", contain.failed))
	containment.AddNote("every failover past a severed connection must be funded by the token bucket (fraction %.2f per request, burst %.0f); once it runs dry the pool fails the request fast rather than amplifying load into a browning-out fleet",
		x12ContainFraction, float64(x12ContainBurst))
	return []*Report{recovery, hedge, containment}, nil
}
