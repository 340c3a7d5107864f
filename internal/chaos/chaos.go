// Package chaos schedules timed, composable fault injections against a
// running fleet: node kill/restart, network partition, slow disks,
// bandwidth cliffs, wire corruption, and flaky nodes. Faults are plain
// data (Event,
// Schedule — parseable from a compact spec string, see ParseSchedule),
// applied through the Target interface over the production fault hooks
// (transport.Server.SetPartitioned/SetEgressTrace/SetCorruption,
// storage.LatencyStore, cluster.Pool.Invalidate) — no test-only forks.
// Victim selection and corruption bytes are seeded, so a schedule
// replays the same fault sequence every run; composed with a
// workload.Trace replayed from the same t=0, the whole scenario is
// deterministic.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Class names a fault class.
type Class string

// The fault classes.
const (
	// Kill stops a node process mid-stream; heal restarts it on the same
	// address (cluster failover + offset resume carry live fetches).
	Kill Class = "kill"
	// Partition severs a node from the network: live connections drop,
	// new ones are refused, until healed.
	Partition Class = "partition"
	// SlowDisk adds per-operation latency under a node's store.
	SlowDisk Class = "slow-disk"
	// Cliff drops a node's egress bandwidth to a netsim trace.
	Cliff Class = "cliff"
	// Corrupt flips one byte per affected payload on the wire, at a
	// seeded rate — exercising CRC detection end to end.
	Corrupt Class = "corrupt"
	// Flaky makes a node probabilistically pathological per request: a
	// seeded fraction of requests stall by a delay or sever the
	// connection mid-request — the brown-out that hedged fetches,
	// health states and retry budgets exist for.
	Flaky Class = "flaky"
)

// Event is one scheduled fault: impose the fault At after Start, lift
// it Heal later (Heal 0 = the fault holds until Finish). Kill,
// Partition, SlowDisk and Flaky strike one seeded victim; Cliff and
// Corrupt apply fleet-wide (a bandwidth cliff or lossy wire is a path
// property, not a node property).
type Event struct {
	// Class is the fault class.
	Class Class
	// At is the injection offset from Start.
	At time.Duration
	// Heal, when > 0, lifts the fault that long after injection. 0 means
	// the fault holds until Finish heals it.
	Heal time.Duration
	// Latency is the added per-operation store latency (SlowDisk).
	Latency time.Duration
	// Trace is the egress bandwidth during the fault (Cliff).
	Trace netsim.Trace
	// Rate is the per-payload corruption probability in (0, 1]
	// (Corrupt), or the per-request strike probability (Flaky).
	Rate float64
	// ErrFrac is the fraction of Flaky strikes that sever the
	// connection instead of stalling it, in [0, 1].
	ErrFrac float64
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%v", e.Class, e.At)
	if e.Heal > 0 {
		s += fmt.Sprintf("+%v", e.Heal)
	}
	return s
}

// validate checks one event's class-specific parameters.
func (e Event) validate() error {
	if e.At < 0 {
		return fmt.Errorf("chaos: event %s at negative offset", e.Class)
	}
	if e.Heal < 0 {
		return fmt.Errorf("chaos: event %s with negative heal delay", e.Class)
	}
	switch e.Class {
	case Kill, Partition:
		// No parameters.
	case SlowDisk:
		if e.Latency <= 0 {
			return fmt.Errorf("chaos: %s needs a positive latency (e.g. \"slow-disk@0s:5ms\")", e.Class)
		}
	case Cliff:
		if e.Trace == nil {
			return fmt.Errorf("chaos: %s needs a bandwidth trace (e.g. \"cliff@0s:0.05Gbps\")", e.Class)
		}
	case Corrupt:
		if e.Rate <= 0 || e.Rate > 1 {
			return fmt.Errorf("chaos: %s rate %v outside (0, 1]", e.Class, e.Rate)
		}
	case Flaky:
		if e.Rate <= 0 || e.Rate > 1 {
			return fmt.Errorf("chaos: %s strike probability %v outside (0, 1] (e.g. \"flaky@0s:p=0.3\")", e.Class, e.Rate)
		}
		if e.Latency <= 0 {
			return fmt.Errorf("chaos: %s needs a positive stall delay", e.Class)
		}
		if e.ErrFrac < 0 || e.ErrFrac >= 1 {
			return fmt.Errorf("chaos: %s sever fraction %v outside [0, 1)", e.Class, e.ErrFrac)
		}
	default:
		return fmt.Errorf("chaos: unknown fault class %q", e.Class)
	}
	return nil
}

// Schedule is a seeded fault schedule. The seed drives victim selection
// and the per-node corruption and strike streams.
type Schedule struct {
	Seed   int64
	Events []Event
}

// Duration returns the offset by which every timed heal has fired.
func (s Schedule) Duration() time.Duration {
	var d time.Duration
	for _, e := range s.Events {
		if end := e.At + e.Heal; end > d {
			d = end
		}
	}
	return d
}

// Target is the fleet surface the injector manipulates. LocalFleet
// implements it over in-process nodes; the fake target in the tests
// records calls. All methods must be safe for concurrent use (heal
// timers fire from their own goroutines).
type Target interface {
	// Nodes lists the fleet's node addresses. Victim selection sorts
	// them, so the set — not the order — must be stable.
	Nodes() []string
	// Kill stops the node's server, severing live connections.
	Kill(node string) error
	// Restart brings a killed node back on the same address with the
	// same store.
	Restart(node string) error
	// SetPartitioned severs (true) or heals (false) the node's network.
	SetPartitioned(node string, on bool) error
	// SetDiskLatency imposes per-operation store latency (0 heals).
	SetDiskLatency(node string, d time.Duration) error
	// SetEgressTrace pins the node's egress bandwidth to the trace
	// (nil heals back to the node's configured trace).
	SetEgressTrace(node string, tr netsim.Trace) error
	// SetCorruption makes the node flip one byte per served payload with
	// the given probability, seeded (rate 0 heals).
	SetCorruption(node string, rate float64, seed int64) error
	// CorruptionInjected returns the node's cumulative count of payloads
	// it has corrupted.
	CorruptionInjected(node string) uint64
	// SetFlaky makes the node strike a fraction rate of requests: a
	// strike stalls by delay, or with probability errFrac severs the
	// connection, using a deterministic rng seeded with seed. Rate ≤0
	// heals.
	SetFlaky(node string, rate float64, delay time.Duration, errFrac float64, seed int64) error
	// FlakyInjected returns the node's cumulative strike count.
	FlakyInjected(node string) uint64
}

// action is one timed step: impose or lift one event on its victims.
type action struct {
	at   time.Duration
	run  func()
	heal bool // heals sort after injections at the same offset
}

// Injector replays a Schedule against a Target. One injector runs one
// schedule: Start arms the timers, Finish waits them out and heals
// whatever the schedule left standing, so post-run integrity checks see
// a healed fleet.
type Injector struct {
	target   Target
	counters *Counters

	mu        sync.Mutex
	errs      []error
	baseline  map[string]uint64 // corruption counts at injection, per node
	flakyBase map[string]uint64 // flaky strike counts at injection, per node

	timers  []*time.Timer
	wg      sync.WaitGroup
	pending []func() // heals for Heal-0 events, run by Finish
	started bool
}

// New returns an injector over the target. counters may be nil (no
// accounting).
func New(target Target, counters *Counters) *Injector {
	return &Injector{target: target, counters: counters, baseline: map[string]uint64{}, flakyBase: map[string]uint64{}}
}

// Start validates the schedule, resolves every event's victims with the
// schedule seed, and arms the injection/heal timers against t=0 = now.
// It returns immediately; faults fire on their own goroutines.
func (in *Injector) Start(s Schedule) error {
	if in.started {
		return errors.New("chaos: injector already started")
	}
	nodes := append([]string(nil), in.target.Nodes()...)
	sort.Strings(nodes)
	if len(nodes) == 0 {
		return errors.New("chaos: target has no nodes")
	}
	rng := rand.New(rand.NewSource(s.Seed))

	var acts []action
	for i, e := range s.Events {
		if err := e.validate(); err != nil {
			return fmt.Errorf("%w (event %d)", err, i)
		}
		victims := pickVictims(e, nodes, rng)
		// Corruption seeds are drawn here, per victim, so the byte
		// stream each node serves is fixed by (schedule seed, event
		// index) regardless of when the timer fires.
		seeds := make(map[string]int64, len(victims))
		for _, v := range victims {
			seeds[v] = rng.Int63()
		}
		e := e // capture per-iteration
		acts = append(acts, action{at: e.At, run: func() { in.impose(e, victims, seeds) }})
		heal := func() { in.lift(e, victims) }
		if e.Heal > 0 {
			acts = append(acts, action{at: e.At + e.Heal, run: heal, heal: true})
		} else {
			in.pending = append(in.pending, heal)
		}
	}
	// Stable order for simultaneous actions: by offset, injections
	// before heals, schedule order last.
	sort.SliceStable(acts, func(i, j int) bool {
		if acts[i].at != acts[j].at {
			return acts[i].at < acts[j].at
		}
		return !acts[i].heal && acts[j].heal
	})
	in.started = true
	// One timer per distinct offset, running that offset's actions in
	// the sorted order: simultaneous events would otherwise fire from
	// concurrent timer goroutines in whatever order the scheduler
	// picks, breaking same-seed replay determinism.
	for i := 0; i < len(acts); {
		j := i
		for j < len(acts) && acts[j].at == acts[i].at {
			j++
		}
		group := acts[i:j]
		in.wg.Add(1)
		in.timers = append(in.timers, time.AfterFunc(acts[i].at, func() {
			defer in.wg.Done()
			for _, a := range group {
				a.run()
			}
		}))
		i = j
	}
	return nil
}

// pickVictims picks an event's victim nodes.
func pickVictims(e Event, nodes []string, rng *rand.Rand) []string {
	switch e.Class {
	case Cliff, Corrupt:
		return nodes // path faults apply fleet-wide
	default:
		return []string{nodes[rng.Intn(len(nodes))]}
	}
}

// impose applies one event to its victims and accounts the injection.
func (in *Injector) impose(e Event, victims []string, seeds map[string]int64) {
	for _, node := range victims {
		var err error
		switch e.Class {
		case Kill:
			if err = in.target.Kill(node); err == nil {
				in.count(func(c *Counters) { c.NodeKills.Add(1) })
			}
		case Partition:
			if err = in.target.SetPartitioned(node, true); err == nil {
				in.count(func(c *Counters) { c.Partitions.Add(1) })
			}
		case SlowDisk:
			if err = in.target.SetDiskLatency(node, e.Latency); err == nil {
				in.count(func(c *Counters) { c.SlowDisks.Add(1) })
			}
		case Cliff:
			if err = in.target.SetEgressTrace(node, e.Trace); err == nil {
				in.count(func(c *Counters) { c.BandwidthCliffs.Add(1) })
			}
		case Corrupt:
			before := in.target.CorruptionInjected(node)
			if err = in.target.SetCorruption(node, e.Rate, seeds[node]); err == nil {
				in.mu.Lock()
				in.baseline[node] = before
				in.mu.Unlock()
			}
		case Flaky:
			before := in.target.FlakyInjected(node)
			if err = in.target.SetFlaky(node, e.Rate, e.Latency, e.ErrFrac, seeds[node]); err == nil {
				in.mu.Lock()
				in.flakyBase[node] = before
				in.mu.Unlock()
				in.count(func(c *Counters) { c.FlakyNodes.Add(1) })
			}
		}
		in.fail(err, "imposing %s on %s", e.Class, node)
	}
}

// lift heals one event on its victims and accounts the recovery.
func (in *Injector) lift(e Event, victims []string) {
	for _, node := range victims {
		var err error
		switch e.Class {
		case Kill:
			if err = in.target.Restart(node); err == nil {
				in.count(func(c *Counters) { c.NodeRestarts.Add(1) })
			}
		case Partition:
			if err = in.target.SetPartitioned(node, false); err == nil {
				in.count(func(c *Counters) { c.PartitionsHealed.Add(1) })
			}
		case SlowDisk:
			if err = in.target.SetDiskLatency(node, 0); err == nil {
				in.count(func(c *Counters) { c.SlowDisksHealed.Add(1) })
			}
		case Cliff:
			if err = in.target.SetEgressTrace(node, nil); err == nil {
				in.count(func(c *Counters) { c.BandwidthCliffsHealed.Add(1) })
			}
		case Corrupt:
			if err = in.target.SetCorruption(node, 0, 0); err == nil {
				injected := in.target.CorruptionInjected(node)
				in.mu.Lock()
				delta := injected - in.baseline[node]
				in.mu.Unlock()
				in.count(func(c *Counters) { c.CorruptFramesInjected.Add(delta) })
			}
		case Flaky:
			if err = in.target.SetFlaky(node, 0, 0, 0, 0); err == nil {
				struck := in.target.FlakyInjected(node)
				in.mu.Lock()
				delta := struck - in.flakyBase[node]
				in.mu.Unlock()
				in.count(func(c *Counters) {
					c.FlakyStrikes.Add(delta)
					c.FlakyHealed.Add(1)
				})
			}
		}
		in.fail(err, "lifting %s from %s", e.Class, node)
	}
}

// Finish waits for every timed injection and heal to fire, then heals
// the faults the schedule left standing (Heal-0 events), in schedule
// order. After Finish the fleet is fault-free; the error joins every
// failure the run hit.
func (in *Injector) Finish() error {
	if !in.started {
		return nil
	}
	in.wg.Wait()
	for _, heal := range in.pending {
		heal()
	}
	in.pending = nil
	in.mu.Lock()
	defer in.mu.Unlock()
	return errors.Join(in.errs...)
}

// count bumps a counter if accounting is on.
func (in *Injector) count(fn func(*Counters)) {
	if in.counters != nil {
		fn(in.counters)
	}
}

// fail records one action's error.
func (in *Injector) fail(err error, format string, args ...any) {
	if err == nil {
		return
	}
	in.mu.Lock()
	in.errs = append(in.errs, fmt.Errorf("chaos: %s: %w", fmt.Sprintf(format, args...), err))
	in.mu.Unlock()
}
