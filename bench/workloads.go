package main

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// workload is one traffic mix on one fixed rig.
type workload struct {
	name     string
	channels int
	// limit is the TTFT limit a request must meet to count toward
	// goodput; scheduler workloads also pass it as the request's SLO.
	limit time.Duration
	fleet fleetSpec
	// schedCacheBytes > 0 puts the fleet-wide chunk scheduler in front of
	// the gateway with a payload cache of that size.
	schedCacheBytes int64
	gateway         gateway.Config // policy fields only; the rig fills in the plumbing
	makeInputs      func(in *inputs, rng *rand.Rand, small bool) error
	// prepare, when set, replaces set-up's default of publishing every
	// context in in.contexts; it runs before the warm-up pass.
	prepare func(rg *rig) error
	// warm lists the requests of the untimed warm-up pass.
	warm  func(rg *rig) []request
	drive func(rg *rig, gw *gateway.Gateway, dur time.Duration, rng *rand.Rand) driveResult
}

// driveResult is one timed window's raw material.
type driveResult struct {
	samples []sample
	ops     []writerOp
	elapsed time.Duration
}

func allContexts(rg *rig) []request {
	out := make([]request, len(rg.in.contexts))
	for i, c := range rg.in.contexts {
		out[i] = request{ctx: c, tenant: "bench"}
	}
	return out
}

func lookupWorkload(name string) (*workload, error) {
	for _, wl := range []*workload{decodeBound(), wireCliff(), fleetOpenLoop(), publishBesideRead()} {
		if wl.name == name {
			return wl, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---- decode-bound ----

func decodeBound() *workload {
	return &workload{
		name:     wlDecodeBound,
		channels: 32,
		limit:    250 * time.Millisecond,
		fleet:    fleetSpec{nodes: 1, replicas: 1},
		gateway: gateway.Config{
			Slots:         1,
			Planner:       streamer.Planner{DefaultLevel: 1},
			PipelineDepth: 4,
			Device:        llm.A40x4(), // unused: no adaptation, constant prefill
		},
		makeInputs: func(in *inputs, rng *rand.Rand, small bool) error {
			n, tokens := 3, 3000 // 2 chunks, 1.8 MB at L1, 12.3 MB FP16
			if small {
				n, tokens = 1, 1700
			}
			in.addDocs(rng, n, tokens)
			return nil
		},
		warm: allContexts,
		drive: func(rg *rig, gw *gateway.Gateway, dur time.Duration, _ *rand.Rand) driveResult {
			ctxs := rg.in.contexts
			samples, elapsed := closedLoop(gw, dur, 0, func(i int) request {
				return request{ctx: ctxs[i%len(ctxs)], tenant: "bench"}
			}, nil)
			return driveResult{samples: samples, elapsed: elapsed}
		},
	}
}

// ---- wire-cliff ----

// The cliff every wire-cliff request sees, t=0 re-anchored per request:
// steady, a cliff that lands a third of the way into the 2nd chunk,
// recovery to three quarters of the steady rate. It is Figure 7's shape
// scaled to a 4500-token context at 16 channels (≈1.4 MB at L1, ≈0.9 MB
// at the coarsest level). The cliff alone takes 220 ms of a 480 ms limit.
const (
	cliffSteadyBPS  = 64e6
	cliffFloorBPS   = 3.2e6
	cliffRecoverBPS = 48e6
	cliffAt         = 80 * time.Millisecond
	cliffRecoverAt  = 300 * time.Millisecond
	wireCliffLimit  = 480 * time.Millisecond
)

func cliffTrace() netsim.Trace {
	tr, err := netsim.NewStep(
		[]time.Duration{0, cliffAt, cliffRecoverAt},
		[]float64{cliffSteadyBPS, cliffFloorBPS, cliffRecoverBPS})
	if err != nil {
		panic(err) // constants
	}
	return tr
}

func wireCliff() *workload {
	return &workload{
		name:     wlWireCliff,
		channels: 16,
		limit:    wireCliffLimit,
		fleet:    fleetSpec{nodes: 1, replicas: 1},
		// One byte of payload cache: the scheduler prices sources, but no
		// chunk is ever resident locally, so every byte crosses the wire.
		schedCacheBytes: 1,
		gateway: gateway.Config{
			Slots:         1,
			Planner:       streamer.Planner{Adapt: true, DefaultLevel: 1},
			PipelineDepth: 4,
			Device:        benchDevice(),
		},
		makeInputs: func(in *inputs, rng *rand.Rand, small bool) error {
			n, tokens := 2, 4500 // 3 chunks
			if small {
				n, tokens = 1, 3200
			}
			in.addDocs(rng, n, tokens)
			return nil
		},
		warm: allContexts,
		drive: func(rg *rig, gw *gateway.Gateway, dur time.Duration, _ *rand.Rand) driveResult {
			ctxs := rg.in.contexts
			srv, trace := rg.fleet.nodes[0].srv, cliffTrace()
			samples, elapsed := closedLoop(gw, dur, wireCliffLimit, func(i int) request {
				return request{ctx: ctxs[i%len(ctxs)], tenant: "bench"}
			}, func() { srv.SetEgressTrace(trace) })
			srv.SetEgressTrace(nil)
			return driveResult{samples: samples, elapsed: elapsed}
		},
	}
}

// ---- fleet-openloop ----

const (
	// fleetRate is 48% of the closed-loop capacity (2 clients, 76–91 req/s
	// by seed) measured on the 2-core reference box when the benchmark was
	// defined. Committed, never re-calibrated per run: an open loop's load
	// must not follow the speed of the system it loads. Higher rates were
	// tried and dropped: the queue's tail then sets off the timeout cascade
	// README.md describes.
	fleetRate  = 40.0
	fleetLimit = 250 * time.Millisecond
	// The L1 working set is ≈10.5 MB. Each node's RAM tier holds about a
	// third of the bytes it serves as primary and the gateway's payload
	// cache about a twelfth of the whole, so Zipf's head hits and its tail
	// misses: storage.ram_hit_ratio sits near 0.4, where it can move.
	fleetRAMTierBytes    = 1200 << 10
	fleetSchedCacheBytes = 900 << 10
	zipfS                = 1.1
)

var fleetTenants = map[string]int{"gold": 4, "silver": 2, "bronze": 1}

func fleetSpec3() fleetSpec {
	return fleetSpec{nodes: 3, replicas: 2, fileStore: true, ramTierBytes: fleetRAMTierBytes, hedging: true}
}

func fleetOpenLoop() *workload {
	return &workload{
		name:            wlFleetOpen,
		channels:        16,
		limit:           fleetLimit,
		fleet:           fleetSpec3(),
		schedCacheBytes: fleetSchedCacheBytes,
		gateway: gateway.Config{ // the shipped cachegen-gateway configuration
			Slots:         2,
			QueueLimit:    64,
			Tenants:       fleetTenants,
			Prefetch:      true,
			Degrade:       true,
			Planner:       streamer.Planner{Adapt: true, DefaultLevel: 1},
			PipelineDepth: 4,
			Device:        benchDevice(),
		},
		makeInputs: func(in *inputs, rng *rand.Rand, small bool) error {
			singles, families, members := 36, 4, 3
			if small {
				singles, families, members = 6, 1, 2
			}
			// A quarter of the contexts share a published prefix: families
			// whose first chunk is the same 1500 tokens.
			type family struct {
				prefix []llm.Token
				kv     *tensor.KV
			}
			fams := make([]family, families)
			for f := range fams {
				fams[f].prefix = randTokens(rng, 1500)
				fams[f].kv = in.calculate(fams[f].prefix)
			}
			// in.contexts is in popularity order, most popular first, and
			// the shape of each rank is fixed: the seed decides content,
			// draws and arrival times, never how much work a rank is. Every
			// 4th rank is a family member; the single-chunk lengths, 400 to
			// 1000 tokens, come in an order whose every prefix covers the
			// range evenly, starting from the middle.
			order := evenOrder(singles)
			single, member := 0, 0
			for rank := 0; rank < singles+families*members; rank++ {
				if rank%4 == 3 && member < families*members {
					f, m := member%families, member/families
					member++
					suffix := randTokens(rng, 150+100*m)
					kv, err := in.extend(fams[f].kv, suffix)
					if err != nil {
						return err
					}
					in.add(fmt.Sprintf("fam-%d-%d", f, m), append(append([]llm.Token{}, fams[f].prefix...), suffix...), kv)
					continue
				}
				k := (order[single] + singles/2) % singles
				single++
				toks := randTokens(rng, 400+600*k/singles)
				in.add(fmt.Sprintf("doc-%02d", rank), toks, in.calculate(toks))
			}
			return nil
		},
		warm: func(rg *rig) []request { // least popular first, so the popular end up resident
			reqs := allContexts(rg)
			for i, j := 0, len(reqs)-1; i < j; i, j = i+1, j-1 {
				reqs[i], reqs[j] = reqs[j], reqs[i]
			}
			return reqs
		},
		drive: func(rg *rig, gw *gateway.Gateway, dur time.Duration, rng *rand.Rand) driveResult {
			arrivals := poissonArrivals(rng, fleetRate, dur)
			reqs := make([]request, len(arrivals))
			for i, rank := range zipfDraws(rng, len(rg.in.contexts), len(arrivals)) {
				reqs[i] = request{ctx: rg.in.contexts[rank], tenant: drawTenant(rng)}
			}
			t0 := time.Now()
			samples := openLoop(gw, arrivals, 0, func(i int) request { return reqs[i] })
			return driveResult{samples: samples, elapsed: max(time.Since(t0), dur)}
		},
	}
}

// zipfDraws returns n draws over ranks 0..k-1 with P(rank) ∝ (1+rank)^-zipfS,
// stratified: every rank appears its expected number of times (largest
// remainders make up the total) and the seed decides only the order. Runs
// on different seeds then offer the same mix of work, where independent
// draws would let the few most popular contexts, a fifth of the traffic
// each, swing a run's total by several percent.
func zipfDraws(rng *rand.Rand, k, n int) []int {
	weights := make([]float64, k)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(1+r), -zipfS)
		total += weights[r]
	}
	out := make([]int, 0, n)
	type remainder struct {
		rank int
		frac float64
	}
	rems := make([]remainder, k)
	for r, w := range weights {
		exact := w / total * float64(n)
		whole := int(exact)
		rems[r] = remainder{r, exact - float64(whole)}
		for i := 0; i < whole; i++ {
			out = append(out, r)
		}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; len(out) < n; i++ {
		out = append(out, rems[i%k].rank)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// evenOrder returns 0..n-1 ordered by bit-reversed value (the van der
// Corput sequence), so every prefix of it is spread evenly over the range.
func evenOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	sort.Slice(out, func(a, b int) bool {
		return bits.Reverse32(uint32(out[a])) < bits.Reverse32(uint32(out[b]))
	})
	return out
}

// poissonArrivals draws the due times of a Poisson process over [0, dur)
// conditioned on its count being exactly rate × dur: that many uniform
// draws, sorted. The gaps are still exponential-like and bursts still
// happen, but every seed offers the same number of requests, so goodput
// does not carry the generator's own ±3% counting noise.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	out := make([]time.Duration, int(rate*dur.Seconds()+0.5))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// drawTenant picks a tenant with probability proportional to its weight.
func drawTenant(rng *rand.Rand) string {
	switch n := rng.Intn(7); {
	case n < 4:
		return "gold"
	case n < 6:
		return "silver"
	default:
		return "bronze"
	}
}

// ---- publish-beside-read ----

const (
	writerSlots = 6    // precomputed KVs the writer cycles over
	writerLive  = 4    // cycles a context stays published
	writerTurn  = 64   // tokens per Append
	readerRate  = 10.0 // reader requests per second, open loop
	readerLimit = 400 * time.Millisecond
)

// writerOp is one timed step of the writer's script.
type writerOp struct {
	kind string // "retire", "publish", "fork", "append"
	dur  time.Duration
	ok   bool
	// payload accounting from PublishStats (zero for "retire")
	stored, reused int
}

// writerSlot is one precomputed conversation: 1500 tokens plus two turns.
type writerSlot struct {
	full *benchContext // all tokens and their KV: what a reader fetches
	kvs  [3]*tensor.KV // KV before, between and after the two turns
}

// writer cycles a fixed script over the slots: retire the oldest live
// context (DeleteContext + Sweep(0), so its KV is cold when its slot
// comes round again) → cold publish → publish the same tokens under a
// second id (every payload a dedup hit) → two Appends.
type writer struct {
	rg    *rig
	slots []*writerSlot
	first int          // tokens of a cold publish
	cycle atomic.Int64 // next cycle to run; cycles below it are complete
}

func (w *writer) ids(cycle int64) (id, fork string) {
	id = fmt.Sprintf("w%d-c%d", cycle%int64(len(w.slots)), cycle)
	return id, id + "-fork"
}

// runCycle runs one pass of the script and returns its timed ops.
func (w *writer) runCycle() []writerOp {
	bg := context.Background()
	c := w.cycle.Load()
	st, codec, model := w.rg.fleet.sharded, w.rg.codec, w.rg.in.model
	slot := w.slots[c%int64(len(w.slots))]
	var ops []writerOp
	timed := func(kind string, fn func() (*streamer.PublishStats, error), check func(*streamer.PublishStats) bool) {
		t0 := time.Now()
		stats, err := fn()
		op := writerOp{kind: kind, dur: time.Since(t0), ok: err == nil}
		if stats != nil {
			op.stored, op.reused = stats.PayloadsStored, stats.PayloadsReused
			op.ok = op.ok && check(stats)
		}
		ops = append(ops, op)
	}
	anyStats := func(*streamer.PublishStats) bool { return true }

	if old := c - writerLive; old >= 0 {
		id, fork := w.ids(old)
		timed("retire", func() (*streamer.PublishStats, error) {
			if err := st.DeleteContext(bg, id); err != nil {
				return nil, err
			}
			if err := st.DeleteContext(bg, fork); err != nil {
				return nil, err
			}
			_, err := st.Sweep(bg, 0)
			return nil, err
		}, anyStats)
	}
	id, fork := w.ids(c)
	toks := slot.full.tokens
	timed("publish", func() (*streamer.PublishStats, error) {
		_, stats, err := streamer.Publish(bg, st, codec, model, id, toks[:w.first], streamer.PublishOptions{KV: slot.kvs[0]})
		return stats, err
	}, func(s *streamer.PublishStats) bool { // cold means cold
		return s.PayloadsReused == 0 && s.EncodesSkipped == 0
	})
	timed("fork", func() (*streamer.PublishStats, error) {
		_, stats, err := streamer.Publish(bg, st, codec, model, fork, toks[:w.first], streamer.PublishOptions{KV: slot.kvs[0]})
		return stats, err
	}, func(s *streamer.PublishStats) bool { return s.PayloadsStored == 0 })
	for turn := 1; turn <= 2; turn++ {
		lo := w.first + (turn-1)*writerTurn
		timed("append", func() (*streamer.PublishStats, error) {
			_, stats, err := streamer.Append(bg, st, codec, model, id, toks[lo:lo+writerTurn], streamer.PublishOptions{KV: slot.kvs[turn]})
			return stats, err
		}, anyStats)
	}
	w.cycle.Add(1)
	return ops
}

// readable returns one of the two newest complete contexts: published at
// least a cycle ago, and not retired before two more cycles have run, so
// a fetch never races its context's deletion.
func (w *writer) readable(rng *rand.Rand) request {
	c := w.cycle.Load() - 1 - int64(rng.Intn(2))
	id, _ := w.ids(c)
	return request{ctx: w.slots[c%int64(len(w.slots))].full, id: id, tenant: "reader"}
}

func publishBesideRead() *workload {
	return &workload{
		name:     wlPublishBeside,
		channels: 32,
		limit:    readerLimit,
		fleet:    fleetSpec3(),
		gateway: gateway.Config{
			Slots:         2,
			Prefetch:      true,
			Planner:       streamer.Planner{DefaultLevel: 1},
			PipelineDepth: 4,
			Device:        llm.A40x4(), // unused: fixed level, constant prefill
		},
		makeInputs: func(in *inputs, rng *rand.Rand, small bool) error {
			first := 1500 // a cold publish is one full chunk
			if small {
				first = 300
			}
			for i := 0; i < writerSlots; i++ {
				toks := randTokens(rng, first+2*writerTurn)
				in.add(fmt.Sprintf("slot-%d", i), toks, in.calculate(toks))
			}
			return nil
		},
		prepare: func(rg *rig) error {
			w := &writer{rg: rg, first: len(rg.in.contexts[0].tokens) - 2*writerTurn}
			for _, c := range rg.in.contexts {
				slot := &writerSlot{full: c}
				for t := range slot.kvs {
					kv, err := c.kv.SliceTokens(0, w.first+t*writerTurn)
					if err != nil {
						return err
					}
					slot.kvs[t] = kv
				}
				w.slots = append(w.slots, slot)
			}
			for i := 0; i < writerLive; i++ { // something for the reader to read
				for _, op := range w.runCycle() {
					if !op.ok {
						return fmt.Errorf("writer %s failed during set-up", op.kind)
					}
				}
			}
			rg.writer = w
			return nil
		},
		warm: func(rg *rig) []request {
			rng := rand.New(rand.NewSource(1))
			return []request{rg.writer.readable(rng), rg.writer.readable(rng)}
		},
		drive: func(rg *rig, gw *gateway.Gateway, dur time.Duration, rng *rand.Rand) driveResult {
			w := rg.writer
			t0 := time.Now()
			done := make(chan []writerOp)
			go func() {
				var ops []writerOp
				for time.Since(t0) < dur {
					ops = append(ops, w.runCycle()...)
				}
				done <- ops
			}()
			arrivals := poissonArrivals(rng, readerRate, dur)
			samples := openLoop(gw, arrivals, 0, func(int) request { return w.readable(rng) })
			ops := <-done
			return driveResult{samples: samples, ops: ops, elapsed: max(time.Since(t0), dur)}
		},
	}
}
