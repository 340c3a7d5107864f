package streamer

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// Policy is the per-request decision engine a Fetcher consults for each
// chunk. Both implementations — Planner, the one-link front end, and
// sched.Plan, the four-source scheduler — decide through Decide below, so
// Algorithm 1 exists once; they differ only in the price table they hand
// it. Choose is called with the chunk index relative to the fetched
// suffix, the time since the request started, and the live throughput
// estimate (≤0 when none exists yet).
type Policy interface {
	Choose(idx int, elapsed time.Duration, throughputBPS float64, chunks []ChunkInfo) (Choice, error)
}

// Prices is a price table: what Algorithm 1 needs to know about a
// request and nothing else. For every chunk it answers "what does this
// chunk cost in this configuration by its cheapest source, and which
// source", a configuration being a wire level: an encoding level, or
// storage.TextLevel for the token text plus GPU recompute. The Planner's
// table prices the one fleet link (RTT + N_c·size/bandwidth, plus
// recompute for text); a sched.Plan's prices each chunk across RAM, disk
// and remote candidates and scales recompute by decode-slot occupancy. Unreachable prices a configuration nothing can
// deliver; the source label is the Choice.Source the Fetcher routes by
// ("" = its default delivery).
type Prices interface {
	// Dims is the table's shape: chunks in the request, levels per chunk.
	Dims() (chunks, levels int)
	// Price prices chunk ci at wire level lv by its cheapest source.
	Price(ci, lv int) (cost time.Duration, source string)
}

// Terms is the request's side of a decision.
type Terms struct {
	// SLO is the TTFT objective; ≤0 pins quality and only the source
	// floats.
	SLO time.Duration
	// DefaultLevel is the configured encoding level.
	DefaultLevel core.Level
	// Rung is the degradation-ladder rung, and it means one thing on
	// every path: quality is capped at DefaultLevel+Rung, text (lossless,
	// so finer than any level) is off the menu above rung 0, and a rung
	// past the coarsest level is decided by cost — the coarsest level or
	// text recompute, whichever finishes the context sooner.
	Rung int
}

// Decide is Algorithm 1 (§5.3, App. C.1), the only copy: the least-lossy
// configuration — text ≻ L0 ≻ L1 ≻ … — whose expected completion of all
// remaining chunks, each by its cheapest source, fits what is left of
// the SLO; when nothing fits, the cheaper of the coarsest level and text
// by the same rest-of-context cost. It returns the pick for chunk idx and
// that chunk's own delivery price. The type parameter keeps a table
// passed by value off the heap.
func Decide[P Prices](pr P, t Terms, idx int, elapsed time.Duration) (Choice, time.Duration) {
	n, levels := pr.Dims()
	coarsest := levels - 1
	floor := min(int(t.DefaultLevel), coarsest) + t.Rung

	switch {
	case floor > coarsest:
		// The rung walked past the coarsest level: cost decides, below.
	case t.SLO <= 0:
		// Pinned quality: the level at its cheapest source; text, then a
		// blind fleet fetch, only when nothing can deliver it.
		ch, c := pick(pr, idx, floor)
		if c == Unreachable {
			if tch, tc := pick(pr, idx, storage.TextLevel); tc != Unreachable {
				return tch, tc
			}
		}
		return ch, c
	default:
		// Quality-first. At rung 0 the menu is the whole ordering, text
		// (wire level −1, lossless) ahead of level 0; above it, the levels
		// from the cap down.
		remaining := t.SLO - elapsed
		start := floor
		if t.Rung == 0 {
			start = storage.TextLevel
		}
		for lv := start; lv <= coarsest; lv++ {
			if rest(pr, idx, n, lv) <= remaining {
				return pick(pr, idx, lv)
			}
		}
	}
	// Nothing fits: minimise the damage.
	if rest(pr, idx, n, storage.TextLevel) < rest(pr, idx, n, coarsest) {
		return pick(pr, idx, storage.TextLevel)
	}
	return pick(pr, idx, coarsest)
}

// pick is chunk ci's choice at wire level lv, routed to its cheapest
// source, with its price.
func pick[P Prices](pr P, ci, lv int) (Choice, time.Duration) {
	c, src := pr.Price(ci, lv)
	ch := levelChoice(lv)
	ch.Source = src
	return ch, c
}

// rest estimates finishing chunks idx.. at wire level lv ("size(
// chunks_to_send, level) ÷ throughput", Alg 1).
func rest[P Prices](pr P, idx, n, lv int) time.Duration {
	var total time.Duration
	for ci := idx; ci < n && total != Unreachable; ci++ {
		c, _ := pr.Price(ci, lv)
		total = AddCost(total, c)
	}
	return total
}

// Unreachable prices a configuration no source can deliver.
const Unreachable = time.Duration(math.MaxInt64)

// AddCost sums two price estimates without overflowing past Unreachable.
func AddCost(a, b time.Duration) time.Duration {
	if a == Unreachable || b == Unreachable || a > Unreachable-b {
		return Unreachable
	}
	return a + b
}

// ScaleCost multiplies a network estimate by the batching factor N_c
// (§5.3): n concurrent requests sharing the link each see n× the delay.
func ScaleCost(d time.Duration, n int) time.Duration {
	if n <= 1 || d == Unreachable {
		return d
	}
	if d > Unreachable/time.Duration(n) {
		return Unreachable
	}
	return d * time.Duration(n)
}

// worthCancel is the stream acquirer's mid-chunk CANCEL rule: abandon
// the in-flight chunk, being delivered at wire level cur with left bytes
// still to come, when the policy's fresh choice differs and resending
// the chunk whole at it is cheaper than finishing.
func worthCancel(info ChunkInfo, cur int, fresh Choice, left int64) bool {
	return choiceLevel(fresh) != cur && choiceBytes(info, fresh) < left
}

// PathHint is a PathPolicy's verdict on how a fetch should be delivered.
type PathHint int

const (
	// PathAuto keeps the Fetcher's default: the stream acquirer when the
	// source speaks the server-push stream, the per-chunk one otherwise.
	PathAuto PathHint = iota
	// PathChunks selects the per-chunk acquirer. A policy
	// returns it when it routed chunks to sources the stream cannot serve
	// — the local payload cache or a colocated store — which are only
	// reachable at chunk granularity.
	PathChunks
)

// PathPolicy is a Policy that inspects a request's chunk metadata before
// any transfer. PlanPath is called once per fetch with the annotated
// suffix chunks (hashes and indices filled in); the policy
// primes its per-chunk source assignment there and picks the delivery
// path.
type PathPolicy interface {
	Policy
	PlanPath(chunks []ChunkInfo) PathHint
}

// PayloadCache is a gateway-local RAM tier for chunk payloads, keyed by
// content hash. The Fetcher writes every bitstream payload it pulls from
// elsewhere through it and serves "ram"-routed choices from it. All
// methods must be safe for concurrent use.
type PayloadCache interface {
	// Get returns the payload for hash, or false on a miss.
	Get(hash string) ([]byte, bool)
	// Put stores one payload (idempotent; the cache may evict).
	Put(hash string, data []byte)
	// Drop removes a payload whose bytes failed integrity checks.
	Drop(hash string)
}

// Source-class labels a Choice (and the resulting ChunkDecision) can
// carry. The empty string means the fetcher's default delivery: the
// fleet for bitstream chunks, text+recompute for text chunks.
const (
	SourceRAM       = "ram"       // gateway-local payload cache
	SourceDisk      = "disk"      // colocated store replica, no network
	SourceRemote    = "remote"    // ring node over the fleet
	SourceRecompute = "recompute" // text payload + GPU prefill
)

// sourceLabel resolves a choice's delivered source class, inferring the
// default labels when the policy did not set one.
func sourceLabel(c Choice) string {
	if c.Source != "" {
		return c.Source
	}
	if c.Text {
		return SourceRecompute
	}
	return SourceRemote
}

// DecisionSource resolves the source class a chunk decision was
// delivered by ("remote" and "recompute" for unlabeled bitstream/text
// deliveries from policy-less fetches).
func DecisionSource(d ChunkDecision) string {
	return sourceLabel(d.Choice)
}
