// Package streamer implements CacheGen's KV cache streaming adaptation
// (§5.3, Appendix C.1): fetching a context's chunks one by one while
// choosing, per chunk, a streaming configuration — one of the codec's
// encoding levels or the text-recompute fallback — so the whole context
// loads within a TTFT service-level objective under varying bandwidth.
//
// The package owns the decision logic and separates it from what
// executes it. Algorithm 1 is one procedure, Decide (policy.go), over a
// price table — "what does chunk i cost at level lv by its cheapest
// source, and as text" — with the request's side (SLO, default level,
// degradation-ladder rung) passed as a value; Planner feeds it the
// one-link table and sched.Plan the four-source one, so a rule changed
// there changes on both paths. Simulate runs a request on the
// virtual-time network simulator with the LLM cost model (the experiment
// path). Fetcher is the live path, and it is one pipeline: a per-request
// chunk assembler (assemble.go) owns everything that does not depend on
// how bytes arrive — destination offsets, header validation, decode
// pipelined with transmission, the in-order finalizer that recomputes
// text-mode chunks behind their assembled prefix, corrupt-reject and
// refetch, cache write-through, time attribution and the report — and
// two thin byte-acquirers feed it: the stream receive loop
// (stream_fetch.go: one server-push stream, frame-fed bandwidth
// estimation, SWITCH/CANCEL mid-chunk) and the per-chunk issuer
// (fetch.go: depth-bounded GetChunkData with RAM/disk routing).
package streamer

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Choice is the streaming configuration selected for one chunk: either an
// encoding level or the text fallback ("send the chunk in text format and
// let the LLM recompute its KV", §5.3).
type Choice struct {
	Text  bool
	Level core.Level
	// Source, when set, routes the chunk's delivery to a specific source
	// class ("ram", "disk", "remote", "recompute"; see the Source*
	// constants). The Planner never sets it — the fleet serves every chunk
	// — but a scheduler policy uses it to steer individual chunks at the
	// local payload cache or a colocated store.
	// The Fetcher falls back to the fleet when the routed source misses.
	Source string
}

// String renders the choice as the paper's figures label it.
func (c Choice) String() string {
	if c.Text {
		return "text"
	}
	return fmt.Sprintf("L%d", c.Level)
}

// ChunkInfo is what the planner knows about one chunk ahead of time — all
// of it available offline from the store's metadata plus the cost model.
type ChunkInfo struct {
	// Tokens is the chunk length in tokens.
	Tokens int
	// SizesByLevel[lv] is the encoded bitstream size at level lv.
	SizesByLevel []int64
	// TextBytes is the size of the chunk's token-text payload.
	TextBytes int64
	// Recompute is the (estimated) GPU time to recompute this chunk's KV
	// from text, given all previous chunks resident.
	Recompute time.Duration

	// The fields below annotate the chunk with its delivery identity, so
	// a scheduling policy can price alternative sources. The Fetcher
	// fills them from the manifest when a Policy is installed; they stay
	// zero in simulation and on the greedy path, and the Planner ignores
	// them.

	// Context is the context id the chunk belongs to.
	Context string
	// Index is the chunk's absolute index within the context.
	Index int
	// HashByLevel[lv] is the chunk's content hash at encoding level lv.
	HashByLevel []string
	// TextHash is the content hash of the chunk's token-text payload
	// ("" when the context was published without text).
	TextHash string
	// KVBytes is the decoded KV size of the chunk in FP16. No price reads
	// it, and the Fetcher leaves it zero.
	KVBytes int64
}

// Planner is the one-source front end to Algorithm 1 (Decide, policy.go):
// it prices the single fleet link and keeps what is the planner's own —
// argument validation, the §C.2 no-estimate rule, PriorBandwidth and the
// §7.3 MinimizeTTFT shortcut. A gateway without a scheduler runs on it,
// and it is the reference arm sched.Plan is tested against.
type Planner struct {
	// SLO is the TTFT objective. Zero disables SLO-driven adaptation: the
	// planner streams at DefaultLevel (§C.2), except that with
	// MinimizeTTFT set it falls back to text when that is faster — the
	// "short context" behaviour of §7.3.
	SLO time.Duration
	// DefaultLevel is used for the first chunk when no throughput estimate
	// exists (§C.2: "CacheGen starts with a default medium encoding
	// level") and whenever adaptation is disabled.
	DefaultLevel core.Level
	// PriorBandwidth, if positive, seeds the first chunk's throughput
	// estimate (§5.3: "if some prior knowledge of the network throughput
	// is available").
	PriorBandwidth float64
	// RTT is the per-chunk request overhead added to transfer estimates.
	RTT time.Duration
	// Concurrency is N_c, the number of concurrent requests sharing the
	// link at this chunk index; expected delays are multiplied by it
	// (§5.3, multi-request batching). Zero means 1.
	Concurrency int
	// Adapt enables per-chunk adaptation. When false the planner always
	// returns DefaultLevel — the "CacheGen w/o adaptation" baseline of
	// Fig 13.
	Adapt bool
	// MinimizeTTFT, with SLO zero, picks text when its expected completion
	// beats DefaultLevel's (requires a throughput estimate).
	MinimizeTTFT bool
	// Rung is the degradation-ladder rung (Terms.Rung); the gateway sets
	// it per request. It caps quality with or without Adapt.
	Rung int
}

// linkPrices is the Planner's price table: every chunk comes over the
// one fleet link, at RTT + N_c·size/bandwidth.
type linkPrices struct {
	chunks []ChunkInfo
	bps    float64
	rtt    time.Duration
	conc   int
}

func (l linkPrices) Dims() (int, int) { return len(l.chunks), len(l.chunks[0].SizesByLevel) }

func (l linkPrices) Price(ci, lv int) (time.Duration, string) {
	if lv == storage.TextLevel {
		return AddCost(l.net(l.chunks[ci].TextBytes), l.chunks[ci].Recompute), ""
	}
	return l.net(l.chunks[ci].SizesByLevel[lv]), ""
}

func (l linkPrices) net(bytes int64) time.Duration {
	return AddCost(ScaleCost(netsim.TransferTime(bytes, l.bps), l.conc), l.rtt)
}

// Choose selects the configuration for chunk idx. elapsed is the time
// since the request started; throughputBPS is the estimate measured from
// the previous chunk (≤0 if unknown, first chunk).
func (p Planner) Choose(idx int, elapsed time.Duration, throughputBPS float64, chunks []ChunkInfo) (Choice, error) {
	if idx < 0 || idx >= len(chunks) {
		return Choice{}, fmt.Errorf("streamer: chunk index %d outside [0,%d)", idx, len(chunks))
	}
	nLevels := len(chunks[0].SizesByLevel)
	if nLevels == 0 {
		return Choice{}, fmt.Errorf("streamer: chunk metadata carries no levels")
	}
	if int(p.DefaultLevel) >= nLevels {
		return Choice{}, fmt.Errorf("streamer: default level %d outside [0,%d)", p.DefaultLevel, nLevels)
	}
	if p.Rung < 0 {
		return Choice{}, fmt.Errorf("streamer: negative ladder rung %d", p.Rung)
	}
	if throughputBPS <= 0 {
		throughputBPS = p.PriorBandwidth
	}
	if throughputBPS <= 0 {
		// Nothing to price with: the default medium level (§C.2), as far
		// down the ladder as the rung says.
		return Choice{Level: core.Level(min(int(p.DefaultLevel)+p.Rung, nLevels-1))}, nil
	}

	pr := linkPrices{chunks: chunks, bps: throughputBPS, rtt: p.RTT, conc: p.Concurrency}
	t := Terms{DefaultLevel: p.DefaultLevel, Rung: p.Rung}
	if p.Adapt {
		t.SLO = p.SLO
		if p.SLO <= 0 && p.MinimizeTTFT && p.Rung == 0 &&
			rest(pr, idx, len(chunks), storage.TextLevel) < rest(pr, idx, len(chunks), int(p.DefaultLevel)) {
			return Choice{Text: true}, nil
		}
	}
	c, _ := Decide(pr, t, idx, elapsed)
	return c, nil
}
