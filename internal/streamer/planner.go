// Package streamer implements CacheGen's KV cache streaming adaptation
// (§5.3, Appendix C.1): fetching a context's chunks one by one while
// choosing, per chunk, a streaming configuration — one of the codec's
// encoding levels or the text-recompute fallback — so the whole context
// loads within a TTFT service-level objective under varying bandwidth.
//
// The package separates the decision logic (Planner, pure and unit-
// testable) from what executes it. Simulate runs a request on the
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
// (fetch.go: depth-bounded GetChunkData with RAM/disk/peer routing).
package streamer

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// Choice is the streaming configuration selected for one chunk: either an
// encoding level or the text fallback ("send the chunk in text format and
// let the LLM recompute its KV", §5.3).
type Choice struct {
	Text  bool
	Level core.Level
	// Source, when set, routes the chunk's delivery to a specific source
	// class ("ram", "disk", "peer", …; see the Source* constants). The
	// Planner never sets it — the fleet serves every chunk — but a
	// scheduler policy uses it to steer individual chunks at the local
	// payload cache, a colocated store, or a peer gateway's resident KV.
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
	// KVBytes is the decoded KV size of the chunk in FP16 — what a peer
	// transfer of the finished tensor rows would move.
	KVBytes int64
}

// Planner implements the adaptation logic of Algorithm 1 (§C.1). The
// quality ordering across configurations is: text (lossless) ≻ level 0 ≻
// level 1 ≻ … ; the planner picks the least-lossy configuration whose
// expected completion time for all remaining chunks fits the remaining
// SLO budget, and the fastest configuration when nothing fits.
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
	// ForceText pins every chunk to the text-recompute fallback,
	// overriding adaptation. The gateway's degradation ladder sets it at
	// its last rung: text trades GPU recompute for near-zero network
	// dependence, which is the right trade when the fleet, not the
	// link, is what's degraded.
	ForceText bool
}

// Levels returns how many encoding levels the chunk metadata carries.
func levels(chunks []ChunkInfo) int {
	if len(chunks) == 0 {
		return 0
	}
	return len(chunks[0].SizesByLevel)
}

// Choose selects the configuration for chunk idx. elapsed is the time
// since the request started; throughputBPS is the estimate measured from
// the previous chunk (≤0 if unknown, first chunk).
func (p Planner) Choose(idx int, elapsed time.Duration, throughputBPS float64, chunks []ChunkInfo) (Choice, error) {
	if idx < 0 || idx >= len(chunks) {
		return Choice{}, fmt.Errorf("streamer: chunk index %d outside [0,%d)", idx, len(chunks))
	}
	nLevels := levels(chunks)
	if nLevels == 0 {
		return Choice{}, fmt.Errorf("streamer: chunk metadata carries no levels")
	}
	if int(p.DefaultLevel) >= nLevels {
		return Choice{}, fmt.Errorf("streamer: default level %d outside [0,%d)", p.DefaultLevel, nLevels)
	}
	if throughputBPS <= 0 {
		throughputBPS = p.PriorBandwidth
	}

	if p.ForceText {
		return Choice{Text: true}, nil
	}

	if !p.Adapt {
		return Choice{Level: p.DefaultLevel}, nil
	}

	if p.SLO <= 0 {
		// No SLO: default level, except the short-context TTFT shortcut.
		if p.MinimizeTTFT && throughputBPS > 0 {
			if p.textCost(idx, chunks, throughputBPS) < p.levelCost(idx, int(p.DefaultLevel), chunks, throughputBPS) {
				return Choice{Text: true}, nil
			}
		}
		return Choice{Level: p.DefaultLevel}, nil
	}

	remaining := p.SLO - elapsed

	// Unknown throughput with an SLO: the default medium level (§C.2).
	if throughputBPS <= 0 {
		return Choice{Level: p.DefaultLevel}, nil
	}

	// Algorithm 1: text first (lossless), then levels best-first.
	if p.textCost(idx, chunks, throughputBPS) <= remaining {
		return Choice{Text: true}, nil
	}
	for lv := 0; lv < nLevels; lv++ {
		if p.levelCost(idx, lv, chunks, throughputBPS) <= remaining {
			return Choice{Level: core.Level(lv)}, nil
		}
	}

	// Nothing fits: minimise the damage with the fastest configuration.
	best := Choice{Level: core.Level(nLevels - 1)}
	bestCost := p.levelCost(idx, nLevels-1, chunks, throughputBPS)
	if tc := p.textCost(idx, chunks, throughputBPS); tc < bestCost {
		best = Choice{Text: true}
	}
	return best, nil
}

// textCost estimates completing all remaining chunks via text recompute.
func (p Planner) textCost(idx int, chunks []ChunkInfo, bps float64) time.Duration {
	var total time.Duration
	for _, ch := range chunks[idx:] {
		total += p.scaleNet(netsim.TransferTime(ch.TextBytes, bps)) + p.RTT + ch.Recompute
	}
	return total
}

// levelCost estimates completing all remaining chunks at level lv
// ("size(chunks_to_send, level) ÷ throughput", Alg 1).
func (p Planner) levelCost(idx, lv int, chunks []ChunkInfo, bps float64) time.Duration {
	var total time.Duration
	for _, ch := range chunks[idx:] {
		total += p.scaleNet(netsim.TransferTime(ch.SizesByLevel[lv], bps)) + p.RTT
	}
	return total
}

// scaleNet multiplies a network estimate by the batching factor N_c.
func (p Planner) scaleNet(d time.Duration) time.Duration {
	if p.Concurrency > 1 {
		return d * time.Duration(p.Concurrency)
	}
	return d
}
