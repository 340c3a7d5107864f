// Package core implements the paper's primary contribution: the CacheGen
// KV cache encoder and decoder (§5.2). The codec turns KV tensors into
// compact bitstreams and back, combining:
//
//   - change-based encoding: tokens are partitioned into groups of ten;
//     the first token of each group (the anchor) is encoded with 8-bit
//     vectorwise quantization and every other token as a delta against the
//     anchor, exploiting token-wise locality (§5.1.1);
//   - layer-wise quantization: delta bin sizes {0.5, 1.0, 1.5} for the
//     shallow/middle/deep thirds of the model (§5.1.2, §C.2), scaled by
//     the encoding level's multiplier (§5.3);
//   - arithmetic coding with a separate probability model per
//     (layer, channel-group) combination, profiled offline per LLM and
//     reused for every context (§5.1.3).
//
// Token groups are independently decodable, so encoding and decoding
// parallelise across groups (the Go worker pool standing in for the
// paper's CUDA one-thread-per-token kernels, §6), and a context chunk of
// any whole number of groups is independently decodable — the property the
// streamer's per-chunk adaptation relies on (§5.3).
//
// # Concurrency
//
// A Codec runs at most Config.Workers group coders at once (GOMAXPROCS
// when it was built, if unset), whatever mix of encode and decode calls is
// in flight: each holds one of the codec's coder slots while it works. The
// paper's interface (§6) has a latency-critical get_kv and an offline
// store_kv, and a serving process runs both on one codec, so the slots are
// scheduled in two classes — load, every decode path, and publish, every
// encode path — by three rules (slots.go):
//
//   - R1: a free slot goes to the oldest waiting load lane before any
//     publish batch.
//   - R2: a publish batch reads one atomic at every (kind, layer) block
//     boundary and, while a load lane waits, hands its slot over and
//     re-queues.
//   - R3: every load in flight — BeginLoad until its End, which the fetch
//     pipeline calls around manifest, transfer and assembly — reserves two
//     slots: its decode, and the P the Go runtime needs idle to poll the
//     network for the load's round trips promptly. Publish batches
//     therefore hold at most max(0, workers − 2·loads): none beside a load
//     on two cores, ten beside three loads on sixteen. A batch that loads
//     have kept out for publishMaxWait (50 ms) in total is exempt from R3
//     until it ends, R1 and R2 still binding, so loads that never stop, or
//     a publish issued from inside a load, slow publishing down but can
//     neither stop nor deadlock it.
//
// The rules share out slots; the processor under a slot is shared too.
// Coder loops never block, so every one is a Go scheduling point: a publish
// batch at each block boundary (right after R2's look) and every decode
// worker after each job, each keeping its slot while it yields. Without
// that, a batch or a decode helper keeps its P until the runtime's 10 ms
// async preemption, and every timer and channel-readied goroutine behind
// it — the gateway's prefill timer, the goroutine about to register a
// load — waits as long. Socket wake-ups are the exception R3 exists for: a
// yielded coder waits in the global run queue, and the scheduler skips its
// non-blocking network poll while any run queue holds work.
//
// SlotTotals reports what the rules cost each class.
//
// # Decode
//
// Every decode — a whole container (DecodeChunk, DecodeParsedInto,
// DecodeContext), one lane (DecodeLaneInto), or the lanes of a streamed
// container that have landed by the time a coder slot frees
// (DecodeLandedInto) — verifies the lanes it covers, then cuts their token
// groups into jobs of eight across lane boundaries, so the lockstep kernel
// (ac.DecodeRows) runs four streams wide whatever the lane layout; the
// caller and helpers recruited from free slots pull the jobs. A single
// lane is one job on the caller's slot.
package core

import (
	"fmt"
	"math"

	"repro/internal/ac"
	"repro/internal/quant"
)

// Level selects one of the codec's encoding (quantization) levels.
// Level 0 is the highest quality (smallest bins, largest bitstream);
// higher levels trade quality for size. The streamer additionally knows a
// "text" configuration, which is not a codec level (§5.3).
type Level int

// Config holds the codec parameters. DefaultConfig returns the paper's
// values; zero-value fields in a custom Config are filled with defaults by
// Normalize.
type Config struct {
	// GroupSize is the token-group length (anchor + deltas). Paper: 10.
	GroupSize int
	// AnchorBits is the anchor tokens' quantization width. Paper: 8.
	AnchorBits int
	// BaseBins are the per-layer-third delta bin sizes. Paper: 0.5/1.0/1.5.
	BaseBins quant.LayerGroupBins
	// LevelMultipliers scale BaseBins per encoding level; index = Level.
	LevelMultipliers []float64
	// ChunkTokens is the default context-chunk length. Paper: 1500.
	ChunkTokens int
	// ChannelBuckets bounds the number of per-layer channel groups that
	// get their own arithmetic-coding model. When the tensor has no more
	// channels than buckets this is exactly the paper's per-channel
	// modelling; beyond that, adjacent channels share a model to bound
	// table memory.
	ChannelBuckets int
	// DeltaClamp bounds quantized delta magnitudes; the delta alphabet is
	// 2·DeltaClamp+1 symbols.
	DeltaClamp int32
	// Workers caps the parallelism of encode, decode and Train; 0 means
	// GOMAXPROCS.
	Workers int
	// CoderLanes is the number of independently decodable coder lanes a
	// v2 chunk container is partitioned into (clipped to the chunk's
	// token-group count). Lanes are a container-layout property, not a
	// coding property: the per-group arithmetic-coded streams are
	// bit-identical at any lane count, only the header's lane table
	// changes — so, like Workers, CoderLanes is excluded from the bank
	// fingerprint. 0 means 16.
	CoderLanes int

	// Ablation switches (Figure 15). Production use leaves them false.
	//
	// DisableDelta encodes raw values (uniform-quantized) instead of
	// anchor+delta ("Quant. + AC" in Fig 15).
	DisableDelta bool
	// DisableLayerwise uses the middle bin size for every layer
	// ("Quant. + AC + Change" in Fig 15).
	DisableLayerwise bool
	// GlobalACModel trains a single symbol distribution shared by all
	// layers and channels (the strawman of §5.2, up to 53% larger).
	GlobalACModel bool
}

// maxDeltaClamp is the largest DeltaClamp whose 2·DeltaClamp+1-symbol
// delta alphabet an ac.FreqTable can model.
const maxDeltaClamp = (ac.MaxTotal - 2) / 2

// DefaultConfig returns the paper's codec parameters.
func DefaultConfig() Config {
	return Config{
		GroupSize:        10,
		AnchorBits:       8,
		BaseBins:         quant.DefaultLayerBins(),
		LevelMultipliers: []float64{0.75, 1.0, 1.5, 2.25},
		ChunkTokens:      1500,
		ChannelBuckets:   128,
		DeltaClamp:       127,
		CoderLanes:       16,
	}
}

// Normalize fills zero-valued fields with defaults and validates the
// result.
func (c Config) Normalize() (Config, error) {
	d := DefaultConfig()
	if c.GroupSize == 0 {
		c.GroupSize = d.GroupSize
	}
	if c.AnchorBits == 0 {
		c.AnchorBits = d.AnchorBits
	}
	if c.BaseBins == (quant.LayerGroupBins{}) {
		c.BaseBins = d.BaseBins
	}
	if len(c.LevelMultipliers) == 0 {
		c.LevelMultipliers = d.LevelMultipliers
	}
	if c.ChunkTokens == 0 {
		c.ChunkTokens = d.ChunkTokens
	}
	if c.ChannelBuckets == 0 {
		c.ChannelBuckets = d.ChannelBuckets
	}
	if c.DeltaClamp == 0 {
		c.DeltaClamp = d.DeltaClamp
	}
	if c.CoderLanes == 0 {
		c.CoderLanes = d.CoderLanes
	}
	switch {
	case c.GroupSize < 2:
		return c, fmt.Errorf("core: group size %d < 2", c.GroupSize)
	case c.AnchorBits < 2 || c.AnchorBits > 16:
		return c, fmt.Errorf("core: anchor bits %d outside [2,16]", c.AnchorBits)
	case c.ChunkTokens < c.GroupSize:
		return c, fmt.Errorf("core: chunk tokens %d below group size %d (a chunk must be at least one token group, §5.3)",
			c.ChunkTokens, c.GroupSize)
	case c.ChannelBuckets < 1:
		return c, fmt.Errorf("core: channel buckets %d < 1", c.ChannelBuckets)
	case c.DeltaClamp < 1 || c.DeltaClamp > maxDeltaClamp:
		return c, fmt.Errorf("core: delta clamp %d outside [1,%d]", c.DeltaClamp, maxDeltaClamp)
	case c.CoderLanes < 1 || c.CoderLanes > maxWireLanes:
		return c, fmt.Errorf("core: coder lanes %d outside [1,%d]", c.CoderLanes, maxWireLanes)
	}
	for i, m := range c.LevelMultipliers {
		if !(m > 0) || math.IsInf(m, 1) {
			return c, fmt.Errorf("core: level %d multiplier %v must be positive and finite", i, m)
		}
	}
	for _, b := range c.BaseBins.Bins {
		if !(b > 0) || math.IsInf(b, 1) {
			return c, fmt.Errorf("core: bin sizes must be positive and finite, got %v", c.BaseBins.Bins)
		}
	}
	return c, nil
}

// Levels returns the number of encoding levels.
func (c Config) Levels() int { return len(c.LevelMultipliers) }

// ValidLevel reports whether lv is a defined encoding level.
func (c Config) ValidLevel(lv Level) bool { return lv >= 0 && int(lv) < c.Levels() }

// binsFor returns the per-layer bins for level lv, honouring the ablation
// switches.
func (c Config) binsFor(lv Level) quant.LayerGroupBins {
	b := c.BaseBins
	if c.DisableLayerwise {
		mid := b.Bins[1]
		b = quant.LayerGroupBins{Bins: [3]float64{mid, mid, mid}}
	}
	return b.Scaled(c.LevelMultipliers[lv])
}

// alphabets returns the anchor and delta symbol alphabet sizes.
func (c Config) alphabets() (anchor, delta int) {
	return quant.Vectorwise{Bits: c.AnchorBits}.Levels(), int(2*c.DeltaClamp + 1)
}

// bucketOf maps a channel index to its AC-model bucket.
func (c Config) bucketOf(channel, channels int) int {
	if c.GlobalACModel {
		return 0
	}
	buckets := c.ChannelBuckets
	if buckets > channels {
		buckets = channels
	}
	return channel * buckets / channels
}

// numBuckets returns how many channel buckets the codec uses for a tensor
// with the given channel count.
func (c Config) numBuckets(channels int) int {
	if c.GlobalACModel {
		return 1
	}
	if c.ChannelBuckets > channels {
		return channels
	}
	return c.ChannelBuckets
}
