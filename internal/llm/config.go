package llm

import (
	"fmt"
	"strings"
)

// Token is a vocabulary id. Tokenisation itself is out of scope (the paper
// treats it as negligible, §2.1 footnote 1); contexts are token sequences.
type Token = int32

// VocabSize is the synthetic vocabulary size (Llama/Mistral use 32000).
const VocabSize = 32000

// Config describes one LLM for the simulator: its architecture (which
// fixes KV cache geometry and FLOPs) and the statistical parameters of its
// synthetic KV process.
//
// KVChannels is the real model's per-token, per-layer KV width
// (kv-heads × head-dim); it determines transmission sizes. Channels is how
// many of those channels are actually synthesised — experiments run on a
// channel subsample and extrapolate sizes by ChannelScale, which is sound
// because channels are statistically exchangeable within the process.
type Config struct {
	Name       string
	Layers     int     // transformer layers
	KVChannels int     // real KV channels per token per layer (per K or V)
	Channels   int     // synthesised channels (0 ⇒ KVChannels)
	Hidden     int     // hidden dimension (for the attention FLOPs term)
	Params     float64 // parameter count (for the GEMM FLOPs term)
	Seed       uint64  // model identity seed for the synthetic process

	// Synthetic KV process parameters. Zero values select defaults that
	// reproduce the paper's measured statistics (§5.1).
	//
	// Each (layer, channel) value is x_t = μ + a_t + b_t: a slowly
	// drifting AR(1) component a (coefficient ρ ∈ [RhoMin, RhoMax],
	// variance share SlowFracMin..SlowFracMax of the total) plus fast
	// per-position noise b. This two-timescale structure is what real KV
	// caches exhibit: consecutive-token deltas are only 2.4–2.9× lower
	// variance than the values themselves (Fig 3), yet values stay highly
	// correlated across a whole 10-token group, which is why CacheGen's
	// anchor-referenced delta encoding compresses well (§5.2).
	//
	//   ScaleMin..ScaleMax — per-layer value scale range, shallow→deep
	//     ("values in different layers have different ranges", Fig 3 fn).
	//   ChannelSigma — lognormal spread of per-channel scales (drives the
	//     entropy gain of channel grouping, Fig 5).
	RhoMin, RhoMax           float64
	SlowFracMin, SlowFracMax float64
	ScaleMin, ScaleMax       float64
	ChannelSigma             float64
}

func (c Config) withDefaults() Config {
	if c.Channels == 0 {
		c.Channels = c.KVChannels
	}
	if c.RhoMin == 0 {
		c.RhoMin = 0.989
	}
	if c.RhoMax == 0 {
		c.RhoMax = 0.993
	}
	if c.SlowFracMin == 0 {
		c.SlowFracMin = 0.80
	}
	if c.SlowFracMax == 0 {
		c.SlowFracMax = 0.83
	}
	if c.ScaleMin == 0 {
		c.ScaleMin = 0.5
	}
	if c.ScaleMax == 0 {
		c.ScaleMax = 2.0
	}
	if c.ChannelSigma == 0 {
		c.ChannelSigma = 0.65
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("llm: %s: layers %d", c.Name, c.Layers)
	case c.KVChannels <= 0:
		return fmt.Errorf("llm: %s: kv channels %d", c.Name, c.KVChannels)
	case c.Channels <= 0 || c.Channels > c.KVChannels:
		return fmt.Errorf("llm: %s: synth channels %d outside (0,%d]", c.Name, c.Channels, c.KVChannels)
	case c.Hidden <= 0 || c.Params <= 0:
		return fmt.Errorf("llm: %s: hidden %d / params %g", c.Name, c.Hidden, c.Params)
	case c.RhoMin < 0 || c.RhoMax >= 1 || c.RhoMin > c.RhoMax:
		return fmt.Errorf("llm: %s: rho range [%g,%g]", c.Name, c.RhoMin, c.RhoMax)
	case c.SlowFracMin <= 0 || c.SlowFracMax >= 1 || c.SlowFracMin > c.SlowFracMax:
		return fmt.Errorf("llm: %s: slow-fraction range [%g,%g]", c.Name, c.SlowFracMin, c.SlowFracMax)
	case c.ScaleMin <= 0 || c.ScaleMin > c.ScaleMax:
		return fmt.Errorf("llm: %s: scale range [%g,%g]", c.Name, c.ScaleMin, c.ScaleMax)
	}
	return nil
}

// ChannelScale is the size extrapolation factor from synthesised channels
// to the real model's channels.
func (c Config) ChannelScale() float64 {
	c = c.withDefaults()
	return float64(c.KVChannels) / float64(c.Channels)
}

// KVBytesPerTokenFP16 is the fp16 KV cache footprint of one token:
// 2 tensors × layers × real channels × 2 bytes.
func (c Config) KVBytesPerTokenFP16() int64 {
	return 2 * int64(c.Layers) * int64(c.KVChannels) * 2
}

// WithChannels returns a copy synthesising only n channels (experiment
// scaling); an n of 0, or one at or above the KV width, keeps the full
// width. Sizes reported by the harness are extrapolated by ChannelScale.
func (c Config) WithChannels(n int) Config {
	if n > 0 && n < c.KVChannels {
		c.Channels = n
	}
	return c
}

// Predefined model configurations. Layer counts and KV widths follow the
// public architectures; Mistral-7B and the Llama-34B/70B long-context
// fine-tunes use grouped-query attention (8 KV heads × 128 head dim except
// 34B at 1280), which is what makes, e.g., a 9.4K-token Mistral-7B context
// occupy 2·32·9400·1024·2 B ≈ 1.23 GB in fp16 — 622 MB at 8 bits, matching
// Table 1.

// Mistral7B returns the Mistral-7B (32 layers, GQA) configuration.
func Mistral7B() Config {
	return Config{Name: "Mistral-7B", Layers: 32, KVChannels: 1024, Hidden: 4096, Params: 7.2e9, Seed: 0x7B01}.withDefaults()
}

// Llama34B returns the Llama-34B long-context fine-tune configuration.
func Llama34B() Config {
	return Config{Name: "Llama-34B", Layers: 48, KVChannels: 1280, Hidden: 8192, Params: 3.4e10, Seed: 0x34B1}.withDefaults()
}

// Llama70B returns the Llama-70B (80 layers, GQA) configuration.
func Llama70B() Config {
	return Config{Name: "Llama-70B", Layers: 80, KVChannels: 1024, Hidden: 8192, Params: 7.0e10, Seed: 0x70B1}.withDefaults()
}

// Llama7B returns the Llama-7B (32 layers, full multi-head attention)
// configuration used for the §5.1 insight measurements.
func Llama7B() Config {
	return Config{Name: "Llama-7B", Layers: 32, KVChannels: 4096, Hidden: 4096, Params: 6.7e9, Seed: 0x0701}.withDefaults()
}

// Llama13B returns the Llama-13B (40 layers, MHA) configuration.
func Llama13B() Config {
	return Config{Name: "Llama-13B", Layers: 40, KVChannels: 5120, Hidden: 5120, Params: 1.3e10, Seed: 0x1301}.withDefaults()
}

// Llama3B returns the small Llama-3B configuration used by the
// smaller-model baseline (Fig 18a).
func Llama3B() Config {
	return Config{Name: "Llama-3B", Layers: 26, KVChannels: 3200, Hidden: 3200, Params: 3.4e9, Seed: 0x0301}.withDefaults()
}

// AllModels lists the predefined configurations.
func AllModels() []Config {
	return []Config{Mistral7B(), Llama34B(), Llama70B(), Llama7B(), Llama13B(), Llama3B()}
}

// ByName returns the predefined configuration with the given name
// (e.g. "Mistral-7B", case-insensitive).
func ByName(name string) (Config, error) {
	for _, cfg := range AllModels() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return Config{}, fmt.Errorf("llm: unknown model %q", name)
}
