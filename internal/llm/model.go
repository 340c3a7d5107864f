// Package llm is the simulated large-language-model substrate of the
// CacheGen reproduction. There is no mature Go LLM inference stack, so per
// the reproduction's substitution rule (the README's introduction: a
// deterministic simulator, no GPU) this package supplies everything the
// paper obtains from real models, with the same interfaces and calibrated
// statistics:
//
//   - CalculateKV / ExtendKV: the calculate_kv interface of §6 — a
//     deterministic synthetic transformer whose KV tensors reproduce the
//     paper's measured distributional properties (§5.1): token-wise
//     locality, layer-dependent loss sensitivity, and per-channel/layer
//     value distributions.
//   - A prefill/decode cost model (FLOPs-based) standing in for vLLM on
//     A40 GPUs, for TTFT accounting.
//   - A quality model mapping KV reconstruction error and dropped-token
//     importance to task metrics (accuracy, F1, perplexity).
//   - GenerateWithKV: the generate_with_kv interface of §6, producing a
//     deterministic response whose correctness follows the quality model.
package llm

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// Model is a simulated LLM. It precomputes the per-(kind, layer, channel)
// statistics of its synthetic KV process once, so KV generation is a pure
// streaming computation. Model is safe for concurrent use after New.
type Model struct {
	cfg Config

	// Per-layer slow-component AR(1) coefficient, slow-variance fraction
	// and value scale.
	rho        []float64
	slowFrac   []float64
	layerScale []float64

	// Per (kind, layer, channel) mean and standard deviation, flattened
	// as [kind][layer*Channels+channel].
	mu, sigma [2][]float64
}

// New constructs a model from cfg. It returns an error if cfg is invalid.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		cfg:        cfg,
		rho:        make([]float64, cfg.Layers),
		slowFrac:   make([]float64, cfg.Layers),
		layerScale: make([]float64, cfg.Layers),
	}
	for kd := range m.mu {
		m.mu[kd] = make([]float64, cfg.Layers*cfg.Channels)
		m.sigma[kd] = make([]float64, cfg.Layers*cfg.Channels)
	}
	for l := 0; l < cfg.Layers; l++ {
		// ρ and the slow-variance fraction per layer; scale grows with
		// depth ("different layers have different ranges", §5.1 fn 3;
		// deeper layers capture higher-level structure, §5.1.2).
		m.rho[l] = cfg.RhoMin + (cfg.RhoMax-cfg.RhoMin)*hashUniform(cfg.Seed, 0xA1, uint64(l))
		m.slowFrac[l] = cfg.SlowFracMin + (cfg.SlowFracMax-cfg.SlowFracMin)*hashUniform(cfg.Seed, 0xA7, uint64(l))
		frac := 0.0
		if cfg.Layers > 1 {
			frac = float64(l) / float64(cfg.Layers-1)
		}
		m.layerScale[l] = cfg.ScaleMin + (cfg.ScaleMax-cfg.ScaleMin)*frac
		for kd := 0; kd < 2; kd++ {
			for c := 0; c < cfg.Channels; c++ {
				i := l*cfg.Channels + c
				// The per-channel scale has a component shared across
				// layers (real models have consistently hot channels —
				// rotary dims, attention sinks) plus per-layer jitter.
				// The shared component is what makes grouping values by
				// channel informative (§5.1.3, Fig 5).
				shared := hashLogNormal(cfg.ChannelSigma, cfg.Seed, 0xB9, uint64(kd), uint64(c))
				jitter := hashLogNormal(0.25, cfg.Seed, 0xB2, uint64(kd), uint64(l), uint64(c))
				s := m.layerScale[l] * shared * jitter
				m.sigma[kd][i] = s
				m.mu[kd][i] = 0.4 * s * hashNormal(cfg.Seed, 0xC3, uint64(kd), uint64(l), uint64(c))
			}
		}
	}
	return m, nil
}

// MustNew is New for predefined configs known to be valid; it panics on
// error and is intended for tests and examples.
func MustNew(cfg Config) *Model {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration (with defaults applied).
func (m *Model) Config() Config { return m.cfg }

// innovation returns the unit-variance noise driving the slow component at
// position pos, as a pure function of the token at pos. This is what ties
// KV values to context *content*.
func (m *Model) innovation(kind, layer, channel int, tok Token, pos int) float64 {
	return hashNormal(m.cfg.Seed, 0xD4, uint64(kind), uint64(layer), uint64(channel), uint64(uint32(tok)), uint64(pos))
}

// dither returns the fast noise component at position pos. It depends on
// position only (not token content), which keeps the process resumable
// from a stored KV tensor alone: ExtendKV recovers the slow state as
// x − μ − dither without needing the preceding tokens.
func (m *Model) dither(kind, layer, channel, pos int) float64 {
	return hashNormal(m.cfg.Seed, 0xB7, uint64(kind), uint64(layer), uint64(channel), uint64(pos))
}

// CalculateKV computes the KV cache of a token sequence — the
// calculate_kv(context) interface of §6. The value at position t is the
// channel mean plus a slow AR(1) drift (innovation determined by the token
// at t) plus fast positional noise, so (a) the same context always
// produces the same KV cache, (b) nearby tokens have correlated values
// (token-wise locality, §5.1.1), and (c) a token's KV depends on the whole
// prefix, as with real self-attention.
func (m *Model) CalculateKV(tokens []Token) *tensor.KV {
	return m.extend(nil, nil, tokens)
}

// ExtendKV computes the KV cache of newTokens given the already-computed
// cache of the preceding context. This is the path used when a chunk is
// sent as text and the LLM recomputes its KV "based on the previous
// chunk's KV tensors that have been received and decoded" (§5.3). The
// result is bit-identical to the corresponding token range of
// CalculateKV(append(prevTokens, newTokens...)) when prev is exact.
//
// prev may hold more than prevLen tokens — only its first prevLen tokens
// are the preceding context and the AR state resumes from token
// prevLen-1. A streaming assembler can therefore pass its full-size,
// partially-filled destination tensor directly.
func (m *Model) ExtendKV(prev *tensor.KV, prevLen int, newTokens []Token) (*tensor.KV, error) {
	if prev == nil || prevLen == 0 {
		return m.CalculateKV(newTokens), nil
	}
	if prev.Layers != m.cfg.Layers || prev.Channels != m.cfg.Channels {
		return nil, fmt.Errorf("llm: ExtendKV: prev cache shape (%d,·,%d) does not match model (%d,·,%d)",
			prev.Layers, prev.Channels, m.cfg.Layers, m.cfg.Channels)
	}
	if prev.Tokens == 0 {
		return m.CalculateKV(newTokens), nil
	}
	if prevLen < 0 || prevLen > prev.Tokens {
		return nil, fmt.Errorf("llm: ExtendKV: prevLen %d outside prev cache of %d tokens", prevLen, prev.Tokens)
	}
	return m.extend(prev, &prevLen, newTokens), nil
}

// extend generates KV values for newTokens starting from the AR state in
// the last token of prev (or from the stationary start if prev is nil).
// prevLen is the absolute position offset of the first new token.
func (m *Model) extend(prev *tensor.KV, prevLenPtr *int, newTokens []Token) *tensor.KV {
	cfg := m.cfg
	out := tensor.New(cfg.Layers, len(newTokens), cfg.Channels)
	if len(newTokens) == 0 {
		return out
	}
	offset := 0
	if prevLenPtr != nil {
		offset = *prevLenPtr
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Layers {
		workers = cfg.Layers
	}
	var wg sync.WaitGroup
	layerCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for l := range layerCh {
				m.fillLayer(out, prev, offset, l, newTokens)
			}
		}()
	}
	for l := 0; l < cfg.Layers; l++ {
		layerCh <- l
	}
	close(layerCh)
	wg.Wait()
	return out
}

func (m *Model) fillLayer(out, prev *tensor.KV, offset, l int, tokens []Token) {
	cfg := m.cfg
	rho := m.rho[l]
	innovScale := math.Sqrt(math.Max(0, 1-rho*rho))
	slowFrac := m.slowFrac[l]
	for kd, kind := range tensor.Kinds {
		for c := 0; c < cfg.Channels; c++ {
			i := l*cfg.Channels + c
			mu, sg := m.mu[kd][i], m.sigma[kd][i]
			sgSlow := sg * math.Sqrt(slowFrac)
			sgFast := sg * math.Sqrt(1-slowFrac)
			// slow is the AR(1) component's state. When resuming from a
			// stored tensor, it is recovered as x − μ − dither: the dither
			// depends on position only, so no token history is needed, and
			// both paths round through float32 to stay bit-identical.
			var slow float64
			havePrev := prev != nil && offset > 0
			if havePrev {
				// The AR state lives in the last context token — row
				// offset-1, not prev's last row: prev may be a larger,
				// partially-filled assembly buffer.
				x := float64(prev.At(kind, l, offset-1, c))
				slow = x - mu - sgFast*m.dither(kd, l, c, offset-1)
			}
			for t, tok := range tokens {
				pos := offset + t
				eps := m.innovation(kd, l, c, tok, pos)
				if t == 0 && !havePrev {
					slow = sgSlow * eps
				} else {
					slow = rho*slow + sgSlow*innovScale*eps
				}
				f := float32(mu + slow + sgFast*m.dither(kd, l, c, pos))
				// Re-derive the slow state from the rounded value so a
				// resumed computation (which only sees the float32 tensor)
				// continues identically.
				slow = float64(f) - mu - sgFast*m.dither(kd, l, c, pos)
				out.Set(kind, l, t, c, f)
			}
		}
	}
}

// Importance returns a per-token importance score (the synthetic stand-in
// for accumulated self-attention mass). Heavy-tailed: a few tokens carry
// most of the importance, which is exactly the structure H2O and
// Scissorhands exploit (§7.1, §B). Deterministic in (model, token, pos).
func (m *Model) Importance(tokens []Token) []float64 {
	out := make([]float64, len(tokens))
	for t, tok := range tokens {
		out[t] = hashLogNormal(1.2, m.cfg.Seed, 0xE5, uint64(uint32(tok)), uint64(t))
	}
	return out
}
