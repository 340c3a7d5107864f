// Package harness reproduces every table and figure of the paper's
// evaluation (§7, Appendices B–E). Each experiment is a named runner that
// prints the same rows/series the paper reports; cmd/cachegen-exp exposes
// them on the command line and this package's bench_test.go wraps each in
// a benchmark.
//
// Scaling: experiments synthesise a channel subsample of each model
// (Scale.Channels of Config.KVChannels) and measure the codec's
// bits-per-element and reconstruction error on it; transmission sizes are
// extrapolated to the full model width, which is sound because channels
// are exchangeable in the synthetic KV process (see internal/llm and the
// README's introduction). Context
// *lengths* in TTFT experiments are the datasets' real lengths.
package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// Scale controls how much work experiments do. DefaultScale keeps the
// whole suite runnable in seconds; FullScale approaches paper scale.
type Scale struct {
	// Channels is the synthesised channel count per model.
	Channels int
	// RefTokens is the reference-context length used for codec training
	// and quality calibration.
	RefTokens int
	// TrainContexts is the number of profiling contexts for bank training.
	TrainContexts int
	// ContextsPerDataset bounds how many contexts TTFT experiments touch.
	ContextsPerDataset int
	// Traces is the number of random bandwidth traces for Fig 13.
	Traces int
}

// DefaultScale returns the fast configuration used by tests and benches.
func DefaultScale() Scale {
	return Scale{Channels: 32, RefTokens: 700, TrainContexts: 2, ContextsPerDataset: 4, Traces: 16}
}

// FullScale returns a configuration close to the paper's workload sizes.
func FullScale() Scale {
	return Scale{Channels: 96, RefTokens: 2000, TrainContexts: 4, ContextsPerDataset: 20, Traces: 20}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Channels == 0 {
		s.Channels = d.Channels
	}
	if s.RefTokens == 0 {
		s.RefTokens = d.RefTokens
	}
	if s.TrainContexts == 0 {
		s.TrainContexts = d.TrainContexts
	}
	if s.ContextsPerDataset == 0 {
		s.ContextsPerDataset = d.ContextsPerDataset
	}
	if s.Traces == 0 {
		s.Traces = d.Traces
	}
	return s
}

// Rig bundles everything needed to evaluate one model: the scaled
// simulator, a trained codec, and calibration measurements (per-level
// bits/element and KV error, per-bit-width quantization error).
type Rig struct {
	Full   llm.Config // full-size configuration (for sizes and FLOPs)
	Scaled llm.Config // channel-subsampled configuration
	Model  *llm.Model
	Codec  *core.Codec
	Dev    llm.Device
	QP     llm.QualityParams

	// LevelBPE[lv] is the measured bits per element at encoding level lv;
	// LevelErr[lv] the layer-weighted KV reconstruction error.
	LevelBPE []float64
	LevelErr []float64
	// QuantErr[bits] is the KV error of the default-quantization baseline.
	QuantErr map[int]float64

	// RefTokens is the calibration context; RefKV its exact cache.
	RefTokens []llm.Token
	RefKV     *tensor.KV
	// Samples are the profiling caches the codec bank was trained on,
	// retained so ablation experiments can train variant banks.
	Samples []*tensor.KV

	scale Scale
}

// NewRig builds a rig for the given full-size model configuration.
func NewRig(full llm.Config, scale Scale) (*Rig, error) {
	scale = scale.withDefaults()
	scaled := full
	if scale.Channels < scaled.KVChannels {
		scaled = scaled.WithChannels(scale.Channels)
	}
	model, err := llm.New(scaled)
	if err != nil {
		return nil, err
	}

	// Train the codec bank on profiling contexts (§5.2: offline, per LLM).
	lc := dataset.LongChat()
	lengthScale := float64(scale.RefTokens) / 9400.0
	trainCtxs := lc.Contexts(scale.TrainContexts+1, lengthScale)
	var samples []*tensor.KV
	for _, c := range trainCtxs[:scale.TrainContexts] {
		samples = append(samples, model.CalculateKV(c.Tokens))
	}
	bank, err := core.Train(core.DefaultConfig(), samples)
	if err != nil {
		return nil, fmt.Errorf("harness: training bank for %s: %w", full.Name, err)
	}
	codec := core.NewCodec(bank)

	r := &Rig{
		Full:    full,
		Scaled:  model.Config(),
		Model:   model,
		Codec:   codec,
		Dev:     llm.A40x4(),
		QP:      llm.DefaultQualityParams(),
		Samples: samples,
		scale:   scale,
	}

	// Calibrate on a held-out context.
	ref := trainCtxs[scale.TrainContexts]
	r.RefTokens = ref.Tokens
	r.RefKV = model.CalculateKV(ref.Tokens)
	elems := float64(r.RefKV.Elems() * 2)
	for lv := 0; lv < codec.Config().Levels(); lv++ {
		data, err := codec.EncodeChunk(r.RefKV, 0, 0, core.Level(lv))
		if err != nil {
			return nil, fmt.Errorf("harness: calibrating level %d: %w", lv, err)
		}
		ch, err := codec.DecodeChunk(data)
		if err != nil {
			return nil, err
		}
		e, err := model.KVError(r.RefKV, ch.KV, r.QP)
		if err != nil {
			return nil, err
		}
		r.LevelBPE = append(r.LevelBPE, float64(len(data))*8/elems)
		r.LevelErr = append(r.LevelErr, e)
	}
	r.QuantErr = map[int]float64{}
	for _, bits := range []int{3, 4, 8} {
		q, err := baselines.Quantize(r.RefKV, bits)
		if err != nil {
			return nil, err
		}
		e, err := model.KVError(r.RefKV, q.Recon, r.QP)
		if err != nil {
			return nil, err
		}
		r.QuantErr[bits] = e
	}
	return r, nil
}

// FullElems returns the full-model element count (K+V) of a context.
func (r *Rig) FullElems(tokens int) float64 {
	return 2 * float64(r.Full.Layers) * float64(r.Full.KVChannels) * float64(tokens)
}

// CacheGenBytes returns the extrapolated full-model bitstream size of a
// context at an encoding level.
func (r *Rig) CacheGenBytes(tokens int, lv core.Level) int64 {
	return int64(r.LevelBPE[lv] * r.FullElems(tokens) / 8)
}

// QuantBytes returns the default-quantization baseline's size.
func (r *Rig) QuantBytes(tokens, bits int) int64 {
	return baselines.QuantizedBytes(r.Full.Layers, tokens, r.Full.KVChannels, bits)
}

// ChunkInfos builds the streamer's per-chunk metadata for a context of the
// given length using extrapolated sizes.
func (r *Rig) ChunkInfos(tokens int, share float64) []streamer.ChunkInfo {
	chunkTok := r.Codec.Config().ChunkTokens
	var infos []streamer.ChunkInfo
	prefix := 0
	for prefix < tokens {
		n := chunkTok
		if prefix+n > tokens {
			n = tokens - prefix
		}
		info := streamer.ChunkInfo{
			Tokens:    n,
			TextBytes: baselines.TextBytes(n),
			Recompute: r.Full.MarginalPrefillTime(prefix, n, r.Dev, share),
		}
		for lv := range r.LevelBPE {
			info.SizesByLevel = append(info.SizesByLevel, r.CacheGenBytes(n, core.Level(lv)))
		}
		infos = append(infos, info)
		prefix += n
	}
	return infos
}

// defaultRTT is the per-chunk request overhead used across experiments
// (datacenter-to-datacenter round trip).
const defaultRTT = 5 * time.Millisecond

// CacheGenTTFT simulates loading a context with CacheGen.
func (r *Rig) CacheGenTTFT(tokens int, trace netsim.Trace, p streamer.Planner, share float64) (*streamer.SimResult, error) {
	if p.RTT == 0 {
		p.RTT = defaultRTT
	}
	return streamer.Simulate(streamer.SimInput{
		Chunks:      r.ChunkInfos(tokens, share),
		TotalTokens: tokens,
		Link:        netsim.NewLink(trace),
		Planner:     p,
		Model:       r.Full,
		Device:      r.Dev,
		Share:       share,
	})
}

// QuantTTFT computes the default-quantization baseline's TTFT: ship the
// quantized tensors, dequantise, prefill the prompt suffix.
func (r *Rig) QuantTTFT(tokens, bits int, trace netsim.Trace, share float64) (time.Duration, int64, error) {
	link := netsim.NewLink(trace)
	link.Advance(defaultRTT)
	bytes := r.QuantBytes(tokens, bits)
	if _, err := link.Transfer(bytes); err != nil {
		return 0, 0, err
	}
	link.Advance(r.Dev.DequantTime(bytes))
	link.Advance(r.Full.MarginalPrefillTime(tokens, 32, r.Dev, share))
	return link.Now(), bytes, nil
}

// TextTTFT computes the text-context baseline's TTFT: ship the text, run
// the full prefill (the vLLM path of §7.1).
func (r *Rig) TextTTFT(tokens int, trace netsim.Trace, share float64) (time.Duration, error) {
	link := netsim.NewLink(trace)
	link.Advance(defaultRTT)
	if _, err := link.Transfer(baselines.TextBytes(tokens)); err != nil {
		return 0, err
	}
	link.Advance(r.Full.PrefillTime(tokens+32, r.Dev, share))
	return link.Now(), nil
}

// MixError returns the context-level KV error of a simulated run with
// mixed per-chunk configurations: the token-weighted average of the
// per-level calibration errors (text chunks are exact).
func (r *Rig) MixError(res *streamer.SimResult, chunks []streamer.ChunkInfo) float64 {
	var num, den float64
	for i, d := range res.Decisions {
		w := float64(chunks[i].Tokens)
		den += w
		if !d.Choice.Text {
			num += w * r.LevelErr[d.Choice.Level]
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Fixture lazily builds and caches rigs per model, shared by experiments.
type Fixture struct {
	Scale Scale

	mu   sync.Mutex
	rigs map[string]*Rig
}

// NewFixture returns an empty fixture at the given scale.
func NewFixture(scale Scale) *Fixture {
	return &Fixture{Scale: scale.withDefaults(), rigs: map[string]*Rig{}}
}

// Rig returns (building if needed) the rig for a model configuration.
func (f *Fixture) Rig(cfg llm.Config) (*Rig, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.rigs[cfg.Name]; ok {
		return r, nil
	}
	r, err := NewRig(cfg, f.Scale)
	if err != nil {
		return nil, err
	}
	f.rigs[cfg.Name] = r
	return r, nil
}
