package harness

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/streamer"
)

func init() {
	register("F14", "Figure 14: TTFT/FLOPs/offline-delay/storage breakdowns", runFigure14)
	register("F15", "Figure 15: codec ablation", runFigure15)
}

func runFigure14(f *Fixture) ([]*Report, error) {
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		return nil, err
	}
	const tokens = 9400
	trace := netsim.Constant(netsim.Gbps(3))

	// (a) TTFT breakdown.
	a := &Report{
		ID:      "F14a",
		Title:   "TTFT breakdown (Mistral-7B, 9.4K tokens, 3 Gbps)",
		Columns: []string{"Method", "Compute", "Transmission", "Decode", "Total"},
	}
	{
		prefill := rig.Full.PrefillTime(tokens+32, rig.Dev, 1)
		txt := netsim.TransferTime(baselines.TextBytes(tokens), netsim.Gbps(3))
		a.AddRow("Text context", ttftSeconds(prefill), ttftSeconds(txt), "-", ttftSeconds(prefill+txt))

		qb := rig.QuantBytes(tokens, 8)
		qTrans := netsim.TransferTime(qb, netsim.Gbps(3))
		qComp := rig.Dev.DequantTime(qb) + rig.Full.MarginalPrefillTime(tokens, 32, rig.Dev, 1)
		a.AddRow("Quantization", ttftSeconds(qComp), ttftSeconds(qTrans), "-", ttftSeconds(qComp+qTrans))

		res, err := rig.CacheGenTTFT(tokens, trace, streamer.Planner{Adapt: false, DefaultLevel: defaultLevel}, 1)
		if err != nil {
			return nil, err
		}
		a.AddRow("CacheGen", ttftSeconds(res.SuffixTime), ttftSeconds(res.NetworkTime),
			ttftSeconds(res.ComputeTime), ttftSeconds(res.TTFT))
		a.AddNote("CacheGen's decode is pipelined with transmission, so Total < Compute+Transmission+Decode (paper Fig 14a)")
	}

	// (b) FLOPs breakdown: prefill vs CacheGen's decode work.
	b := &Report{
		ID:      "F14b",
		Title:   "Compute breakdown (TFLOPs to first token)",
		Columns: []string{"Method", "TFLOP"},
	}
	{
		textFlops := rig.Full.PrefillFLOPs(tokens + 32)
		// Arithmetic decoding costs a few tens of operations per encoded
		// byte; even at a generous 100 ops/byte it is invisible next to
		// prefill.
		cgBytes := rig.CacheGenBytes(tokens, defaultLevel)
		cgFlops := float64(cgBytes)*100 + rig.Full.PrefillFLOPs(32)
		b.AddRow("Text context", fmt.Sprintf("%.1f", textFlops/1e12))
		b.AddRow("CacheGen", fmt.Sprintf("%.1f", cgFlops/1e12))
		b.AddNote("paper: CacheGen's decoding compute is negligible compared to prefilling from text")
	}

	// (c) Offline (encoding) delay: measured on the scaled tensors and
	// extrapolated to full width; the paper's GPU encoder lands at ~200 ms
	// per context, ours is a CPU implementation (the no-GPU substitution
	// the README's introduction describes).
	c := &Report{
		ID:      "F14c",
		Title:   "Offline delay breakdown (per context, measured then width-extrapolated)",
		Columns: []string{"Method", "Prefill (model)", "Encode (measured x scale)"},
	}
	{
		prefill := rig.Full.PrefillTime(len(rig.RefTokens), rig.Dev, 1)
		start := time.Now()
		if _, err := rig.Codec.EncodeChunk(rig.RefKV, 0, 0, defaultLevel); err != nil {
			return nil, err
		}
		encode := time.Duration(float64(time.Since(start)) * rig.Scaled.ChannelScale())
		qStart := time.Now()
		if _, err := baselines.Quantize(rig.RefKV, 8); err != nil {
			return nil, err
		}
		quantize := time.Duration(float64(time.Since(qStart)) * rig.Scaled.ChannelScale())
		c.AddRow("Quantization", ttftSeconds(prefill), ttftSeconds(quantize))
		c.AddRow("CacheGen (all handled offline)", ttftSeconds(prefill), ttftSeconds(encode))
		c.AddNote("paper: encoding adds ~200 ms on top of the prefill both baselines pay; CacheGen compresses each context once, offline")
	}

	// (d) Storage cost: original fp16, 8-bit quantized, and CacheGen's
	// four stored versions.
	d := &Report{
		ID:      "F14d",
		Title:   "Storage cost per context (Mistral-7B, 9.4K tokens)",
		Columns: []string{"Artifact", "Size"},
	}
	{
		orig := rig.Full.KVBytesPerTokenFP16() * tokens
		d.AddRow("Original (fp16)", metrics.FormatBytes(orig))
		d.AddRow("Quantized (8-bit)", metrics.FormatBytes(rig.QuantBytes(tokens, 8)))
		var total int64
		for lv := range rig.LevelBPE {
			sz := rig.CacheGenBytes(tokens, core.Level(lv))
			total += sz
			d.AddRow(fmt.Sprintf("CacheGen V%d (level %d)", lv+1, lv), metrics.FormatBytes(sz))
		}
		d.AddRow("CacheGen total (all versions)", metrics.FormatBytes(total))
		d.AddNote("paper: storing all CacheGen versions costs about as much as one quantized copy")
	}
	return []*Report{a, b, c, d}, nil
}

func runFigure15(f *Fixture) ([]*Report, error) {
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		return nil, err
	}
	task := dataset.LongChat().Task

	type ablation struct {
		name string
		cfg  func(core.Config) core.Config
	}
	ablations := []ablation{
		{"Quant. + AC (global model)", func(c core.Config) core.Config {
			c.DisableDelta, c.DisableLayerwise, c.GlobalACModel = true, true, true
			return c
		}},
		{"Quant. + AC", func(c core.Config) core.Config {
			c.DisableDelta, c.DisableLayerwise = true, true
			return c
		}},
		{"Quant. + AC + Change", func(c core.Config) core.Config {
			c.DisableLayerwise = true
			return c
		}},
		{"CacheGen (full)", func(c core.Config) core.Config { return c }},
	}

	rep := &Report{
		ID:      "F15",
		Title:   "Contributions of the encoder's ideas (Mistral-7B, LongChat)",
		Columns: []string{"Configuration", "Bits/element", "Size vs 8-bit quant", "Accuracy"},
	}
	baseBytes := float64(rig.RefKV.Elems() * 2) // 8-bit quant: 1 byte/element
	rep.AddRow("Default Quant. (8-bit, no AC)", "8.00", "1.00x",
		fmt.Sprintf("%.3f", task.Score(rig.QuantErr[8], 0, rig.QP)))
	for _, ab := range ablations {
		bank, err := core.Train(ab.cfg(core.DefaultConfig()), rig.Samples)
		if err != nil {
			return nil, err
		}
		codec := core.NewCodec(bank)
		data, err := codec.EncodeChunk(rig.RefKV, 0, 0, defaultLevel)
		if err != nil {
			return nil, err
		}
		dec, err := codec.DecodeChunk(data)
		if err != nil {
			return nil, err
		}
		e, err := rig.Model.KVError(rig.RefKV, dec.KV, rig.QP)
		if err != nil {
			return nil, err
		}
		bpe := float64(len(data)) * 8 / float64(rig.RefKV.Elems()*2)
		rep.AddRow(ab.name,
			fmt.Sprintf("%.2f", bpe),
			fmt.Sprintf("%.2fx", float64(len(data))/baseBytes),
			fmt.Sprintf("%.3f", task.Score(e, 0, rig.QP)))
	}
	rep.AddNote("paper: change-based encoding and channel-layer AC models shrink the bitstream well below quantization alone; per-channel models save up to 53%% vs one global distribution")
	return []*Report{rep}, nil
}
