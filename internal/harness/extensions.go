package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/streamer"
)

// Extension experiments beyond the paper's figures: ablations of two
// design constants the paper calls out — the token-group size (§5.2) and
// the context-chunk length (§5.3's "how long should a context chunk
// be?").

func init() {
	register("X2", "Ablation: token-group size (paper default 10)", runX2GroupSize)
	register("X3", "Ablation: context-chunk length (paper default 1500)", runX3ChunkLength)
}

func runX2GroupSize(f *Fixture) ([]*Report, error) {
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:      "X2",
		Title:   "Token-group size vs compression and parallelism",
		Columns: []string{"Group size", "Bits/element", "Anchor share", "KV error"},
	}
	for _, g := range []int{5, 10, 20, 40} {
		cfg := core.DefaultConfig()
		cfg.GroupSize = g
		bank, err := core.Train(cfg, rig.Samples)
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
		rep.AddRow(fmt.Sprintf("%d", g),
			fmt.Sprintf("%.2f", float64(len(data))*8/float64(rig.RefKV.Elems()*2)),
			fmt.Sprintf("1/%d tokens", g),
			fmt.Sprintf("%.3f", e))
	}
	rep.AddNote("larger groups amortise the 8-bit anchors but weaken locality (deltas reference a farther anchor); 10 balances both — and bounds the per-group decode unit the GPU threads (goroutines) work on")
	return []*Report{rep}, nil
}

func runX3ChunkLength(f *Fixture) ([]*Report, error) {
	rig, err := f.Rig(llm.Mistral7B())
	if err != nil {
		return nil, err
	}
	const tokens = 16500
	const slo = 4 * time.Second
	rep := &Report{
		ID:      "X3",
		Title:   "Context-chunk length vs adaptation under the Fig 7 trace",
		Columns: []string{"Chunk tokens", "Chunks", "Adaptive TTFT", "Overshoot vs SLO", "RTT overhead"},
	}
	for _, chunkTok := range []int{300, 750, 1500, 3000, 8000} {
		var infos []streamer.ChunkInfo
		prefix := 0
		for prefix < tokens {
			n := chunkTok
			if prefix+n > tokens {
				n = tokens - prefix
			}
			info := streamer.ChunkInfo{
				Tokens:    n,
				TextBytes: int64(4 * n),
				Recompute: rig.Full.MarginalPrefillTime(prefix, n, rig.Dev, 1),
			}
			for lv := range rig.LevelBPE {
				info.SizesByLevel = append(info.SizesByLevel, rig.CacheGenBytes(n, core.Level(lv)))
			}
			infos = append(infos, info)
			prefix += n
		}
		res, err := streamer.Simulate(streamer.SimInput{
			Chunks:      infos,
			TotalTokens: tokens,
			Link:        netsim.NewLink(netsim.Figure7Trace()),
			Planner: streamer.Planner{
				Adapt: true, SLO: slo, DefaultLevel: defaultLevel,
				PriorBandwidth: netsim.Gbps(2), RTT: defaultRTT,
			},
			Model:  rig.Full,
			Device: rig.Dev,
		})
		if err != nil {
			return nil, err
		}
		overshoot := res.TTFT - slo
		if overshoot < 0 {
			overshoot = 0
		}
		rep.AddRow(fmt.Sprintf("%d", chunkTok),
			fmt.Sprintf("%d", len(infos)),
			fmt.Sprintf("%.2fs", res.TTFT.Seconds()),
			fmt.Sprintf("%.2fs", overshoot.Seconds()),
			fmt.Sprintf("%.0fms", float64(len(infos))*defaultRTT.Seconds()*1000))
	}
	rep.AddNote("small chunks react faster to bandwidth changes (less overshoot, §5.3 consideration 1) but pay per-chunk overhead and lose GPU batching on recompute (consideration 2); the paper picks 1500")
	return []*Report{rep}, nil
}
