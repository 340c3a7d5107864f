// Adaptive streaming under bandwidth variation: the Figure 7 walkthrough.
// A 16.5K-token context must load within a 4-second SLO while the link
// drops from 2 Gbps to 0.2 Gbps and recovers to 1 Gbps. The simulation
// surface of the public API replays the scenario in virtual time, showing
// the per-chunk decisions (encoding level, text-recompute fallback) the
// streamer takes — and what happens without adaptation.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
)

func main() {
	log.SetFlags(0)

	// Llama-7B uses full multi-head attention, so a 16.5K-token context
	// carries a ~1.2 GB KV stream at the default level — the scale of the
	// paper's walkthrough.
	model := llm.Llama7B()
	dev := llm.A40x4()
	const tokens = 16500
	const slo = 4 * time.Second

	// Per-chunk metadata: 1500-token chunks with the paper's measured
	// CacheGen sizes per level (≈2.9/2.3/1.7/1.2 bits per element).
	meta := storage.ContextMeta{
		ContextID:  "fig7-demo",
		Model:      model.Name,
		TokenCount: tokens,
		Levels:     4,
	}
	bitsPerElem := []float64{2.9, 2.3, 1.7, 1.2}
	meta.SizesBytes = make([][]int64, 4)
	for t := 0; t < tokens; t += 1500 {
		n := 1500
		if t+n > tokens {
			n = tokens - t
		}
		meta.ChunkTokens = append(meta.ChunkTokens, n)
		meta.TextBytes = append(meta.TextBytes, int64(4*n))
	}
	for lv := range meta.SizesBytes {
		for _, n := range meta.ChunkTokens {
			elems := 2 * float64(model.Layers) * float64(model.KVChannels) * float64(n)
			meta.SizesBytes[lv] = append(meta.SizesBytes[lv], int64(bitsPerElem[lv]*elems/8))
		}
	}
	chunks, err := streamer.BuildChunkInfos(meta, model, dev, 1)
	if err != nil {
		log.Fatal(err)
	}

	run := func(adapt bool) *streamer.SimResult {
		res, err := streamer.Simulate(streamer.SimInput{
			Chunks:      chunks,
			TotalTokens: tokens,
			Link:        netsim.NewLink(netsim.Figure7Trace()),
			Planner: streamer.Planner{
				Adapt: adapt, SLO: slo, DefaultLevel: 1,
				PriorBandwidth: netsim.Gbps(2), RTT: 20 * time.Millisecond,
			},
			Model:  model,
			Device: dev,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("scenario: %d tokens, SLO %v, trace 2 Gbps -> 0.2 Gbps @2s -> 1 Gbps @4s\n\n", tokens, slo)
	adaptive := run(true)
	fmt.Println("with adaptation (per-chunk decisions):")
	for _, d := range adaptive.Decisions {
		fmt.Printf("  chunk %2d: %-4s %7.1f MB  transfer %6.2fs  (measured %.2f Gbps)\n",
			d.Chunk, d.Choice, float64(d.Bytes)/1e6, d.Transfer.Seconds(), d.Throughput/1e9)
	}
	fmt.Printf("  TTFT %.2fs — SLO met: %v\n\n", adaptive.TTFT.Seconds(), adaptive.SLOMet)

	static := run(false)
	fmt.Printf("without adaptation (fixed level 1): TTFT %.2fs — SLO met: %v\n",
		static.TTFT.Seconds(), static.SLOMet)
	fmt.Printf("\nadaptation recovered %.1fs of the bandwidth drop (reaction is delayed\n"+
		"by at most one chunk, §5.3, so a deep drop can still overshoot the SLO)\n",
		static.TTFT.Seconds()-adaptive.TTFT.Seconds())
}
