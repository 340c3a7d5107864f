// Quickstart: encode a context's KV cache with CacheGen, decode it, and
// generate against the reconstruction — the minimal end-to-end use of the
// public API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)

	// A Mistral-7B-shaped simulated LLM. Synthesising 32 of its 1024 KV
	// channels keeps this demo fast; statistics (and therefore compression
	// ratios) are unchanged.
	cfg := llm.Mistral7B().WithChannels(32)
	model := llm.MustNew(cfg)

	// Offline, once per LLM: profile the codec's probability models on a
	// few contexts (§5.2).
	rng := rand.New(rand.NewSource(7))
	training := []*tensor.KV{
		model.CalculateKV(randomContext(rng, 1200)),
		model.CalculateKV(randomContext(rng, 1500)),
	}
	trained, err := core.Train(core.DefaultConfig(), training)
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(trained)

	// A fresh context: compute its KV cache (calculate_kv) and encode it.
	tokens := randomContext(rng, 2000)
	kv := model.CalculateKV(tokens)
	fmt.Printf("context: %d tokens, fp16 KV cache %.1f MB (full width: %.2f GB)\n",
		len(tokens), float64(kv.SizeBytesFP16())/1e6,
		float64(cfg.KVBytesPerTokenFP16()*int64(len(tokens)))/1e9)

	for lv := 0; lv < codec.Config().Levels(); lv++ {
		chunks, err := codec.EncodeContext(kv, core.Level(lv))
		if err != nil {
			log.Fatal(err)
		}
		var total int
		for _, c := range chunks {
			total += len(c)
		}
		bitsPerElem := float64(total) * 8 / float64(kv.Elems()*2)
		fmt.Printf("  level %d: %d chunks, %.2f MB, %.2f bits/element (%.1fx vs 8-bit quant)\n",
			lv, len(chunks), float64(total)/1e6, bitsPerElem, 8/bitsPerElem)
	}

	// Decode the default level and answer a query against it
	// (generate_with_kv).
	chunks, err := codec.EncodeContext(kv, 1)
	if err != nil {
		log.Fatal(err)
	}
	recon, err := codec.DecodeContext(chunks)
	if err != nil {
		log.Fatal(err)
	}
	res, err := model.GenerateWithKV(tokens, recon, "What is the first topic we discussed?",
		llm.DefaultQualityParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generation with decoded cache: quality %.3f, correct=%v\n", res.Quality, res.Correct)
}

func randomContext(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(32000))
	}
	return out
}
