// Chat sessions: conversation history keeps getting reused as context for
// every later turn (§2.2). When a session goes idle its KV cache is
// offloaded to storage; when the user returns, CacheGen streams it back
// instead of re-prefilling thousands of history tokens. New turns extend
// the cache incrementally (ExtendKV), and the grown history is
// re-published for the next idle period.
//
// Run with: go run ./examples/chat
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

func main() {
	log.SetFlags(0)

	cfg := llm.Mistral7B().WithChannels(32)
	model := llm.MustNew(cfg)
	rng := rand.New(rand.NewSource(99))
	// Short chunks: an append re-encodes only the dirty suffix chunk, so
	// the chunk length bounds what each offload stores.
	codecCfg := core.DefaultConfig()
	codecCfg.ChunkTokens = 256
	trained, err := core.Train(codecCfg, []*tensor.KV{
		model.CalculateKV(turn(rng, 900)),
		model.CalculateKV(turn(rng, 1100)),
	})
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(trained)
	store := storage.NewMemStore()
	bg := context.Background()
	qp := llm.DefaultQualityParams()

	// Session starts: an initial exchange accumulates history.
	history := turn(rng, 600)
	kv := model.CalculateKV(history)
	fmt.Printf("session start: %d tokens of history\n", len(history))

	const id = "session-abc"
	newTurn := history
	for round := 1; round <= 3; round++ {
		// Session goes idle: offload the encoded cache (store_kv). Round 1
		// publishes the opening history; later rounds append only the new
		// turn's tokens — the content-addressed store keeps the prefix
		// chunks by reference, so each offload costs one turn, not the
		// whole conversation.
		var man storage.Manifest
		var stats *streamer.PublishStats
		var err error
		if round == 1 {
			man, stats, err = streamer.Publish(bg, store, codec, model, id, history,
				streamer.PublishOptions{KV: kv})
		} else {
			man, stats, err = streamer.Append(bg, store, codec, model, id, newTurn,
				streamer.PublishOptions{KV: kv})
		}
		if err != nil {
			log.Fatal(err)
		}
		meta := man.Meta
		fmt.Printf("round %d: offloaded %d tokens (%.2f MB logical, %d levels) — stored %.2f MB new, reused %.2f MB, %d encodes skipped\n",
			round, meta.TokenCount, float64(meta.TotalBytes())/1e6, meta.Levels,
			float64(stats.BytesStored)/1e6, float64(stats.BytesReused)/1e6, stats.EncodesSkipped)

		// User returns: reload the cache from storage (by manifest + chunk
		// hashes) and answer.
		var chunks [][]byte
		for c := 0; c < meta.NumChunks(); c++ {
			hash, err := man.ChunkHash(1, c)
			if err != nil {
				log.Fatal(err)
			}
			data, err := store.GetChunk(bg, hash)
			if err != nil {
				log.Fatal(err)
			}
			chunks = append(chunks, data)
		}
		recon, err := codec.DecodeContext(chunks)
		if err != nil {
			log.Fatal(err)
		}
		res, err := model.GenerateWithKV(history, recon, fmt.Sprintf("round-%d question", round), qp)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("         reloaded and answered: quality %.3f, correct=%v\n", res.Quality, res.Correct)

		// The new turn extends the history; ExtendKV picks up exactly
		// where the previous cache ended — no recomputation of the prefix.
		newTurn = turn(rng, 250)
		ext, err := model.ExtendKV(kv, len(history), newTurn)
		if err != nil {
			log.Fatal(err)
		}
		history = append(history, newTurn...)
		full := model.CalculateKV(history) // reference: recompute from scratch
		combined, err := tensor.ConcatTokens(kv, ext)
		if err != nil {
			log.Fatal(err)
		}
		diff, err := full.MaxAbsDiff(combined)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("         extended history to %d tokens (incremental == full: diff %g)\n",
			len(history), diff)
		kv = combined
	}
}

func turn(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(32000))
	}
	return out
}
