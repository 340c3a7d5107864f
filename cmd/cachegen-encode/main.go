// Command cachegen-encode is the offline side of CacheGen (§6, store_kv):
// it trains a codec model bank for an LLM, computes KV caches for a set of
// demo contexts, encodes every chunk at every level, and writes bitstreams
// plus the bank into a filesystem store that cachegen-server can serve.
//
// Usage:
//
//	cachegen-encode -dir ./kvstore -model Mistral-7B -channels 32 \
//	    -contexts 3 -tokens 2000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/streamer"
)

func main() {
	dir := flag.String("dir", "./kvstore", "store directory")
	modelName := flag.String("model", "Mistral-7B", "model name")
	channels := flag.Int("channels", 32, "synthesised KV channels (0 = full width; full Llama widths are slow on CPU)")
	nContexts := flag.Int("contexts", 3, "number of demo contexts to publish")
	tokens := flag.Int("tokens", 2000, "tokens per demo context")
	train := flag.Int("train", 2, "number of codec training contexts")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-encode: ")

	cfg, err := llm.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}

	// Training and demo contexts come from the LongChat-style generator.
	log.Printf("training codec bank for %s on %d contexts...", cfg.Name, *train)
	stack, err := dataset.TrainStack(cfg.WithChannels(*channels), *train, *nContexts, *tokens)
	if err != nil {
		log.Fatal(err)
	}
	model, codec := stack.Model, stack.Codec

	store, err := storage.NewFileStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	bg := context.Background()
	for i, c := range stack.Contexts {
		id := fmt.Sprintf("demo-%04d", i)
		man, stats, err := streamer.Publish(bg, store, codec, model, id, c.Tokens, streamer.PublishOptions{})
		if err != nil {
			log.Fatal(err)
		}
		meta := man.Meta
		log.Printf("published %s: %d tokens, %d chunks, %d levels, %.1f MB logical (%.1f MB new, %.1f MB deduped)",
			id, meta.TokenCount, meta.NumChunks(), meta.Levels,
			float64(meta.TotalBytes())/1e6, float64(stats.BytesStored)/1e6, float64(stats.BytesReused)/1e6)
	}
	if u, err := store.Usage(bg); err == nil {
		log.Printf("store holds %d unique payloads, %.1f MB physical", u.Chunks, float64(u.ChunkBytes)/1e6)
	}

	bank, err := codec.Bank().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	bankPath := filepath.Join(*dir, "bank.bin")
	if err := os.WriteFile(bankPath, bank, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote model bank (%.1f MB) to %s", float64(len(bank))/1e6, bankPath)
	log.Printf("serve with: cachegen-server -dir %s", *dir)
}
