// RAG serving: the paper's motivating scenario (§2.2). A storage service
// holds the pre-encoded KV caches of background documents (a financial
// report, a legal brief, ...). Different user queries reuse the same
// document: instead of re-prefilling it per query, the inference side
// streams the compressed KV cache over the network and generates
// immediately.
//
// This example runs a real transport server on loopback TCP, publishes two
// documents, and serves two different queries against the same document —
// the context-reuse pattern that makes KV caching pay off.
//
// Run with: go run ./examples/rag
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)

	cfg := llm.Mistral7B().WithChannels(32)
	model := llm.MustNew(cfg)

	rng := rand.New(rand.NewSource(42))
	trained, err := core.Train(core.DefaultConfig(), []*tensor.KV{
		model.CalculateKV(doc(rng, 1000)),
		model.CalculateKV(doc(rng, 1400)),
	})
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(trained)

	// --- storage service: publish the document corpus ------------------
	store := storage.NewMemStore()
	docs := map[string][]llm.Token{
		"earnings-report-q4": doc(rng, 1800),
		"case-law-brief":     doc(rng, 1200),
	}
	bg := context.Background()
	for id, tokens := range docs {
		man, _, err := streamer.Publish(bg, store, codec, model, id, tokens, streamer.PublishOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("published %-20s %5d tokens, %d chunks x %d levels\n",
			id, man.Meta.TokenCount, man.Meta.NumChunks(), man.Meta.Levels)
	}

	bank, err := codec.Bank().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	srv := transport.NewServer(store,
		transport.WithBank(bank),
		transport.WithEgressTrace(netsim.Constant(netsim.Gbps(0.8)))) // a constrained WAN link
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// --- inference service: answer queries, reusing document caches ----
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	remoteBank, err := client.GetBank(bg)
	if err != nil {
		log.Fatal(err)
	}
	rb, err := core.UnmarshalBank(remoteBank)
	if err != nil {
		log.Fatal(err)
	}
	fetcher := &streamer.Fetcher{
		Source:  client,
		Codec:   core.NewCodec(rb),
		Model:   model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 1},
	}

	queries := []struct{ doc, q string }{
		{"earnings-report-q4", "Write a short summary of last quarter's earnings."},
		{"earnings-report-q4", "What were the company's top sources of revenue?"},
		{"case-law-brief", "Which precedent does the brief rely on?"},
	}
	for _, query := range queries {
		start := time.Now()
		kv, report, err := fetcher.Fetch(bg, query.doc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := model.GenerateWithKV(docs[query.doc], kv, query.q, llm.DefaultQualityParams())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %q\n  -> reused %s: %.1f MB streamed in %v, quality %.3f, correct=%v\n",
			query.q, query.doc, float64(report.BytesReceived)/1e6,
			time.Since(start).Round(time.Millisecond), res.Quality, res.Correct)
	}
}

func doc(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(32000))
	}
	return out
}
