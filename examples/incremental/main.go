// Incremental (SVC-style) KV streaming — the extension the paper names as
// future work (§9): "initially sending low-quality KV caches and then
// incrementally improving quality by sending differences."
//
// The context is published with refinement streams. The client fetches
// the coarsest-level bitstreams first — a fraction of the bytes, so the
// first token comes fast — starts generating, then upgrades the resident
// cache in place to full quality.
//
// Run with: go run ./examples/incremental
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
	rng := rand.New(rand.NewSource(5))
	trained, err := core.Train(core.DefaultConfig(), []*tensor.KV{model.CalculateKV(ctxTokens(rng, 1100))})
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(trained)

	// Publish with refinement streams targeting the highest-quality level.
	store := storage.NewMemStore()
	tokens := ctxTokens(rng, 2000)
	bg := context.Background()
	man, _, err := streamer.Publish(bg, store, codec, model, "doc", tokens,
		streamer.PublishOptions{RefineTargets: []core.Level{0}})
	if err != nil {
		log.Fatal(err)
	}
	meta := man.Meta
	var coarse, fine, refine int64
	for c := 0; c < meta.NumChunks(); c++ {
		coarse += meta.SizesBytes[meta.Levels-1][c]
		fine += meta.SizesBytes[0][c]
		refine += meta.RefineBytes[0][c]
	}
	fmt.Printf("published %d tokens: finest level %.2f MB, coarsest %.2f MB, refinement %.2f MB\n",
		meta.TokenCount, mb(fine), mb(coarse), mb(refine))

	// A 50 Mbps link: slow enough that the wire, not decode, bounds each
	// fetch, so the coarse base's fewer bytes arrive measurably sooner.
	srv := transport.NewServer(store, transport.WithEgressRate(netsim.Gbps(0.05)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	fetcher := &streamer.Fetcher{
		Source:  client,
		Codec:   codec,
		Model:   model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	qp := llm.DefaultQualityParams()

	// Phase 1: coarse base — first token as early as possible.
	start := time.Now()
	inc, err := fetcher.FetchIncremental(bg, "doc", 0)
	if err != nil {
		log.Fatal(err)
	}
	baseRes, err := model.GenerateWithKV(tokens, inc.Base, "Summarise the document.", qp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (coarse base): %.2f MB in %v -> usable cache, quality %.3f\n",
		mb(inc.BaseReport.BytesReceived), inc.BaseReport.LoadTime.Round(time.Millisecond), baseRes.Quality)

	// Phase 2: upgrade in place while the user reads the first answer.
	upgraded, upReport, err := inc.Upgrade(bg)
	if err != nil {
		log.Fatal(err)
	}
	upRes, err := model.GenerateWithKV(tokens, upgraded, "And the follow-up question?", qp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2 (refinement):  %.2f MB in %v -> quality %.3f\n",
		mb(upReport.BytesReceived), upReport.LoadTime.Round(time.Millisecond), upRes.Quality)

	// Compare with fetching the finest level directly.
	direct, directReport, err := fetcher.Fetch(bg, "doc")
	if err != nil {
		log.Fatal(err)
	}
	_ = direct
	fmt.Printf("direct finest fetch:   %.2f MB in %v (total %v since request)\n",
		mb(directReport.BytesReceived), directReport.LoadTime.Round(time.Millisecond),
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("\nfirst usable cache arrived %.1fx sooner than the direct fine-level fetch\n",
		directReport.LoadTime.Seconds()/inc.BaseReport.LoadTime.Seconds())
}

func mb(n int64) float64 { return float64(n) / 1e6 }

func ctxTokens(rng *rand.Rand, n int) []llm.Token {
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(32000))
	}
	return out
}
