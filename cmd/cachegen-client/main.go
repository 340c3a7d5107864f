// Command cachegen-client is the inference-server side of CacheGen: it
// connects to a cachegen-server, bootstraps the decoder from the served
// model bank, streams a context's KV cache chunk by chunk with the
// adaptation policy, reassembles it, and answers a query against it
// (get_kv + generate_with_kv, §6).
//
// Usage:
//
//	cachegen-client -addr 127.0.0.1:9099 -context demo-0000 \
//	    -model Mistral-7B -channels 32 -slo 2s
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/transport"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9099", "server address")
	contextID := flag.String("context", "demo-0000", "context id to load")
	modelName := flag.String("model", "Mistral-7B", "model name (must match the encoder)")
	channels := flag.Int("channels", 32, "synthesised KV channels (must match the encoder)")
	slo := flag.Duration("slo", 0, "TTFT SLO enabling adaptation (0 = fixed default level)")
	timeout := flag.Duration("timeout", 2*time.Minute, "overall request timeout")
	pipelineDepth := flag.Int("pipeline-depth", 4, "chunk transfers in flight while decode proceeds in order (1 = strictly sequential)")
	bwTrace := flag.String("bandwidth-trace", "", "replay a bandwidth trace on the receive path, as RATE[:DUR],... (e.g. 2Gbps:2s,0.2Gbps:2s,1Gbps)")
	noStream := flag.Bool("no-stream", false, "feed the fetch from the per-chunk acquirer (one GetChunkData per chunk) instead of the server-push stream")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-client: ")

	cfg, err := llm.ByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	if *channels > 0 && *channels < cfg.KVChannels {
		cfg = cfg.WithChannels(*channels)
	}
	model, err := llm.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	var client *transport.Client
	if *bwTrace != "" {
		// Pace the receive path along the trace: the client-side way to
		// replay a constrained link against an unshaped server.
		trace, err := netsim.ParseTrace(*bwTrace)
		if err != nil {
			log.Fatal(err)
		}
		conn, err := net.Dial("tcp", *addr)
		if err != nil {
			log.Fatalf("dial %s: %v", *addr, err)
		}
		sh := transport.NewIngressShaper(conn, 0)
		sh.SetTrace(trace)
		client = transport.NewClient(sh)
	} else {
		var err error
		client, err = transport.Dial(*addr)
		if err != nil {
			log.Fatal(err)
		}
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	bankBytes, err := client.GetBank(ctx)
	if err != nil {
		log.Fatalf("fetching model bank: %v", err)
	}
	bank, err := core.UnmarshalBank(bankBytes)
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(bank)

	planner := streamer.Planner{Adapt: *slo > 0, SLO: *slo, DefaultLevel: 1}
	fetcher := &streamer.Fetcher{
		Source:           client,
		Codec:            codec,
		Model:            model,
		Device:           llm.A40x4(),
		Planner:          planner,
		PipelineDepth:    *pipelineDepth,
		DisableStreaming: *noStream,
	}
	kv, report, err := fetcher.Fetch(ctx, *contextID)
	if err != nil {
		log.Fatalf("fetching %s: %v", *contextID, err)
	}
	path := "per-chunk acquirer"
	if report.Streamed {
		path = "server-push stream"
	}
	log.Printf("loaded %s: %d tokens in %v via %s (%.1f MB on the wire; transfer %v, decode %v, recompute %v)",
		*contextID, kv.Tokens, report.LoadTime.Round(time.Millisecond), path,
		float64(report.BytesReceived)/1e6,
		report.TransferTime.Round(time.Millisecond),
		report.DecodeTime.Round(time.Millisecond),
		report.RecomputeTime.Round(time.Millisecond))
	log.Printf("bandwidth estimate %s; %d level switches, %d in-flight cancels; per-level bytes %v",
		metrics.FormatBandwidth(report.Bandwidth), report.Switches, report.Cancels, report.LevelBytes)
	for _, d := range report.Decisions {
		extra := ""
		if d.Abandoned > 0 {
			extra = " (+" + metrics.FormatBytes(d.Abandoned) + " abandoned)"
		}
		log.Printf("  chunk %d: %s, %7d bytes%s, %v", d.Chunk, d.Choice, d.Bytes, extra,
			d.Transfer.Round(time.Millisecond))
	}

	// Answer a query against the loaded cache. The context's token text is
	// stored alongside the bitstreams (the recompute fallback), so fetch
	// it — by manifest hash — to score the generation.
	man, err := client.GetManifest(ctx, *contextID)
	if err != nil {
		log.Fatalf("fetching manifest: %v", err)
	}
	var tokens []llm.Token
	for c := 0; c < man.Meta.NumChunks(); c++ {
		hash, err := man.ChunkHash(storage.TextLevel, c)
		if err != nil {
			log.Fatal(err)
		}
		payload, err := client.GetChunkData(ctx, hash)
		if err != nil {
			log.Fatalf("fetching text chunk %d: %v", c, err)
		}
		part, err := llm.DecodeTokens(payload)
		if err != nil {
			log.Fatal(err)
		}
		tokens = append(tokens, part...)
	}
	res, err := model.GenerateWithKV(tokens, kv, "What is the first topic we discussed?", llm.DefaultQualityParams())
	if err != nil {
		log.Fatalf("generation: %v", err)
	}
	verdict := "correct"
	if !res.Correct {
		verdict = "wrong"
	}
	log.Printf("generation quality %.3f (KV error %.4f): answer %s", res.Quality, res.Error, verdict)
}
