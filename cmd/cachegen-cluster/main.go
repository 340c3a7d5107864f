// Command cachegen-cluster launches a local sharded KV-cache delivery
// ring: N storage nodes (each a cachegen-server equivalent with an
// optional RAM tier), a consistent-hash ring placing every context chunk
// on a primary plus replicas, and demo contexts published across the
// fleet. Without -demo it serves until SIGINT/SIGTERM; with -demo it
// also exercises the client path — a parallel pool fetch, a mid-fleet
// node kill with replica failover, and a warm refetch through the RAM
// tier — then exits.
//
// Usage:
//
//	cachegen-cluster -nodes 3 -replicas 2 -ram-cache-mb 64 -demo
//	cachegen-cluster -nodes 4 -port-base 9100 -dir ./kvcluster
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

func main() {
	nodes := flag.Int("nodes", 3, "number of storage nodes")
	replicas := flag.Int("replicas", 2, "replication factor (copies per chunk)")
	vnodes := flag.Int("vnodes", 0, "virtual ring points per node (0 = default)")
	host := flag.String("host", "127.0.0.1", "listen host")
	portBase := flag.Int("port-base", 9100, "first node's port; node i listens on port-base+i")
	dir := flag.String("dir", "", "root directory for per-node file stores (empty = in-memory)")
	ramMB := flag.Int("ram-cache-mb", 64, "per-node RAM tier budget in MB (0 = disabled)")
	egress := flag.Float64("egress-gbps", 0, "per-connection egress shaping in Gbps (0 = unlimited)")
	bwTrace := flag.String("bandwidth-trace", "", "per-node egress bandwidth trace as RATE[:DUR],... (e.g. 2Gbps:2s,0.2Gbps); overrides -egress-gbps")
	modelName := flag.String("model", "Mistral-7B", "model for the published demo contexts")
	channels := flag.Int("channels", 32, "synthesised KV channels")
	nContexts := flag.Int("contexts", 2, "demo contexts published across the ring")
	tokens := flag.Int("tokens", 2000, "tokens per demo context")
	demo := flag.Bool("demo", false, "run the client-path demo (parallel fetch, failover, warm refetch) and exit")
	gcSmoke := flag.Bool("gc-smoke", false, "run the GC smoke test (publish two overlapping contexts, delete one, sweep, verify) and exit")
	chaosFlag := flag.String("chaos", "", "fault schedule armed when serving starts, as class@offset[+heal][:param];... (e.g. \"kill@500ms+1s; slow-disk@0s:2ms\")")
	gcInterval := flag.Duration("gc-interval", time.Minute, "idle sweeper period per node (0 = disabled)")
	gcGrace := flag.Duration("gc-grace", 5*time.Minute, "GC grace age: unreferenced chunks younger than this survive a sweep")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /debug metrics+pprof exposition on this address (e.g. :9100; empty = disabled)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-cluster: ")
	if *version {
		fmt.Println("cachegen-cluster " + telemetry.Version)
		return
	}
	if *nodes < 1 {
		log.Fatal("-nodes must be at least 1")
	}
	if *nContexts < 0 || (*demo && *nContexts == 0) {
		log.Fatal("-contexts must be positive (the demo needs something to fetch)")
	}
	if *replicas > *nodes {
		log.Printf("capping -replicas %d to fleet size %d", *replicas, *nodes)
		*replicas = *nodes
	}
	var schedule chaos.Schedule
	if *chaosFlag != "" {
		s, err := chaos.ParseSchedule(*chaosFlag, 1)
		if err != nil {
			log.Fatal(err)
		}
		schedule = s
	}

	// Model, codec and bank, shared by every node (§5.2: one bank per LLM).
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
	lengthScale := float64(*tokens) / 9400.0
	ctxs := dataset.LongChat().Contexts(2+*nContexts, lengthScale)
	log.Printf("training codec bank for %s...", cfg.Name)
	var samples []*tensor.KV
	for _, c := range ctxs[:2] {
		samples = append(samples, model.CalculateKV(c.Tokens))
	}
	trained, err := core.Train(core.DefaultConfig(), samples)
	if err != nil {
		log.Fatal(err)
	}
	codec := core.NewCodec(trained)
	bank, err := codec.Bank().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}

	// Launch the fleet as a chaos.LocalFleet — every node's base store
	// behind the slow-disk shim, its RAM tier over that — so a -chaos
	// schedule can kill, restart, partition, slow or corrupt nodes while
	// the ring serves.
	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
	}
	srvOpts := []transport.ServerOption{transport.WithBank(bank), transport.WithTelemetry(reg)}
	if *egress > 0 {
		srvOpts = append(srvOpts, transport.WithEgressRate(netsim.Gbps(*egress)))
	}
	if *bwTrace != "" {
		tr, err := netsim.ParseTrace(*bwTrace)
		if err != nil {
			log.Fatal(err)
		}
		srvOpts = append(srvOpts, transport.WithEgressTrace(tr))
	}
	fl := &chaos.LocalFleet{}
	fleet := make([]chaos.LocalNode, 0, *nodes)
	stores := map[string]storage.Store{}
	for i := 0; i < *nodes; i++ {
		var base storage.Store = storage.NewMemStore()
		if *dir != "" {
			base, err = storage.NewFileStore(filepath.Join(*dir, fmt.Sprintf("node-%02d", i)))
			if err != nil {
				log.Fatal(err)
			}
		}
		n, err := fl.Launch(fmt.Sprintf("%s:%d", *host, *portBase+i), base, int64(*ramMB)<<20, srvOpts...)
		if err != nil {
			log.Fatalf("node %d: %v", i, err)
		}
		if n.Cache != nil {
			n.Cache.Register(reg, "node", n.Addr)
		}
		fleet = append(fleet, n)
		stores[n.Addr] = n.Store
	}
	ring := cluster.NewRing(*replicas, *vnodes)
	sharded, err := cluster.NewShardedStore(ring, stores)
	if err != nil {
		log.Fatal(err)
	}

	if *telemetryAddr != "" {
		dbg, err := telemetry.ServeDebug(*telemetryAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("telemetry exposition on http://%s/debug/metrics", dbg.Addr())
	}

	// The chaos schedule (if any) is armed when the serving phase begins
	// — demo, gc-smoke, or open-ended serving — so fault offsets count
	// from t=0 of the phase, not from fleet launch.
	counters := &chaos.Counters{}
	counters.Register(reg)
	inj := chaos.New(fl, counters)
	armChaos := func() {
		if *chaosFlag == "" {
			return
		}
		log.Printf("arming chaos schedule %q", *chaosFlag)
		if err := inj.Start(schedule); err != nil {
			log.Fatal(err)
		}
	}
	finishChaos := sync.OnceFunc(func() {
		if *chaosFlag == "" {
			return
		}
		if err := inj.Finish(); err != nil {
			log.Printf("chaos: %v", err)
		}
		if snap := counters.Snapshot(); !snap.Zero() {
			log.Printf("chaos: %s", snap.String())
		}
	})

	bg := context.Background()
	if *gcSmoke {
		armChaos()
		err := runGCSmoke(bg, model, codec, ring, sharded)
		finishChaos()
		if err != nil {
			log.Fatalf("gc-smoke FAILED: %v", err)
		}
		fl.Close()
		log.Printf("gc-smoke PASSED")
		return
	}

	// Publish demo contexts across the ring and report the shard layout.
	primaries := map[string]int{}
	var ids []string
	for i, c := range ctxs[2:] {
		id := fmt.Sprintf("demo-%04d", i)
		man, _, err := streamer.Publish(bg, sharded, codec, model, id, c.Tokens, streamer.PublishOptions{})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
		for ch := 0; ch < man.Meta.NumChunks(); ch++ {
			primaries[ring.ChunkNodes(man.Hashes[0][ch])[0]]++
		}
		log.Printf("published %s: %d tokens, %d chunks across %d nodes (replication %d)",
			id, man.Meta.TokenCount, man.Meta.NumChunks(), *nodes, *replicas)
	}
	for _, n := range fleet {
		log.Printf("node %s: primary for %d level-0 chunks", n.Addr, primaries[n.Addr])
	}

	// Idle sweeper: each node periodically reclaims unreferenced chunk
	// payloads (refcounts drop when DeleteContext removes a manifest).
	sweepStop := make(chan struct{})
	if *gcInterval > 0 {
		for _, n := range fleet {
			go func(n chaos.LocalNode) {
				ticker := time.NewTicker(*gcInterval)
				defer ticker.Stop()
				for {
					select {
					case <-sweepStop:
						return
					case <-ticker.C:
						res, err := n.Store.Sweep(context.Background(), *gcGrace)
						if err != nil {
							log.Printf("node %s sweep: %v", n.Addr, err)
						} else if res.RemovedChunks > 0 {
							log.Printf("node %s sweep: reclaimed %d chunks (%.1f MB), pruned %d fingerprints",
								n.Addr, res.RemovedChunks, float64(res.ReclaimedBytes)/1e6, res.PrunedFingerprints)
						}
					}
				}
			}(n)
		}
	}

	closeFleet := func() {
		close(sweepStop)
		fl.Close()
		for _, n := range fleet {
			if n.Cache != nil {
				st := n.Cache.Stats()
				log.Printf("node %s RAM tier: %d hits, %d misses (%.0f%% hit rate), %d evictions",
					n.Addr, st.Hits, st.Misses, 100*st.HitRate(), st.Evictions)
			}
		}
	}

	if *demo {
		armChaos()
		err := runDemo(model, codec, ring, fl, ids, finishChaos)
		finishChaos()
		closeFleet()
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	armChaos()
	log.Printf("serving; chunks are sharded, so fetch through a cluster.Pool over all nodes "+
		"(a plain cachegen-client sees only one node's shard); idle sweeper every %v, Ctrl-C to stop", *gcInterval)
	sig := <-sigCh
	log.Printf("received %v, shutting down", sig)
	finishChaos()
	closeFleet()
	log.Printf("bye")
}

// runGCSmoke exercises the refcounted GC invariants over the live ring:
// two contexts sharing a prefix dedup their shared chunks; deleting one
// context and sweeping reclaims exactly its unique payloads; the
// surviving context still decodes bit-for-bit.
func runGCSmoke(ctx context.Context, model *llm.Model, codec *core.Codec,
	ring *cluster.Ring, sharded *cluster.ShardedStore) error {

	rng := rand.New(rand.NewSource(12345))
	mk := func(n int) []llm.Token {
		out := make([]llm.Token, n)
		for i := range out {
			out[i] = llm.Token(rng.Intn(32000))
		}
		return out
	}
	chunkTok := codec.Config().ChunkTokens
	shared := mk(3 * chunkTok) // 3 full shared chunks
	uniqueA := mk(chunkTok)
	uniqueB := mk(chunkTok / 2)
	tokensA := append(append([]llm.Token{}, shared...), uniqueA...)
	tokensB := append(append([]llm.Token{}, shared...), uniqueB...)

	_, statsA, err := streamer.Publish(ctx, sharded, codec, model, "gc-a", tokensA, streamer.PublishOptions{})
	if err != nil {
		return fmt.Errorf("publishing gc-a: %w", err)
	}
	_, statsB, err := streamer.Publish(ctx, sharded, codec, model, "gc-b", tokensB, streamer.PublishOptions{})
	if err != nil {
		return fmt.Errorf("publishing gc-b: %w", err)
	}
	if statsB.PayloadsReused == 0 || statsB.EncodesSkipped == 0 {
		return fmt.Errorf("no dedup on shared prefix: %+v", statsB)
	}
	log.Printf("gc-smoke: A stored %.2f MB; B stored %.2f MB new, reused %.2f MB (%d encodes skipped)",
		float64(statsA.BytesStored)/1e6, float64(statsB.BytesStored)/1e6,
		float64(statsB.BytesReused)/1e6, statsB.EncodesSkipped)

	// Fetch both through the live pool before the delete.
	pool := cluster.NewPool(ring, cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()
	fetcher := &streamer.Fetcher{
		Source: pool, Codec: codec, Model: model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	if _, _, err := fetcher.Fetch(ctx, "gc-a"); err != nil {
		return fmt.Errorf("pre-delete fetch of gc-a: %w", err)
	}
	kvBBefore, _, err := fetcher.Fetch(ctx, "gc-b")
	if err != nil {
		return fmt.Errorf("pre-delete fetch of gc-b: %w", err)
	}
	before, err := pool.Usage(ctx)
	if err != nil {
		return err
	}

	// Delete A (over the wire) and sweep the whole fleet immediately.
	if err := pool.DeleteContext(ctx, "gc-a"); err != nil {
		return fmt.Errorf("deleting gc-a: %w", err)
	}
	res, err := pool.Sweep(ctx, 0)
	if err != nil {
		return fmt.Errorf("fleet sweep: %w", err)
	}
	after, err := pool.Usage(ctx)
	if err != nil {
		return err
	}
	if res.RemovedChunks == 0 || after.ChunkBytes >= before.ChunkBytes {
		return fmt.Errorf("sweep reclaimed nothing: %+v (usage %d -> %d bytes)", res, before.ChunkBytes, after.ChunkBytes)
	}
	log.Printf("gc-smoke: sweep reclaimed %d chunks / %.2f MB across the fleet (usage %.2f -> %.2f MB)",
		res.RemovedChunks, float64(res.ReclaimedBytes)/1e6,
		float64(before.ChunkBytes)/1e6, float64(after.ChunkBytes)/1e6)

	// The surviving context must still decode bit-for-bit: the post-sweep
	// fetch (same level-0 bitstreams) must reproduce the pre-delete KV
	// exactly, shared chunks included.
	kvB, _, err := fetcher.Fetch(ctx, "gc-b")
	if err != nil {
		return fmt.Errorf("post-sweep fetch of gc-b: %w", err)
	}
	diff, err := kvBBefore.MaxAbsDiff(kvB)
	if err != nil {
		return err
	}
	if diff != 0 {
		return fmt.Errorf("gc-b decodes differently after sweep (max diff %g)", diff)
	}
	// ...and the deleted one must be gone.
	if _, _, err := fetcher.Fetch(ctx, "gc-a"); err == nil {
		return fmt.Errorf("gc-a still fetchable after delete")
	}
	return nil
}

// runDemo drives the client path against the live fleet. settle waits
// out the armed chaos schedule and heals what it left standing; the
// node-kill step runs after it, since a node the schedule still holds
// down and the demo's victim could be both replicas of a chunk.
func runDemo(model *llm.Model, codec *core.Codec, ring *cluster.Ring, fl *chaos.LocalFleet, ids []string, settle func()) error {
	pool := cluster.NewPool(ring, cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()
	fetcher := &streamer.Fetcher{
		Source:  pool,
		Codec:   codec,
		Model:   model,
		Device:  llm.A40x4(),
		Planner: streamer.Planner{Adapt: false, DefaultLevel: 0},
	}
	bg := context.Background()

	fetchAll := func(label string) error {
		for _, id := range ids {
			kv, report, err := fetcher.Fetch(bg, id)
			if err != nil {
				return fmt.Errorf("%s fetch of %s: %w", label, id, err)
			}
			path := "req/resp"
			if report.Streamed {
				path = "stream"
			}
			log.Printf("%s fetch %s: %d tokens in %v (%.1f MB via %s, est %s, %d failovers so far)",
				label, id, kv.Tokens, report.LoadTime.Round(time.Millisecond),
				float64(report.BytesReceived)/1e6, path,
				metrics.FormatBandwidth(report.Bandwidth), pool.Stats().Failovers)
		}
		return nil
	}
	if err := fetchAll("cold"); err != nil {
		return err
	}
	if err := fetchAll("warm"); err != nil {
		return err
	}

	if len(ring.Nodes()) > 1 && ring.Replicas() < 2 {
		log.Printf("skipping the node-kill step: replication 1 keeps a single copy per chunk")
	}
	if len(ring.Nodes()) > 1 && ring.Replicas() > 1 {
		man, err := pool.GetManifest(bg, ids[0])
		if err != nil {
			return err
		}
		settle()
		victim := ring.ChunkNodes(man.Hashes[0][0])[0]
		log.Printf("killing node %s mid-demo...", victim)
		if err := fl.Kill(victim); err != nil {
			return err
		}
		if err := fetchAll("degraded"); err != nil {
			return err
		}
		log.Printf("fleet survived the node kill with %d replica failovers", pool.Stats().Failovers)
	}
	return nil
}
