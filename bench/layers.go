package main

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"repro/internal/ac"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// perLayer fills values with every per-layer row of a traced run: what
// the load generator, the gateway's Results, the fleet's counters and the
// span records say about the traced window w, plus the post-run replays of
// the layers below the fetch pipeline. ref is the untraced reference
// window the overhead ratio is taken against.
func perLayer(values map[string]float64, wl *workload, rg *rig, w, ref *window, t tally, ts *traceStats, v *verifier) {
	for _, sp := range perLayerSpecs { // a layer this workload does not exercise reports 0
		values[sp.Name] = 0
	}
	done := okSamples(w.samples)
	n := float64(len(done))
	sum := func(f func(s *sample) float64) float64 {
		var total float64
		for i := range done {
			total += f(&done[i])
		}
		return total
	}
	perReq := func(f func(s *sample) float64) float64 { return ratio(sum(f), n) }
	ttfts := ttftsMS(done)

	// loadgen
	lags := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lags[i] = ms(s.lag)
	}
	values["loadgen.lag_p95_ms"] = percentile(lags, 95)
	values["loadgen.ttft_p90_ms"] = percentile(ttfts, 90)
	values["loadgen.ttft_p99_ms"] = percentile(ttfts, 99)
	values["loadgen.sent"] = float64(t.sent)
	values["loadgen.ok"] = float64(t.ok)
	values["loadgen.failed"] = float64(t.failed + t.writerFailed)
	values["loadgen.rejected"] = float64(t.rejected)
	values["loadgen.timed_out"] = float64(t.timedOut)
	values["loadgen.incorrect"] = float64(t.incorrect)
	values["loadgen.slo_miss_ratio"] = 1 - ratio(float64(t.withinLimit), float64(t.sent))
	values["loadgen.fail_ratio"] = ratio(float64(t.bad()), float64(t.attempted()))

	// gateway
	waits := make([]float64, len(done))
	for i, s := range done {
		waits[i] = ms(s.queueWait)
	}
	values["gateway.queue_wait_p50_ms"] = percentile(waits, 50)
	values["gateway.queue_wait_p95_ms"] = percentile(waits, 95)
	values["gateway.prefetch_hit_ratio"] = perReq(func(s *sample) float64 { return b2f(s.prefetchHit) })
	values["gateway.degraded_ratio"] = perReq(func(s *sample) float64 { return b2f(s.degraded) })
	values["gateway.self_us_per_req"] = mean(ts.selfUS)
	values["gateway.peak_queue_depth"] = float64(w.peakQueue)

	// sched
	chunks := sum(func(s *sample) float64 { return float64(s.chunks) })
	src := func(label string) float64 {
		return ratio(sum(func(s *sample) float64 { return float64(s.sources[label]) }), chunks)
	}
	if wl.schedCacheBytes > 0 {
		ram, remote, rec := src(streamer.SourceRAM), src(streamer.SourceRemote), src(streamer.SourceRecompute)
		values["sched.src_ram_ratio"], values["sched.src_remote_ratio"], values["sched.src_recompute_ratio"] = ram, remote, rec
		values["sched.src_other_ratio"] = 1 - ram - remote - rec
		counter := func(name string) float64 { return float64(rg.reg.Counter(name, "").Value()) }
		// What the scheduler's own counters record: first decisions plus
		// repeat decisions that differed from the standing choice (damped
		// or not). Repeat calls that confirmed it are not counted by the
		// program. The counters include the warm-up pass.
		reqs := n + float64(len(wl.warm(rg)))
		values["sched.choose_calls_per_req"] = ratio(counter("cachegen_sched_decisions_total")+
			counter("cachegen_sched_holds_total")+counter("cachegen_sched_replans_total"), reqs)
		values["sched.replans_per_req"] = ratio(counter("cachegen_sched_replans_total"), reqs)
		values["sched.plan_us_per_req"] = replayPlans(wl, rg, done)
	}

	// streamer
	loads := make([]float64, len(done))
	for i, s := range done {
		loads[i] = ms(s.load)
	}
	values["streamer.load_p50_ms"] = percentile(loads, 50)
	values["streamer.manifest_us_per_req"] = mean(ts.manifestUS)
	values["streamer.transfer_excl_ms_per_req"] = perReq(func(s *sample) float64 { return ms(s.transfer) })
	values["streamer.decode_excl_ms_per_req"] = perReq(func(s *sample) float64 { return ms(s.decode) })
	values["streamer.recompute_excl_ms_per_req"] = perReq(func(s *sample) float64 { return ms(s.recompute) })
	values["streamer.idle_ms_per_req"] = perReq(func(s *sample) float64 {
		return ms(s.load - s.transfer - s.decode - s.recompute)
	})
	values["streamer.switches_per_req"] = perReq(func(s *sample) float64 { return float64(s.switches) })
	values["streamer.cancels_per_req"] = perReq(func(s *sample) float64 { return float64(s.cancels) })
	values["streamer.wasted_byte_ratio"] = ratio(
		sum(func(s *sample) float64 { return float64(s.wastedBytes) }),
		sum(func(s *sample) float64 { return float64(s.wireBytes) }))
	texts := sum(func(s *sample) float64 { return float64(s.textChunks) })
	values["streamer.level_mean"] = ratio(sum(func(s *sample) float64 { return float64(s.levelSum) }), chunks-texts)
	values["streamer.text_chunk_ratio"] = ratio(texts, chunks)
	values["streamer.corrupt_rejected"] = sum(func(s *sample) float64 { return float64(s.corrupt) })

	// cluster + resilience
	getChunk := durationsUS(ts.byName[spanClusterChunk])
	values["cluster.get_chunk_p50_us"] = percentile(getChunk, 50)
	values["cluster.get_chunk_p95_us"] = percentile(getChunk, 95)
	values["cluster.amplification"] = ratio(float64(w.pool1.Attempts-w.pool0.Attempts), float64(w.pool1.Requests-w.pool0.Requests))
	values["cluster.failovers"] = float64(w.pool1.Failovers - w.pool0.Failovers)
	values["cluster.dials"] = float64(w.pool1.Dials - w.pool0.Dials)
	hedges := float64(w.res1.Hedges - w.res0.Hedges)
	values["resilience.hedges"] = hedges
	values["resilience.hedge_win_ratio"] = ratio(float64(w.res1.HedgeWins-w.res0.HedgeWins), hedges)
	values["resilience.retries_denied"] = float64(w.res1.RetriesDenied - w.res0.RetriesDenied)

	// storage
	stGet := durationsUS(ts.byName[spanStoreGetChunk])
	values["storage.get_chunk_p50_us"] = percentile(stGet, 50)
	values["storage.get_chunk_p95_us"] = percentile(stGet, 95)
	values["storage.get_manifest_p50_us"] = percentile(durationsUS(ts.byName[spanStoreGetMan]), 50)
	hits, misses := float64(w.cache1.Hits-w.cache0.Hits), float64(w.cache1.Misses-w.cache0.Misses)
	values["storage.ram_hit_ratio"] = ratio(hits, hits+misses)
	values["storage.evictions_per_req"] = ratio(float64(w.cache1.Evictions-w.cache0.Evictions), n)
	values["storage.put_chunk_p50_us"] = percentile(durationsUS(ts.byName[spanStorePutChunk]), 50)
	values["storage.put_manifest_p50_us"] = percentile(durationsUS(ts.byName[spanStorePutMan]), 50)
	sweeps := ts.byName[spanStoreSweep]
	values["storage.sweep_ms_per_sweep"] = mean(durationsMS(sweeps))
	values["storage.reclaimed_bytes_per_sweep"] = ratio(float64(ts.reclaimedBytes), float64(len(sweeps)))

	// writer (publish-beside-read)
	var stored, reused float64
	opDur := map[string][]float64{}
	for _, op := range w.ops {
		opDur[op.kind] = append(opDur[op.kind], ms(op.dur))
		stored += float64(op.stored)
		reused += float64(op.reused)
	}
	values["storage.dedup_reuse_ratio"] = ratio(reused, stored+reused)
	values["writer.publish_p50_ms"] = percentile(opDur["publish"], 50)
	values["writer.publish_p95_ms"] = percentile(opDur["publish"], 95)
	values["writer.append_p50_ms"] = percentile(opDur["append"], 50)
	values["writer.append_p95_ms"] = percentile(opDur["append"], 95)
	if rg.writer != nil {
		values["writer.stored_bytes_per_kv_byte"] = rg.writer.storedPerKVByte()
	}

	// llm
	values["llm.calculate_kv_ktok_per_s"] = ratio(float64(rg.in.kvTokens)/1e3, rg.in.kvTime.Seconds())
	values["llm.modelled_prefill_ms"] = ms(modelledPrefill)

	// telemetry
	values["telemetry.trace_overhead_ratio"] = ratio(percentile(ttfts, 50), percentile(ttftsMS(okSamples(ref.samples)), 50))
	values["telemetry.spans_per_req"] = ts.spansPerReq
	values["telemetry.spans_dropped"] = float64(rg.tracer.Dropped())
	values["telemetry.self_time_coverage"] = median(ts.coverage)

	// proc
	ops := n + float64(t.writerOps)
	values["proc.allocs_per_req"] = ratio(float64(w.mem1.Mallocs-w.mem0.Mallocs), ops)
	values["proc.alloc_mb_per_req"] = ratio(float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc)/1e6, ops)
	values["proc.gc_pause_ms_per_s"] = ratio(float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs)/1e6, w.elapsed.Seconds())
	values["proc.goroutines_peak"] = float64(w.goroutinesPeak)
	values["proc.cpu_s_total"] = w.cpu

	// The layers below the fetch pipeline, replayed on what the run moved.
	replayCodec(values, rg, v)
	kernelBench(values, rg)
	transportBench(values, rg.small)
	if wl.name == wlWireCliff {
		baselinesBench(values, rg)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// storedPerKVByte is the fleet's physical chunk bytes (replicas count)
// over the FP16 KV bytes of the contexts live at the end of the run.
func (w *writer) storedPerKVByte() float64 {
	usage, err := w.rg.fleet.sharded.Usage(context.Background())
	if err != nil {
		return 0
	}
	var live float64
	c := w.cycle.Load()
	for k := c - writerLive; k < c; k++ {
		if k >= 0 {
			live += float64(w.slots[k%int64(len(w.slots))].full.kv.SizeBytesFP16())
		}
	}
	return ratio(float64(usage.ChunkBytes), live)
}

// replayPlans times the scheduler on the requests the run served: one
// PlanPath plus one Choose per chunk, on chunk metadata rebuilt from each
// context's manifest the way the Fetcher annotates it. The gateway builds
// its own Fetcher, so a Policy wrapper cannot sit inside Submit; this
// replay is the closest the benchmark's side gets.
func replayPlans(wl *workload, rg *rig, done []sample) float64 {
	bg := context.Background()
	s := sched.New(sched.Options{
		ID: "bench-replay", Locator: rg.fleet.ring, Resilience: rg.fleet.pool.Resilience(),
		CacheBytes: wl.schedCacheBytes,
	})
	infosOf := map[*benchContext][]streamer.ChunkInfo{}
	var total time.Duration
	plans := 0
	for i := range done {
		c := done[i].ctx
		infos, ok := infosOf[c]
		if !ok {
			man, err := rg.fleet.sharded.GetManifest(bg, c.id)
			if err != nil {
				continue
			}
			if infos, err = streamer.BuildChunkInfos(man.Meta, rg.in.model.Config(), wl.gateway.Device, 1); err != nil {
				continue
			}
			for ci := range infos {
				infos[ci].Context, infos[ci].Index = c.id, ci
				infos[ci].KVBytes = int64(infos[ci].Tokens*c.kv.Layers*c.kv.Channels) * 4
				for lv := 0; lv < man.Meta.Levels; lv++ {
					h, _ := man.ChunkHash(lv, ci)
					infos[ci].HashByLevel = append(infos[ci].HashByLevel, h)
				}
				infos[ci].TextHash, _ = man.ChunkHash(storage.TextLevel, ci)
			}
			infosOf[c] = infos
		}
		t0 := time.Now()
		plan := s.NewPlan(sched.Request{ContextID: c.id, SLO: wl.limit, DefaultLevel: wl.gateway.Planner.DefaultLevel})
		plan.PlanPath(infos)
		for ci := range infos {
			if _, err := plan.Choose(ci, 0, 0, infos); err != nil {
				break
			}
		}
		s.FinishPlan(plan, nil, nil)
		total += time.Since(t0)
		plans++
	}
	return ratio(us(total), float64(plans))
}

// memDelta runs fn and returns what it allocated.
func memDelta(fn func()) (mallocs, bytes float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)
}

// mbPerS is decoded (or to-be-encoded) float32 K+V bytes per second, the
// unit BENCH_codec.json uses.
func mbPerS(elems int, d time.Duration) float64 {
	return ratio(float64(elems)*2*4/1e6, d.Seconds())
}

// replayCodec re-parses, re-decodes and re-encodes the chunk payloads the
// run delivered (the verifier rebuilt exactly those from the lossless KV),
// through the codec's public calls.
func replayCodec(values map[string]float64, rg *rig, v *verifier) {
	codec := rg.codec
	type chunk struct {
		data []byte
		p    *core.ParsedChunk
	}
	var chunks []chunk
	for _, data := range v.payload {
		if p, err := codec.ParseChunk(data); err == nil {
			chunks = append(chunks, chunk{data, p})
		}
		if len(chunks) == 4 { // a few full-size chunks are enough
			break
		}
	}
	if len(chunks) == 0 {
		return
	}
	layers, channels := codec.Bank().Geometry()
	var parse, serial, parallel time.Duration
	var elems int
	var mallocs, bytes float64
	for _, c := range chunks {
		t0 := time.Now()
		for i := 0; i < 20; i++ {
			codec.ParseChunk(c.data)
		}
		parse += time.Since(t0) / 20
		hdr := c.p.Header
		dst := tensor.New(layers, hdr.Tokens, channels)
		elems += dst.Elems()
		t0 = time.Now()
		for lane := 0; lane < c.p.Lanes(); lane++ { // one lane at a time: one core
			codec.DecodeLaneInto(dst, 0, c.p, lane, c.data)
		}
		serial += time.Since(t0)
		m, b := memDelta(func() {
			t0 = time.Now()
			codec.DecodeParsedInto(dst, 0, c.p, c.data)
			parallel += time.Since(t0)
		})
		mallocs, bytes = mallocs+m, bytes+b
	}
	nc := float64(len(chunks))
	values["core.parse_us_per_chunk"] = us(parse) / nc
	values["core.decode_mb_per_s_1core"] = mbPerS(elems, serial)
	values["core.decode_mb_per_s_ncore"] = mbPerS(elems, parallel)
	values["core.decode_allocs_per_chunk"] = mallocs / nc
	values["core.decode_alloc_bytes_per_kv_byte"] = ratio(bytes, float64(elems)*2*2)

	// Encode: the first context's first chunk, at L1 and at every level.
	c := rg.in.contexts[0]
	hi := codec.SplitOffsets(c.kv.Tokens)[1]
	part, err := c.kv.SliceTokens(0, hi)
	if err != nil {
		return
	}
	levels := codec.Config().Levels()
	sizes := make([]int, levels)
	var l1, all time.Duration
	m, _ := memDelta(func() {
		for lv := 0; lv < levels; lv++ {
			t0 := time.Now()
			data, err := codec.EncodeChunk(part, 0, 0, core.Level(lv))
			d := time.Since(t0)
			if err != nil {
				return
			}
			sizes[lv] = len(data)
			all += d
			if lv == 1 {
				l1 = d
			}
		}
	})
	values["core.encode_l1_mb_per_s"] = mbPerS(part.Elems(), l1)
	values["core.encode_all_levels_mb_per_s"] = mbPerS(part.Elems(), all)
	values["core.encode_allocs_per_chunk"] = m / float64(levels)
	for lv, name := range []string{"core.bits_per_elem_l0", "core.bits_per_elem_l1", "core.bits_per_elem_l2", "core.bits_per_elem_l3"} {
		if lv < levels {
			values[name] = ratio(float64(sizes[lv])*8, float64(part.Elems())*2)
		}
	}
}

// kernelBench times the bulk public calls of ac, quant and tensor on rows
// of the run's own KV: delta rows quantized with the codec's middle-layer
// bin, coded under the table their own histogram gives.
func kernelBench(values map[string]float64, rg *rig) {
	kv := rg.in.contexts[0].kv
	bin := core.DefaultConfig().BaseBins.BinFor(kv.Layers/2, kv.Layers)
	u, err := quant.NewUniform(bin, core.DefaultConfig().DeltaClamp)
	if err != nil {
		return
	}
	layer := kv.Layers / 2
	tokens := kv.Tokens
	if tokens > 1500 {
		tokens = 1500
	}
	rows := tokens - 1
	syms := make([]int, rows*kv.Channels)
	passes := 8
	if rg.small {
		passes = 1
	}

	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for t := 1; t < tokens; t++ {
			u.QuantizeRow(kv.Row(tensor.Key, layer, t), kv.Row(tensor.Key, layer, t-1), syms[(t-1)*kv.Channels:t*kv.Channels])
		}
	}
	values["quant.quantize_row_melem_per_s"] = ratio(float64(passes*len(syms))/1e6, time.Since(t0).Seconds())

	dst := make([]float32, kv.Channels)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		for t := 1; t < tokens; t++ {
			u.DequantizeRow(syms[(t-1)*kv.Channels:t*kv.Channels], kv.Row(tensor.Key, layer, t-1), dst)
		}
	}
	values["quant.dequantize_row_melem_per_s"] = ratio(float64(passes*len(syms))/1e6, time.Since(t0).Seconds())

	hist := ac.NewHistogram(u.Levels())
	for _, s := range syms {
		hist.Observe(s)
	}
	// Every symbol gets a nonzero count, as the bank's smoothed tables do.
	counts := append([]uint64(nil), hist.Counts()...)
	for i := range counts {
		counts[i]++
	}
	table, err := ac.NewFreqTable(counts)
	if err != nil {
		return
	}
	enc := ac.NewEncoder()
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		enc.Reset()
		if err := enc.EncodeSymbols(table, syms); err != nil {
			return
		}
	}
	values["ac.encode_msym_per_s"] = ratio(float64(passes*len(syms))/1e6, time.Since(t0).Seconds())
	stream := append([]byte(nil), enc.Bytes()...)
	out := make([]int, len(syms))
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		if err := ac.NewDecoder(stream).DecodeSymbols(table, out); err != nil {
			return
		}
	}
	values["ac.decode_msym_per_s"] = ratio(float64(passes*len(syms))/1e6, time.Since(t0).Seconds())

	copyDst := tensor.New(kv.Layers, kv.Tokens, kv.Channels)
	t0 = time.Now()
	for p := 0; p < passes; p++ {
		if err := copyDst.CopyTokensAt(0, kv, 0, kv.Tokens); err != nil {
			return
		}
	}
	values["tensor.copy_tokens_gb_per_s"] = ratio(float64(passes)*float64(kv.Elems())*2*4/1e9, time.Since(t0).Seconds())
}

// transportBench measures the wire protocol alone: one unshaped loopback
// connection to one server over a RAM-resident payload, then the same
// connection shaped to a steady 100 Mbps to check the shaper delivers the
// rate it is set to (a "faster" shaper would be a broken benchmark).
func transportBench(values map[string]float64, small bool) {
	bg := context.Background()
	const payloadBytes = 2 << 20
	payload := make([]byte, payloadBytes)
	rand.New(rand.NewSource(1)).Read(payload)
	hash := storage.HashChunk(payload)
	st := storage.NewMemStore()
	if err := st.PutChunk(bg, hash, payload); err != nil {
		return
	}
	man := storage.Manifest{
		Meta: storage.ContextMeta{ContextID: "rtt", Model: "m", TokenCount: 1, ChunkTokens: []int{1},
			Levels: 1, SizesBytes: [][]int64{{payloadBytes}}},
		Hashes: map[int][]string{0: {hash}},
	}
	if err := st.PutManifest(bg, man); err != nil {
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	srv := transport.NewServer(st)
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return
	}
	defer client.Close()

	var rtts []time.Duration
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := client.GetMeta(bg, "rtt"); err != nil {
			return
		}
		rtts = append(rtts, time.Since(t0))
	}
	values["transport.rtt_p50_us"] = percentile(durationsUS(rtts), 50)

	fetches := 16
	if small {
		fetches = 2
	}
	t0 := time.Now()
	for i := 0; i < fetches; i++ {
		if _, err := client.GetChunkData(bg, hash); err != nil {
			return
		}
	}
	values["transport.get_chunk_mb_per_s"] = ratio(float64(fetches)*payloadBytes/1e6, time.Since(t0).Seconds())

	// stream pushes the payload `copies` times and returns the frames'
	// arrival times and cumulative byte counts.
	stream := func(copies int) (at []time.Time, cum []int64, err error) {
		req := transport.StreamRequest{}
		for i := 0; i < copies; i++ {
			req.Chunks = append(req.Chunks, transport.StreamChunk{Index: i, Hashes: map[int]string{0: hash}})
		}
		s, err := client.OpenChunkStream(bg, req)
		if err != nil {
			return nil, nil, err
		}
		defer s.Close()
		var total int64
		for {
			f, err := s.Recv(bg)
			if errors.Is(err, io.EOF) {
				return at, cum, nil
			}
			if err != nil {
				return nil, nil, err
			}
			total += int64(len(f.Data))
			at, cum = append(at, f.Arrived), append(cum, total)
		}
	}
	var frames int
	var streamed int64
	var took time.Duration
	mallocs, bytes := memDelta(func() {
		t0 := time.Now()
		at, cum, err := stream(fetches)
		if err != nil || len(at) == 0 {
			return
		}
		took, frames, streamed = time.Since(t0), len(at), cum[len(cum)-1]
	})
	if frames == 0 {
		return
	}
	mb := float64(streamed) / 1e6
	values["transport.stream_mb_per_s"] = ratio(mb, took.Seconds())
	values["transport.frames_per_mb"] = ratio(float64(frames), mb)
	values["transport.allocs_per_frame"] = ratio(mallocs, float64(frames))
	values["transport.alloc_bytes_per_mb"] = ratio(bytes, mb)

	// Steady-state rate under the shaper: skip the first half, which the
	// token bucket's initial burst inflates.
	const shapedBPS = 100e6
	srv.SetEgressRate(shapedBPS)
	copies := 2
	if small {
		copies = 1
	}
	at, cum, err := stream(copies)
	if err != nil || len(at) < 4 {
		return
	}
	mid, last := len(at)/2, len(at)-1
	achieved := ratio(float64(cum[last]-cum[mid])*8, at[last].Sub(at[mid]).Seconds())
	if achieved > shapedBPS {
		values["transport.shaper_rate_error"] = (achieved - shapedBPS) / shapedBPS
	} else {
		values["transport.shaper_rate_error"] = (shapedBPS - achieved) / shapedBPS
	}
}

// baselinesBench commits the paper's headline ratios as numbers: the first
// wire-cliff context at the cliff trace's steady pre-cliff rate, loaded as
// CacheGen L1 through the real fetch pipeline, as an 8-bit quantized blob
// through the same PutChunk/GetChunkData wire plus its dequantize pass,
// and as text plus a full prefill.
func baselinesBench(values map[string]float64, rg *rig) {
	bg := context.Background()
	c := rg.in.contexts[0]
	srv, pool := rg.fleet.nodes[0].srv, rg.fleet.pool
	srv.SetEgressRate(cliffSteadyBPS)
	defer srv.SetEgressRate(0)
	reps := 3
	if rg.small {
		reps = 1
	}

	fetcher := &streamer.Fetcher{
		Source: pool, Codec: rg.codec, Model: rg.in.model, Device: benchDevice(),
		Planner: streamer.Planner{DefaultLevel: 1}, PipelineDepth: 4,
	}
	var cachegen, quant8, text []float64
	var l1Bytes int64
	for i := 0; i < reps; i++ {
		_, rep, err := fetcher.Fetch(bg, c.id)
		if err != nil {
			return
		}
		cachegen = append(cachegen, ms(rep.LoadTime))
		l1Bytes = rep.BytesReceived
	}

	q, err := baselines.Quantize(c.kv, 8)
	if err != nil {
		return
	}
	blob := make([]byte, q.Bytes)
	rand.New(rand.NewSource(2)).Read(blob)
	hash := storage.HashChunk(blob)
	if err := rg.fleet.sharded.PutChunk(bg, hash, blob); err != nil {
		return
	}
	vq, err := quant.NewVectorwise(8)
	if err != nil {
		return
	}
	qs := make([]int32, c.kv.Channels)
	recon := tensor.New(c.kv.Layers, c.kv.Tokens, c.kv.Channels)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := pool.GetChunkData(bg, hash); err != nil {
			return
		}
		for _, kind := range tensor.Kinds {
			for l := 0; l < recon.Layers; l++ {
				for t := 0; t < recon.Tokens; t++ {
					vq.Dequantize(qs, 1, recon.Row(kind, l, t))
				}
			}
		}
		quant8 = append(quant8, ms(time.Since(t0)))
	}

	man, err := pool.GetManifest(bg, c.id)
	if err != nil {
		return
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		for ci := 0; ci < man.Meta.NumChunks(); ci++ {
			h, err := man.ChunkHash(storage.TextLevel, ci)
			if err != nil {
				return
			}
			if _, err := pool.GetChunkData(bg, h); err != nil {
				return
			}
		}
		rg.in.model.CalculateKV(c.tokens)
		text = append(text, ms(time.Since(t0)))
	}

	fp16 := float64(c.kv.SizeBytesFP16())
	values["baselines.quant8_bytes_per_kv_byte"] = ratio(float64(q.Bytes), fp16)
	values["baselines.size_reduction_vs_quant8"] = ratio(float64(q.Bytes), float64(l1Bytes))
	values["baselines.quant8_load_p50_ms"] = median(quant8)
	values["baselines.text_load_p50_ms"] = median(text)
	values["baselines.load_speedup_vs_quant8"] = ratio(median(quant8), median(cachegen))
	values["baselines.load_speedup_vs_text"] = ratio(median(text), median(cachegen))
}
