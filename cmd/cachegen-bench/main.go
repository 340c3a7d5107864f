// Command cachegen-bench runs the codec, publish and scheduler
// benchmarks programmatically (testing.Benchmark) and writes the results
// as JSON — the BENCH_codec.json artifact at the repo root that CI
// regenerates per commit to track the perf trajectory of the
// encode/decode/publish hot paths and the chunk scheduler's decision
// cost (sched_decide_steady must stay allocation-free: a baseline at 0
// allocs/op gates any regression off zero).
//
// The committed artifact's headline numbers are single-core
// (GOMAXPROCS=1): they measure the per-symbol and per-row cost of the
// codec kernels without parallel speedup. A "multicore" section rerun at
// the host's core count sits alongside them to show how the chunk/group
// worker pools scale.
//
// Usage:
//
//	cachegen-bench -out BENCH_codec.json
//	cachegen-bench -out /tmp/new.json -baseline BENCH_codec.json   # perf-regression gate
//	cachegen-bench -cpuprofile cpu.prof -memprofile mem.prof
//
// With -baseline, the run compares its single-core numbers against the
// baseline artifact and exits non-zero when a hot path regressed:
// mb_per_s dropping more than -max-mbps-drop (default 25%) or
// allocs_per_op rising more than -max-alloc-growth (default 10%) is a
// hard failure; ns_per_op changes only warn, because wall-clock noise on
// shared CI runners is too high to gate on. The multicore section is
// compared the same way, but only when the baseline was produced at the
// same GOMAXPROCS — cross-core-count mb_per_s comparisons are
// meaningless. On hosts with at least four cores the gate additionally
// requires decode_context_l1 to scale: the multicore run must reach
// -min-decode-scale (default 2.5) times the single-core throughput,
// which is what the lane-interleaved v2 container exists to buy.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	cachegen "repro"
	"repro/internal/ac"
	"repro/internal/sched"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// result is one benchmark's summary.
type result struct {
	NsPerOp     int64   `json:"ns_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// section is one GOMAXPROCS setting's worth of benchmarks.
type section struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]result `json:"benchmarks"`
}

type artifact struct {
	Tool      string `json:"tool"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS and Benchmarks are the headline single-core section
	// (kept at the top level so older tooling and the CI gate keep
	// working against a stable schema).
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]result `json:"benchmarks"`
	// Multicore reruns the same suite at the host's core count.
	Multicore *section `json:"multicore,omitempty"`
}

// stack is the shared benchmark rig: a trained codec and a KV cache with
// many short chunks (the shape where chunk-parallel encoding matters).
type stack struct {
	model  *cachegen.Model
	codec  *cachegen.Codec
	tokens []cachegen.Token
	kv     *cachegen.KV
	// chunkKV is one paper-sized chunk (1500 tokens), the shape the fetch
	// pipeline decodes lane by lane.
	chunkKV *cachegen.KV
}

// newStack builds the rig. The codec's worker pool is sized from
// GOMAXPROCS at construction, so each section builds its own stack under
// the GOMAXPROCS it benchmarks.
func newStack() (*stack, error) {
	model := cachegen.MustNewModel(cachegen.Mistral7B().WithChannels(16))
	rng := rand.New(rand.NewSource(7))
	mk := func(n int) []cachegen.Token {
		out := make([]cachegen.Token, n)
		for i := range out {
			out[i] = cachegen.Token(rng.Intn(32000))
		}
		return out
	}
	cfg := cachegen.DefaultCodecConfig()
	cfg.ChunkTokens = 64
	codec, err := cachegen.TrainCodec(cfg, model, [][]cachegen.Token{mk(512)})
	if err != nil {
		return nil, err
	}
	tokens := mk(1024)
	return &stack{model: model, codec: codec, tokens: tokens, kv: model.CalculateKV(tokens),
		chunkKV: model.CalculateKV(mk(1500))}, nil
}

func kvBytes(kv *cachegen.KV) int64 { return int64(kv.Elems()) * 2 * 4 }

// runSuite runs every benchmark against a fresh stack and returns the
// results keyed by name.
func runSuite() (map[string]result, error) {
	s, err := newStack()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	out := map[string]result{}
	bg := func(name string, setBytes int64, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		res := result{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			N:           r.N,
		}
		if setBytes > 0 && r.NsPerOp() > 0 {
			res.MBPerS = float64(setBytes) / 1e6 / (float64(r.NsPerOp()) / 1e9)
		}
		log.Printf("[gomaxprocs %d] %-24s %12d ns/op  %8.1f MB/s  %6d allocs/op",
			runtime.GOMAXPROCS(0), name, res.NsPerOp, res.MBPerS, res.AllocsPerOp)
		out[name] = res
	}

	raw := kvBytes(s.kv)
	bg("encode_context_l1", raw, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.codec.EncodeContext(s.kv, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	bg("encode_all_levels", raw, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.codec.EncodeAllLevels(s.kv); err != nil {
				b.Fatal(err)
			}
		}
	})
	chunks, err := s.codec.EncodeContext(s.kv, 1)
	if err != nil {
		return nil, err
	}
	bg("decode_context_l1", raw, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.codec.DecodeContext(chunks); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The streaming unit: one coder lane of a 1500-token chunk, decoded
	// on the calling goroutine into a shared destination.
	chunk, err := s.codec.EncodeChunk(s.chunkKV, 0, 0, 1)
	if err != nil {
		return nil, err
	}
	parsed, err := s.codec.ParseChunk(chunk)
	if err != nil {
		return nil, err
	}
	laneDst := tensor.New(s.chunkKV.Layers, s.chunkKV.Tokens, s.chunkKV.Channels)
	bg("decode_lane_l1", kvBytes(s.chunkKV)/int64(parsed.Lanes()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.codec.DecodeLaneInto(laneDst, 0, parsed, i%parsed.Lanes(), chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	rows, err := newRowsBench()
	if err != nil {
		return nil, err
	}
	bg("ac_decode_rows_4way", rows.bytes, rows.run)
	bg("publish_cold", raw, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			store := cachegen.NewMemStore()
			if _, _, err := cachegen.PublishWithStats(ctx, store, s.codec, s.model, "bench", s.tokens,
				cachegen.PublishOptions{KV: s.kv}); err != nil {
				b.Fatal(err)
			}
		}
	})
	warm := cachegen.NewMemStore()
	if _, _, err := cachegen.PublishWithStats(ctx, warm, s.codec, s.model, "warm", s.tokens,
		cachegen.PublishOptions{KV: s.kv}); err != nil {
		return nil, err
	}
	bg("publish_dedup_hit", raw, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := cachegen.PublishWithStats(ctx, warm, s.codec, s.model, fmt.Sprintf("dup-%d", i),
				s.tokens, cachegen.PublishOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	turn := s.tokens[:64]
	grownTokens := append(append([]cachegen.Token{}, s.tokens...), turn...)
	grownKV := s.model.CalculateKV(grownTokens)
	bg("append_turn_64tok", 0, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			store := cachegen.NewMemStore()
			if _, _, err := cachegen.PublishWithStats(ctx, store, s.codec, s.model, "chat", s.tokens,
				cachegen.PublishOptions{KV: s.kv}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, _, err := cachegen.Append(ctx, store, s.codec, s.model, "chat", turn,
				cachegen.PublishOptions{KV: grownKV}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Scheduler cost model: price a full 16-chunk request across every
	// (configuration, source) pair. sched_plan_16chunk is the per-request
	// cycle — open a plan, prime the candidate tables, decide every
	// chunk, close — the cost a gateway pays per admitted request.
	// sched_decide_steady is one repeat decision on a primed plan (the
	// call the streaming path makes at every decision point), which must
	// stay allocation-free: it runs on the fetcher's issue loop.
	infos, err := schedInfos(s)
	if err != nil {
		return nil, err
	}
	schedOpt := sched.Options{Signals: sched.Signals{BandwidthBPS: 1e9, RTT: time.Millisecond}}
	planReq := sched.Request{ContextID: "bench", SLO: 50 * time.Millisecond, DefaultLevel: 1}
	bg("sched_plan_16chunk", 0, func(b *testing.B) {
		sc := sched.New(schedOpt)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := sc.NewPlan(planReq)
			p.PlanPath(infos)
			for ci := range infos {
				if _, err := p.Choose(ci, 0, 0, infos); err != nil {
					b.Fatal(err)
				}
			}
			sc.FinishPlan(p, nil, nil)
		}
	})
	{
		sc := sched.New(schedOpt)
		p := sc.NewPlan(planReq)
		p.PlanPath(infos)
		bg("sched_decide_steady", 0, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Choose(i%len(infos), time.Millisecond, 5e8, infos); err != nil {
					b.Fatal(err)
				}
			}
		})
		sc.FinishPlan(p, nil, nil)
	}
	return out, nil
}

// rowsBench is the entropy-decode kernel alone: four streams of symbols
// drawn from delta-shaped models (a sharp peak at the zero delta, one
// model per channel), decoded in lockstep with the value mapping the codec
// uses. MB/s counts the float32 values stored.
type rowsBench struct {
	tabs    []*ac.FreqTable
	vals    []float32
	base    []float32
	streams [ac.MaxRowStreams][]byte
	dst     [ac.MaxRowStreams][]float32
	bytes   int64
}

func newRowsBench() (*rowsBench, error) {
	const width, rows, alphabet = 32, 256, 255
	rb := &rowsBench{vals: make([]float32, alphabet), base: make([]float32, width)}
	for s := range rb.vals {
		rb.vals[s] = float32(s-alphabet/2) * 0.5
	}
	rng := rand.New(rand.NewSource(11))
	cdfs := make([][]float64, width)
	for ch := 0; ch < width; ch++ {
		spread := 0.6 + 1.2*float64(ch)/width
		counts := make([]uint64, alphabet)
		cdf := make([]float64, alphabet)
		var sum float64
		for s := range counts {
			w := math.Exp(-math.Abs(float64(s-alphabet/2)) / spread)
			counts[s] = uint64(w * 1e9)
			sum += w
			cdf[s] = sum
		}
		tab, err := ac.NewFreqTable(counts)
		if err != nil {
			return nil, err
		}
		rb.tabs = append(rb.tabs, tab)
		cdfs[ch] = cdf
	}
	for k := range rb.streams {
		enc := ac.NewEncoder()
		for i := 0; i < rows*width; i++ {
			cdf := cdfs[i%width]
			sym := sort.SearchFloat64s(cdf, rng.Float64()*cdf[alphabet-1])
			if err := enc.Encode(min(sym, alphabet-1), rb.tabs[i%width]); err != nil {
				return nil, err
			}
		}
		rb.streams[k] = enc.Bytes()
		rb.dst[k] = make([]float32, rows*width)
	}
	rb.bytes = int64(len(rb.streams)) * rows * width * 4
	return rb, nil
}

func (rb *rowsBench) run(b *testing.B) {
	var decs [ac.MaxRowStreams]ac.Decoder
	var streams [ac.MaxRowStreams]ac.RowStream
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for k := range streams {
			decs[k].Reset(rb.streams[k])
			streams[k] = ac.RowStream{Dec: &decs[k], Dst: rb.dst[k], Base: rb.base}
		}
		ac.DecodeRows(rb.tabs, rb.vals, nil, streams[:])
	}
}

// schedInfos annotates the stack's context the way the fetcher would:
// real encoded sizes at every level, text-fallback bytes, and a
// recompute estimate per chunk.
func schedInfos(s *stack) ([]streamer.ChunkInfo, error) {
	all, err := s.codec.EncodeAllLevels(s.kv)
	if err != nil {
		return nil, err
	}
	levels := len(all)
	if levels == 0 || len(all[0]) == 0 {
		return nil, fmt.Errorf("bench: empty encode")
	}
	n := len(all[0])
	chunkTok := s.kv.Tokens / n
	infos := make([]streamer.ChunkInfo, n)
	for ci := 0; ci < n; ci++ {
		sizes := make([]int64, levels)
		hashes := make([]string, levels)
		for lv := 0; lv < levels; lv++ {
			sizes[lv] = int64(len(all[lv][ci]))
			hashes[lv] = fmt.Sprintf("bench-h%d-%d", lv, ci)
		}
		infos[ci] = streamer.ChunkInfo{
			Tokens:       chunkTok,
			SizesByLevel: sizes,
			TextBytes:    4 * int64(chunkTok),
			Recompute:    200 * time.Microsecond,
			Context:      "bench",
			Index:        ci,
			HashByLevel:  hashes,
			TextHash:     fmt.Sprintf("bench-t-%d", ci),
		}
	}
	return infos, nil
}

// checkSection compares one section's fresh results against the same
// section of the baseline, returning the number of hard regressions.
// label prefixes log lines so single-core and multicore failures are
// distinguishable.
func checkSection(label string, fresh, base map[string]result, maxDrop, maxAllocGrowth float64) int {
	hard := 0
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		f, ok := fresh[name]
		if !ok {
			log.Printf("FAIL %s%s: present in baseline but not in this run", label, name)
			hard++
			continue
		}
		if b.MBPerS > 0 && f.MBPerS < b.MBPerS*(1-maxDrop/100) {
			log.Printf("FAIL %s%s: %.1f MB/s is a >%.0f%% drop from baseline %.1f MB/s",
				label, name, f.MBPerS, maxDrop, b.MBPerS)
			hard++
		}
		if b.AllocsPerOp > 0 && float64(f.AllocsPerOp) > float64(b.AllocsPerOp)*(1+maxAllocGrowth/100) {
			log.Printf("FAIL %s%s: %d allocs/op exceeds baseline %d by >%.0f%%",
				label, name, f.AllocsPerOp, b.AllocsPerOp, maxAllocGrowth)
			hard++
		}
		if b.AllocsPerOp == 0 && f.AllocsPerOp > 0 {
			log.Printf("FAIL %s%s: %d allocs/op; the baseline holds this path allocation-free",
				label, name, f.AllocsPerOp)
			hard++
		}
		if b.NsPerOp > 0 && float64(f.NsPerOp) > float64(b.NsPerOp)*1.25 {
			log.Printf("warn %s%s: %d ns/op vs baseline %d (wall clock only; not gating)",
				label, name, f.NsPerOp, b.NsPerOp)
		}
	}
	return hard
}

// check compares a fresh artifact against a baseline artifact,
// returning the number of hard regressions. The single-core section
// always gates; the multicore section gates only when the baseline was
// measured at the same GOMAXPROCS (throughput at different core counts
// is not comparable). When the host has at least minScaleCores cores,
// the multicore decode_context_l1 run must additionally reach minScale
// times the single-core throughput — the gate that keeps the
// lane-parallel decode path actually parallel.
func check(fresh *artifact, baselinePath string, maxDrop, maxAllocGrowth, minScale float64) int {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		log.Fatalf("reading baseline: %v", err)
	}
	var base artifact
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("parsing baseline: %v", err)
	}
	hard := checkSection("", fresh.Benchmarks, base.Benchmarks, maxDrop, maxAllocGrowth)
	checked := len(base.Benchmarks)

	switch {
	case fresh.Multicore == nil:
		log.Printf("note: no multicore section this run (single-core host); scaling gate skipped")
	case base.Multicore == nil:
		log.Printf("note: baseline has no multicore section; multicore numbers not gated")
	case base.Multicore.GOMAXPROCS != fresh.Multicore.GOMAXPROCS:
		log.Printf("note: baseline multicore section is gomaxprocs %d, this host ran %d; not comparable, skipping",
			base.Multicore.GOMAXPROCS, fresh.Multicore.GOMAXPROCS)
	default:
		hard += checkSection("multicore/", fresh.Multicore.Benchmarks, base.Multicore.Benchmarks,
			maxDrop, maxAllocGrowth)
		checked += len(base.Multicore.Benchmarks)
	}

	if fresh.Multicore != nil && minScale > 0 {
		if fresh.Multicore.GOMAXPROCS < minScaleCores {
			log.Printf("note: %d cores < %d; decode scaling measured but not gated",
				fresh.Multicore.GOMAXPROCS, minScaleCores)
		} else {
			s, m := fresh.Benchmarks["decode_context_l1"], fresh.Multicore.Benchmarks["decode_context_l1"]
			ratio := 0.0
			if s.MBPerS > 0 {
				ratio = m.MBPerS / s.MBPerS
			}
			if ratio < minScale {
				log.Printf("FAIL decode_context_l1: %.2fx multicore scaling at gomaxprocs %d is below the required %.2fx (%.1f -> %.1f MB/s)",
					ratio, fresh.Multicore.GOMAXPROCS, minScale, s.MBPerS, m.MBPerS)
				hard++
			} else {
				log.Printf("decode_context_l1 scaling ok: %.2fx at gomaxprocs %d (%.1f -> %.1f MB/s)",
					ratio, fresh.Multicore.GOMAXPROCS, s.MBPerS, m.MBPerS)
			}
		}
	}

	if hard == 0 {
		log.Printf("baseline check passed: %d benchmarks within bounds of %s", checked, baselinePath)
	}
	return hard
}

// minScaleCores is the smallest core count where the -min-decode-scale
// gate is enforced: below four cores the theoretical ceiling sits too
// close to the required ratio for the gate to separate a real
// serialization bug from scheduler noise.
const minScaleCores = 4

func main() {
	out := flag.String("out", "BENCH_codec.json", "output path for the JSON artifact")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile of the benchmark run to this file")
	baseline := flag.String("baseline", "", "baseline artifact to compare against; regressions exit non-zero")
	maxDrop := flag.Float64("max-mbps-drop", 25, "hard-fail when a benchmark's mb_per_s drops more than this percentage below baseline")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 10, "hard-fail when allocs_per_op grows more than this percentage above baseline")
	minScale := flag.Float64("min-decode-scale", 2.5, "with -baseline, hard-fail when multicore decode_context_l1 throughput is below this multiple of single-core; enforced only on hosts with >=4 cores (0 disables)")
	multicore := flag.Bool("multicore", true, "also run the suite at the host's core count (skipped on single-core hosts)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-bench: ")

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// Headline numbers: single core, so committed artifacts are
	// comparable across hosts and reflect kernel cost, not parallelism.
	cores := runtime.NumCPU()
	runtime.GOMAXPROCS(1)
	single, err := runSuite()
	if err != nil {
		log.Fatal(err)
	}
	art := artifact{
		Tool:       "cachegen-bench",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: 1,
		Benchmarks: single,
	}

	if *multicore && cores > 1 {
		runtime.GOMAXPROCS(cores)
		multi, err := runSuite()
		if err != nil {
			log.Fatal(err)
		}
		art.Multicore = &section{GOMAXPROCS: cores, Benchmarks: multi}
	}
	runtime.GOMAXPROCS(cores)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
		f.Close()
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(art.Benchmarks))
	for n := range art.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	log.Printf("wrote %s (%d benchmarks: %v)", *out, len(names), names)

	if *baseline != "" {
		if hard := check(&art, *baseline, *maxDrop, *maxAllocGrowth, *minScale); hard > 0 {
			pprof.StopCPUProfile() // flush before the hard exit
			log.Fatalf("%d hard perf regression(s) against %s", hard, *baseline)
		}
	}
}
