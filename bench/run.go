package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// runConfig is one invocation: `-workload W -seed N -seconds S -trace 0|1`.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	OutDir   string // trace files and FileStore temp dirs live here
	// Small shrinks the inputs and sets up once; the smoke test's size.
	Small bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

const (
	// setupRepeats is how many times an untraced run sets the rig up; the
	// median is reported as setup_s and the last rig is the one measured.
	setupRepeats = 3
	// traceCapacity holds every span of a traced window with room to spare
	// (the busiest workload records ≈30k).
	traceCapacity = 1 << 17
)

// rig is one set-up stack: codec, fleet, gateway(s).
type rig struct {
	in     *inputs
	codec  *core.Codec
	fleet  *fleet
	plain  *gateway.Gateway // no tracer, no registry, no wrappers
	traced *gateway.Gateway // nil in an untraced run
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	writer *writer // publish-beside-read only
	small  bool    // smoke-test size: the post-run replays take one pass
}

func (rg *rig) close() {
	if rg.plain != nil {
		rg.plain.Close()
	}
	if rg.traced != nil {
		rg.traced.Close()
	}
	if rg.fleet != nil {
		rg.fleet.close()
	}
}

// setUp builds the rig: bank training, fleet launch, publish, gateway
// construction and an untimed warm-up pass over every context (connections
// dialled, RAM tiers and payload cache at steady state).
func setUp(wl *workload, in *inputs, cfg runConfig) (_ *rig, err error) {
	rg := &rig{in: in, small: cfg.Small}
	defer func() {
		if err != nil {
			rg.close()
		}
	}()
	if cfg.Trace {
		rg.tracer = telemetry.NewTracer(traceCapacity)
		rg.reg = telemetry.NewRegistry()
	}
	if rg.codec, err = trainCodec(in); err != nil {
		return nil, err
	}
	if rg.fleet, err = launchFleet(wl.fleet, cfg.OutDir, rg.reg, rg.tracer); err != nil {
		return nil, err
	}
	if wl.prepare == nil {
		for _, c := range in.contexts {
			if err := publish(rg.fleet.sharded, rg.codec, in.model, c); err != nil {
				return nil, fmt.Errorf("publishing %s: %w", c.id, err)
			}
		}
	}
	build := func(traced bool) (*gateway.Gateway, error) {
		gc := wl.gateway
		gc.Source, gc.Codec, gc.Model, gc.DecodeTime = rg.fleet.pool, rg.codec, in.model, constPrefill
		if wl.schedCacheBytes > 0 {
			opt := sched.Options{
				ID:         "bench-gateway",
				Locator:    rg.fleet.ring,
				Resilience: rg.fleet.pool.Resilience(),
				CacheBytes: wl.schedCacheBytes,
			}
			if traced {
				opt.Telemetry = rg.reg
			}
			gc.Sched = sched.New(opt)
		}
		if traced {
			gc.Source, gc.Tracer, gc.Telemetry = tracedSource{rg.fleet.pool}, rg.tracer, rg.reg
		}
		return gateway.New(gc)
	}
	if rg.plain, err = build(false); err != nil {
		return nil, err
	}
	if cfg.Trace {
		if rg.traced, err = build(true); err != nil {
			return nil, err
		}
	}
	if wl.prepare != nil {
		if err := wl.prepare(rg); err != nil {
			return nil, err
		}
	}
	for _, gw := range []*gateway.Gateway{rg.plain, rg.traced} {
		if gw == nil {
			continue
		}
		for _, req := range wl.warm(rg) {
			if s := submit(gw, req, 0, time.Now()); s.outcome != outcomeOK {
				return nil, fmt.Errorf("warm-up fetch of %s failed", req.ctx.id)
			}
		}
	}
	return rg, nil
}

// window is one timed drive plus what the process and the fleet did
// during it.
type window struct {
	driveResult
	cpu            float64 // CPU-seconds spent
	rssMB          float64 // VmHWM at the end
	mem0, mem1     runtime.MemStats
	goroutinesPeak int
	pool0, pool1   cluster.PoolStats
	res0, res1     resilience.Stats
	cache0, cache1 storage.CacheStats
	peakQueue      int
}

// measure drives the workload through gw for dur.
func measure(wl *workload, rg *rig, gw *gateway.Gateway, dur time.Duration, seed int64) *window {
	w := &window{}
	// The traffic stream restarts from the seed for every window, so a
	// traced run offers the same requests an untraced run does.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pool := rg.fleet.pool
	w.pool0, w.res0, w.cache0 = pool.Stats(), pool.Resilience().Stats(), rg.fleet.cacheStats()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() { // goroutine high-water mark, sampled
		defer sampler.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.goroutinesPeak {
				w.goroutinesPeak = n
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()

	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	cpu0 := cpuSeconds()
	w.driveResult = wl.drive(rg, gw, dur, rng)
	w.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&w.mem1)
	w.rssMB = peakRSSMB()
	close(stop)
	sampler.Wait()

	w.pool1, w.res1, w.cache1 = pool.Stats(), pool.Resilience().Stats(), rg.fleet.cacheStats()
	w.peakQueue = gw.Stats().MaxQueueDepth
	return w
}

// tally is the verdict on a window's requests after the output check.
type tally struct {
	sent, ok, failed, rejected, timedOut, incorrect int
	withinLimit                                     int // correct and within the TTFT limit
	writerOps, writerFailed                         int
	quality                                         float64 // mean modelled quality of delivered KV
}

func (t tally) attempted() int { return t.sent + t.writerOps }

// add folds another window's counts into t.
func (t *tally) add(o tally) {
	t.sent, t.ok, t.failed, t.rejected = t.sent+o.sent, t.ok+o.ok, t.failed+o.failed, t.rejected+o.rejected
	t.timedOut, t.incorrect, t.withinLimit = t.timedOut+o.timedOut, t.incorrect+o.incorrect, t.withinLimit+o.withinLimit
	t.writerOps, t.writerFailed = t.writerOps+o.writerOps, t.writerFailed+o.writerFailed
}

// log prints the per-phase sent / succeeded / failed line.
func (t tally) log(phase string) {
	logf("%s: sent %d ok %d failed %d rejected %d timed-out %d incorrect %d within-limit %d | writer ops %d failed %d",
		phase, t.sent, t.ok, t.failed, t.rejected, t.timedOut, t.incorrect, t.withinLimit, t.writerOps, t.writerFailed)
}
func (t tally) bad() int {
	return t.failed + t.rejected + t.timedOut + t.incorrect + t.writerFailed
}

// check verifies every completed request against its rebuilt reference
// and counts outcomes.
func check(wl *workload, v *verifier, w *window) (tally, error) {
	var t tally
	var qualitySum float64
	for i := range w.samples {
		s := &w.samples[i]
		t.sent++
		switch s.outcome {
		case outcomeFailed:
			t.failed++
			continue
		case outcomeRejected:
			t.rejected++
			continue
		case outcomeTimedOut:
			t.timedOut++
			continue
		}
		ref, err := v.reference(s.ctx, s.key)
		if err != nil {
			return t, err
		}
		if ref.digest != s.digest {
			t.incorrect++
			continue
		}
		t.ok++
		qualitySum += ref.quality
		if s.ttft <= wl.limit {
			t.withinLimit++
		}
	}
	for _, op := range w.ops {
		t.writerOps++
		if !op.ok {
			t.writerFailed++
		}
	}
	t.quality = ratio(qualitySum, float64(t.ok))
	return t, nil
}

// okSamples filters the requests that completed.
func okSamples(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.outcome == outcomeOK {
			out = append(out, s)
		}
	}
	return out
}

func ttftsMS(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.ttft)
	}
	return out
}

// endToEnd computes the user-visible metrics of an untraced window.
func endToEnd(w *window, t tally, setups []float64) map[string]float64 {
	done := okSamples(w.samples)
	var wire, kv float64
	for _, s := range done {
		wire += float64(s.wireBytes)
		kv += float64(s.kvBytes)
	}
	ttfts := ttftsMS(done)
	good := t.withinLimit + t.writerOps - t.writerFailed
	logf("ttft over %d samples: p50 %.2f ms, p90 %.2f ms, p99 %.2f ms", len(ttfts),
		percentile(ttfts, 50), percentile(ttfts, 90), percentile(ttfts, 99))
	return map[string]float64{
		"setup_s":                median(setups),
		"ttft_p50_ms":            percentile(ttfts, 50),
		"goodput_rps":            ratio(float64(good), w.elapsed.Seconds()),
		"wire_bytes_per_kv_byte": ratio(wire, kv),
		"kv_quality":             t.quality,
		"cpu_s_per_req":          ratio(w.cpu, float64(len(done)+t.writerOps-t.writerFailed)),
		"peak_rss_mb":            w.rssMB,
	}
}

// measured is everything one invocation measured. An untraced run fills
// endToEnd only; a traced run fills perLayer from its traced window and
// endToEnd from the shorter untraced window it takes the overhead ratio
// against.
type measured struct {
	endToEnd, perLayer map[string]float64
	tally              tally
	tracePath          string
}

// execute runs one benchmark invocation.
func execute(cfg runConfig) (*measured, error) {
	wl, err := lookupWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	logf("workload %s seed %d seconds %g trace %v | %s GOMAXPROCS %d of %d cores",
		wl.name, cfg.Seed, cfg.Seconds, cfg.Trace, runtime.Version(), procs, runtime.NumCPU())

	trainTokens := bankTrainToks
	if cfg.Small {
		trainTokens /= 2
	}
	in := newInputs(wl.channels, trainTokens)
	if err := wl.makeInputs(in, rand.New(rand.NewSource(cfg.Seed)), cfg.Small); err != nil {
		return nil, err
	}
	logf("inputs: %d contexts, %d tokens through the simulator in %.2fs", len(in.contexts), in.kvTokens, in.kvTime.Seconds())

	repeats := setupRepeats
	if cfg.Trace || cfg.Small {
		repeats = 1 // setup_s is an untraced metric
	}
	var rg *rig
	var setups []float64
	for i := 0; i < repeats; i++ {
		if rg != nil {
			rg.close()
		}
		t0 := time.Now()
		if rg, err = setUp(wl, in, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer rg.close()
	logf("set-up: %.3fs (median of %.3f)", median(setups), setups)

	dur := time.Duration(cfg.Seconds * float64(time.Second))
	v := newVerifier(in.model, rg.codec)
	out := &measured{}
	if !cfg.Trace {
		w := measure(wl, rg, rg.plain, dur, cfg.Seed)
		if out.tally, err = check(wl, v, w); err != nil {
			return nil, err
		}
		out.endToEnd = endToEnd(w, out.tally, setups)
		out.tally.log("requests")
		return out, nil
	}

	// A third of the time untraced, for the overhead ratio's denominator,
	// then the traced window.
	ref := measure(wl, rg, rg.plain, dur/3, cfg.Seed)
	refTally, err := check(wl, v, ref)
	if err != nil {
		return nil, err
	}
	refTally.log("untraced requests")
	out.endToEnd = endToEnd(ref, refTally, setups)

	rg.tracer.Reset()
	w := measure(wl, rg, rg.traced, dur-dur/3, cfg.Seed)
	if out.tally, err = check(wl, v, w); err != nil {
		return nil, err
	}
	out.tally.log("traced requests")
	recs := rg.tracer.Snapshot()
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	out.tracePath = filepath.Join(cfg.OutDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, cfg.Seed))
	if err := rg.tracer.WriteFile(out.tracePath); err != nil {
		return nil, err
	}
	logf("trace: %d span records written to %s", len(recs), out.tracePath)
	out.perLayer = map[string]float64{}
	perLayer(out.perLayer, wl, rg, w, ref, out.tally, analyseTrace(recs), v)
	out.tally.add(refTally)
	return out, nil
}

// run executes one invocation and shapes what it prints: with -trace 0
// every end-to-end metric, with -trace 1 every per-layer metric.
func run(cfg runConfig) (*runResult, error) {
	out, err := execute(cfg)
	if err != nil {
		return nil, err
	}
	specs, values := endToEndSpecs, out.endToEnd
	if cfg.Trace {
		specs, values = perLayerSpecs, out.perLayer
	}
	t := out.tally
	res := &runResult{Correct: t.bad() == 0, Attempted: t.attempted(), Failed: t.bad(), Metrics: map[string]metricValue{}}
	for _, sp := range specs {
		res.Metrics[sp.Name] = metricValue{Value: values[sp.Name], Unit: sp.Unit}
	}
	return res, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
