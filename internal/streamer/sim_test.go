package streamer

import (
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func simMeta() storage.ContextMeta {
	return storage.ContextMeta{
		ContextID:   "sim-1",
		Model:       "Mistral-7B",
		TokenCount:  6000,
		ChunkTokens: []int{1500, 1500, 1500, 1500},
		Levels:      4,
		// Sizes mimic CacheGen on Mistral-7B: ~28 MB per 1500-token chunk
		// at the default level.
		SizesBytes: [][]int64{
			{45e6, 45e6, 45e6, 45e6},
			{28e6, 28e6, 28e6, 28e6},
			{18e6, 18e6, 18e6, 18e6},
			{11e6, 11e6, 11e6, 11e6},
		},
		TextBytes: []int64{6000, 6000, 6000, 6000},
	}
}

func simInput(t *testing.T, trace netsim.Trace, p Planner) SimInput {
	t.Helper()
	model := llm.Mistral7B()
	dev := llm.A40x4()
	chunks, err := BuildChunkInfos(simMeta(), model, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	return SimInput{
		Chunks:      chunks,
		TotalTokens: 6000,
		Link:        netsim.NewLink(trace),
		Planner:     p,
		Model:       model,
		Device:      dev,
	}
}

func TestBuildChunkInfos(t *testing.T) {
	model := llm.Mistral7B()
	dev := llm.A40x4()
	chunks, err := BuildChunkInfos(simMeta(), model, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks", len(chunks))
	}
	// Later chunks attend over longer prefixes, so recompute grows.
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Recompute <= chunks[i-1].Recompute {
			t.Errorf("recompute not increasing: chunk %d %v ≤ chunk %d %v",
				i, chunks[i].Recompute, i-1, chunks[i-1].Recompute)
		}
	}
	bad := simMeta()
	bad.ChunkTokens[0] = 0
	if _, err := BuildChunkInfos(bad, model, dev, 1); err == nil {
		t.Error("invalid meta accepted")
	}
}

func TestSimulateFixedBandwidth(t *testing.T) {
	// 112 MB at the default level over 3 Gbps ≈ 0.30 s transfer + decode +
	// suffix prefill: TTFT well under a second — the Fig 8 regime.
	in := simInput(t, netsim.Constant(netsim.Gbps(3)), Planner{Adapt: false, DefaultLevel: 1})
	res, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.TTFT <= 0 || res.TTFT > time.Second {
		t.Errorf("TTFT = %v, want (0, 1s]", res.TTFT)
	}
	if res.BytesSent != 4*28e6 {
		t.Errorf("BytesSent = %d", res.BytesSent)
	}
	if len(res.Decisions) != 4 {
		t.Errorf("decisions: %v", res.Decisions)
	}
	if !res.SLOMet {
		t.Error("SLO unset should always report met")
	}
}

func TestSimulateValidation(t *testing.T) {
	in := simInput(t, netsim.Constant(1e9), Planner{})
	in.Chunks = nil
	if _, err := Simulate(in); err == nil {
		t.Error("no chunks accepted")
	}
	in = simInput(t, netsim.Constant(1e9), Planner{})
	in.Link = nil
	if _, err := Simulate(in); err == nil {
		t.Error("nil link accepted")
	}
}

func TestSimulateTTFTDecreasesWithBandwidth(t *testing.T) {
	var prev time.Duration = 1 << 60
	for _, g := range []float64{0.5, 1, 3, 10, 50} {
		in := simInput(t, netsim.Constant(netsim.Gbps(g)), Planner{Adapt: false, DefaultLevel: 1})
		res, err := Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		if res.TTFT >= prev {
			t.Errorf("TTFT at %v Gbps (%v) not below %v", g, res.TTFT, prev)
		}
		prev = res.TTFT
	}
}

// TestSimulateFig7Adaptation replays the Fig 7 scenario: a ~1.2 GB stream
// under the 2→0.2→1 Gbps trace with a 4 s SLO. The context is long enough
// (16.5K tokens) that recomputing everything from text busts the SLO on
// its own, so the streamer must genuinely mix configurations. The adaptive
// run must beat the non-adaptive one and land near the SLO; the
// non-adaptive one must miss it badly.
func TestSimulateFig7Adaptation(t *testing.T) {
	meta := storage.ContextMeta{
		ContextID:   "fig7",
		Model:       "Mistral-7B",
		TokenCount:  16500,
		ChunkTokens: make([]int, 11),
		Levels:      4,
		SizesBytes:  make([][]int64, 4),
		TextBytes:   make([]int64, 11),
	}
	perChunk := []int64{180e6, 112e6, 72e6, 44e6}
	for lv := range meta.SizesBytes {
		meta.SizesBytes[lv] = make([]int64, 11)
		for i := range meta.SizesBytes[lv] {
			meta.SizesBytes[lv][i] = perChunk[lv]
		}
	}
	for i := range meta.ChunkTokens {
		meta.ChunkTokens[i] = 1500
		meta.TextBytes[i] = 6000
	}
	model := llm.Mistral7B()
	dev := llm.A40x4()
	chunks, err := BuildChunkInfos(meta, model, dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Precondition of the scenario: full text recompute alone misses the
	// 4 s SLO, so text is not a free lunch at t=0.
	var recompute time.Duration
	for _, ch := range chunks {
		recompute += ch.Recompute
	}
	if recompute <= 4*time.Second {
		t.Fatalf("scenario broken: full recompute %v fits the SLO", recompute)
	}

	run := func(adapt bool) *SimResult {
		in := SimInput{
			Chunks:      chunks,
			TotalTokens: meta.TokenCount,
			Link:        netsim.NewLink(netsim.Figure7Trace()),
			Planner: Planner{
				Adapt: adapt, SLO: 4 * time.Second, DefaultLevel: 1,
				PriorBandwidth: netsim.Gbps(2),
			},
			Model:  model,
			Device: dev,
		}
		res, err := Simulate(in)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	adaptive := run(true)
	static := run(false)
	if static.SLOMet {
		t.Errorf("non-adaptive run met the SLO (TTFT %v) — trace too easy", static.TTFT)
	}
	if adaptive.TTFT >= static.TTFT {
		t.Errorf("adaptation did not help: adaptive %v vs static %v", adaptive.TTFT, static.TTFT)
	}
	// §5.3: the reaction is delayed by at most one chunk, so the worst
	// case overshoot is one chunk sent at the pre-drop level through the
	// post-drop bandwidth (~3 s here for a 72 MB chunk at 0.2 Gbps).
	if adaptive.TTFT > 7*time.Second {
		t.Errorf("adaptive TTFT %v beyond SLO plus one-chunk reaction delay", adaptive.TTFT)
	}
	// The run must have mixed KV streaming with the text fallback
	// ("switch to KV compute", Fig 7).
	var sawLevel, sawText bool
	for _, d := range adaptive.Decisions {
		if d.Choice.Text {
			sawText = true
		} else {
			sawLevel = true
		}
	}
	if !sawLevel || !sawText {
		t.Errorf("expected mixed configurations, got %+v", adaptive.Decisions)
	}
}

func TestSimulateTextFallbackUnderStarvation(t *testing.T) {
	// At 0.05 Gbps even the smallest level (11 MB ⇒ 1.76 s/chunk) busts a
	// 2 s SLO for 4 chunks; text recompute (~1.3 s total) fits.
	in := simInput(t, netsim.Constant(netsim.Gbps(0.05)),
		Planner{Adapt: true, SLO: 2 * time.Second, DefaultLevel: 1, PriorBandwidth: netsim.Gbps(0.05)})
	res, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TextOnly() {
		t.Errorf("expected all-text fallback, got %+v", res.Decisions)
	}
	if !res.SLOMet {
		t.Errorf("text fallback missed SLO: %v", res.TTFT)
	}
}

func TestSimulatePipeliningHelps(t *testing.T) {
	slow := llm.A40x4()
	slow.DecodeBW = 2e8 // make decode substantial so overlap matters
	model := llm.Mistral7B()
	chunks, err := BuildChunkInfos(simMeta(), model, slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimInput{
		Chunks: chunks, TotalTokens: 6000,
		Link:    netsim.NewLink(netsim.Constant(netsim.Gbps(2))),
		Planner: Planner{Adapt: false, DefaultLevel: 1},
		Model:   model,
		Device:  slow,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial execution would take the sum of the parts; decode overlapping
	// the next chunk's transfer must come in under it.
	if serial := res.NetworkTime + res.ComputeTime + res.SuffixTime; res.TTFT >= serial {
		t.Errorf("pipelining did not help: TTFT %v vs serial sum %v", res.TTFT, serial)
	}
}

func TestSimulateShareSlowsCompute(t *testing.T) {
	in := simInput(t, netsim.Constant(netsim.Gbps(3)), Planner{Adapt: false, DefaultLevel: 1})
	full, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := simInput(t, netsim.Constant(netsim.Gbps(3)), Planner{Adapt: false, DefaultLevel: 1})
	in2.Share = 0.1
	shared, err := Simulate(in2)
	if err != nil {
		t.Fatal(err)
	}
	if shared.SuffixTime <= full.SuffixTime {
		t.Error("device sharing should slow the suffix prefill")
	}
}

func TestSimulateThroughputMeasurement(t *testing.T) {
	in := simInput(t, netsim.Constant(netsim.Gbps(2)), Planner{Adapt: false, DefaultLevel: 1})
	res, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Decisions {
		if d.Throughput < netsim.Gbps(1.9) || d.Throughput > netsim.Gbps(2.1) {
			t.Errorf("chunk %d measured %.2g bps, want ≈2 Gbps", d.Chunk, d.Throughput)
		}
	}
}
