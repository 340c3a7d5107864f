package llm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// testConfig returns a small, fast model for unit tests.
func testConfig() Config {
	return Config{
		Name: "test", Layers: 6, KVChannels: 64, Channels: 16,
		Hidden: 256, Params: 1e8, Seed: 42,
	}
}

func randomTokens(rng *rand.Rand, n int) []Token {
	out := make([]Token, n)
	for i := range out {
		out[i] = Token(rng.Intn(VocabSize))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Name: "l0", Layers: 0, KVChannels: 4, Hidden: 4, Params: 1},
		{Name: "c0", Layers: 2, KVChannels: 0, Hidden: 4, Params: 1},
		{Name: "cbig", Layers: 2, KVChannels: 4, Channels: 8, Hidden: 4, Params: 1},
		{Name: "h0", Layers: 2, KVChannels: 4, Hidden: 0, Params: 1},
		{Name: "rho", Layers: 2, KVChannels: 4, Hidden: 4, Params: 1, RhoMin: 0.9, RhoMax: 0.5},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%s) accepted invalid config", cfg.Name)
		}
	}
	if _, err := New(testConfig()); err != nil {
		t.Errorf("New rejected valid config: %v", err)
	}
}

func TestPredefinedConfigsValid(t *testing.T) {
	for _, cfg := range AllModels() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Mistral-7B", "mistral-7b", "Llama-70B", "Llama-7B"} {
		cfg, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
		if cfg.Layers == 0 {
			t.Errorf("ByName(%q) returned empty config", name)
		}
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestMistral7BSizeMatchesTable1(t *testing.T) {
	// Table 1: an ~9.4K-token LongChat context on Mistral-7B has a 622 MB
	// KV cache at 8-bit quantization, i.e. ~1.23 GB in fp16.
	cfg := Mistral7B()
	bytes := cfg.KVBytesPerTokenFP16() * 9400
	gb := float64(bytes) / 1e9
	if gb < 1.1 || gb > 1.4 {
		t.Errorf("Mistral-7B 9.4K-token fp16 KV = %.2f GB, want ≈1.23", gb)
	}
}

func TestCalculateKVDeterministic(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(1))
	toks := randomTokens(rng, 100)
	a := m.CalculateKV(toks)
	b := m.CalculateKV(toks)
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 0 {
		t.Fatalf("CalculateKV not deterministic: diff=%v err=%v", d, err)
	}
}

func TestCalculateKVDependsOnContent(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(2))
	toks := randomTokens(rng, 50)
	a := m.CalculateKV(toks)
	toks2 := append([]Token{}, toks...)
	toks2[10] = (toks2[10] + 1) % VocabSize
	b := m.CalculateKV(toks2)
	d, err := a.MaxAbsDiff(b)
	if err != nil {
		t.Fatal(err)
	}
	if d == 0 {
		t.Error("changing a token did not change the KV cache")
	}
	// The change must not affect tokens before position 10 (causality).
	pre, _ := a.SliceTokens(0, 10)
	pre2, _ := b.SliceTokens(0, 10)
	d, _ = pre.MaxAbsDiff(pre2)
	if d != 0 {
		t.Error("KV of earlier tokens changed: process is not causal")
	}
}

func TestExtendKVMatchesFullComputation(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(3))
	toks := randomTokens(rng, 80)
	full := m.CalculateKV(toks)

	prefix := m.CalculateKV(toks[:50])
	ext, err := m.ExtendKV(prefix, 50, toks[50:])
	if err != nil {
		t.Fatal(err)
	}
	wantTail, _ := full.SliceTokens(50, 80)
	d, err := wantTail.MaxAbsDiff(ext)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("ExtendKV differs from full computation by %v", d)
	}
}

func TestExtendKVValidation(t *testing.T) {
	m := MustNew(testConfig())
	wrong := tensor.New(1, 2, 3)
	if _, err := m.ExtendKV(wrong, 2, []Token{1}); err == nil {
		t.Error("ExtendKV accepted mismatched cache shape")
	}
	// nil prev behaves like CalculateKV.
	got, err := m.ExtendKV(nil, 0, []Token{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := m.CalculateKV([]Token{1, 2, 3})
	d, _ := want.MaxAbsDiff(got)
	if d != 0 {
		t.Error("ExtendKV(nil) differs from CalculateKV")
	}
}

func TestEmptyContext(t *testing.T) {
	m := MustNew(testConfig())
	kv := m.CalculateKV(nil)
	if kv.Tokens != 0 {
		t.Errorf("empty context produced %d tokens", kv.Tokens)
	}
}

// TestInsight1TokenLocality verifies §5.1.1: deltas between consecutive
// tokens are 2.4–2.9× lower-variance than the original values (Fig 3).
func TestInsight1TokenLocality(t *testing.T) {
	// The window must be long relative to the slow component's correlation
	// length (~100 tokens) or the sample variance of the original values is
	// deflated; the paper measures on 9.2–9.6K-token contexts.
	cfg := testConfig()
	cfg.Channels = 32
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(4))
	toks := randomTokens(rng, 2000)
	kv := m.CalculateKV(toks)

	var ratioSum float64
	var n int
	for l := 0; l < cfg.Layers; l++ {
		for c := 0; c < cfg.Channels; c++ {
			var orig, delta []float64
			for tt := 0; tt < kv.Tokens; tt++ {
				orig = append(orig, float64(kv.At(tensor.Key, l, tt, c)))
			}
			for tt := 1; tt < kv.Tokens; tt++ {
				delta = append(delta, orig[tt]-orig[tt-1])
			}
			vo, vd := variance(orig), variance(delta)
			if vd > 0 {
				ratioSum += vo / vd
				n++
			}
		}
	}
	ratio := ratioSum / float64(n)
	if ratio < 2.0 || ratio > 3.5 {
		t.Errorf("original/delta variance ratio = %.2f, want ≈2.4–2.9 (paper Fig 3)", ratio)
	}
}

// TestInsight3ChannelGrouping verifies §5.1.3: per-channel value spread is
// much smaller than the pooled spread (grouping by channel is informative).
func TestInsight3ChannelGrouping(t *testing.T) {
	cfg := testConfig()
	cfg.Channels = 32
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(5))
	kv := m.CalculateKV(randomTokens(rng, 300))

	l := cfg.Layers - 1
	var pooled []float64
	var perChanVar float64
	for c := 0; c < cfg.Channels; c++ {
		var vals []float64
		for tt := 0; tt < kv.Tokens; tt++ {
			vals = append(vals, float64(kv.At(tensor.Value, l, tt, c)))
		}
		perChanVar += variance(vals)
		pooled = append(pooled, vals...)
	}
	perChanVar /= float64(cfg.Channels)
	if pooledVar := variance(pooled); perChanVar >= pooledVar {
		t.Errorf("per-channel variance %.3f not below pooled %.3f", perChanVar, pooledVar)
	}
}

func TestLayerScalesIncrease(t *testing.T) {
	m := MustNew(testConfig())
	if m.layerScale[0] >= m.layerScale[m.Config().Layers-1] {
		t.Error("layer scale should grow with depth")
	}
	if m.sigma[tensor.Key][0] <= 0 {
		t.Error("sigma must be positive")
	}
}

func TestKVErrorZeroAndMonotone(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(6))
	kv := m.CalculateKV(randomTokens(rng, 120))
	qp := DefaultQualityParams()

	e0, err := m.KVError(kv, kv, qp)
	if err != nil || e0 != 0 {
		t.Fatalf("identical caches: error=%v err=%v", e0, err)
	}

	var prev float64
	for _, noise := range []float64{0.05, 0.2, 0.8} {
		pert := kv.Clone()
		nr := rand.New(rand.NewSource(7))
		for i := range pert.K {
			pert.K[i] += float32(nr.NormFloat64() * noise)
			pert.V[i] += float32(nr.NormFloat64() * noise)
		}
		e, err := m.KVError(kv, pert, qp)
		if err != nil {
			t.Fatal(err)
		}
		if e <= prev {
			t.Errorf("KVError not monotone: %v after %v at noise %v", e, prev, noise)
		}
		prev = e
	}
}

// TestInsight2LayerSensitivity verifies §5.1.2 / Fig 4: the same absolute
// loss hurts more when applied to shallow layers.
func TestInsight2LayerSensitivity(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(8))
	kv := m.CalculateKV(randomTokens(rng, 120))
	qp := DefaultQualityParams()
	L := m.Config().Layers

	perturbLayers := func(lo, hi int) float64 {
		pert := kv.Clone()
		nr := rand.New(rand.NewSource(9))
		per := kv.Tokens * kv.Channels
		for l := lo; l < hi; l++ {
			base := l * per
			for i := base; i < base+per; i++ {
				pert.K[i] += float32(nr.NormFloat64() * 0.5)
				pert.V[i] += float32(nr.NormFloat64() * 0.5)
			}
		}
		e, err := m.KVError(kv, pert, qp)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	shallow := perturbLayers(0, L/3)
	deep := perturbLayers(L-L/3, L)
	if shallow <= deep {
		t.Errorf("shallow-layer loss (%v) should exceed deep-layer loss (%v)", shallow, deep)
	}
}

func TestTaskScore(t *testing.T) {
	qp := DefaultQualityParams()
	acc := Task{Name: "longchat", Metric: MetricAccuracy, Baseline: 0.9}
	if got := acc.Score(0, 0, qp); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("zero error should give baseline, got %v", got)
	}
	if acc.Score(1.0, 0, qp) >= acc.Score(0.1, 0, qp) {
		t.Error("accuracy should fall with error")
	}
	if acc.Score(0.2, 0.5, qp) >= acc.Score(0.2, 0, qp) {
		t.Error("accuracy should fall with dropped mass")
	}

	ppl := Task{Name: "wikitext", Metric: MetricPerplexity, Baseline: 6}
	if got := ppl.Score(0, 0, qp); math.Abs(got-6) > 1e-12 {
		t.Errorf("zero error perplexity = %v, want 6", got)
	}
	if ppl.Score(1.0, 0, qp) <= ppl.Score(0.1, 0, qp) {
		t.Error("perplexity should rise with error")
	}
	if !MetricPerplexity.LowerIsBetter() || MetricAccuracy.LowerIsBetter() {
		t.Error("LowerIsBetter misconfigured")
	}
}

func TestMetricString(t *testing.T) {
	if MetricAccuracy.String() == "" || MetricF1.String() == "" || MetricPerplexity.String() == "" {
		t.Error("empty metric name")
	}
	if Metric(99).String() == "" {
		t.Error("unknown metric should still render")
	}
}

func TestDropMass(t *testing.T) {
	imp := []float64{1, 2, 3, 4}
	keep := []bool{true, false, true, false}
	got, err := DropMass(imp, keep)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.6) > 1e-12 {
		t.Errorf("DropMass = %v, want 0.6", got)
	}
	if _, err := DropMass(imp, keep[:2]); err == nil {
		t.Error("DropMass accepted mismatched lengths")
	}
	zero, err := DropMass([]float64{0, 0}, []bool{false, false})
	if err != nil || zero != 0 {
		t.Errorf("zero-importance DropMass = %v, %v", zero, err)
	}
}

func TestImportanceHeavyTailed(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(10))
	imp := m.Importance(randomTokens(rng, 2000))
	var max, sum float64
	for _, x := range imp {
		if x <= 0 {
			t.Fatal("importance must be positive")
		}
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(len(imp))
	if max < 5*mean {
		t.Errorf("importance not heavy-tailed: max %v vs mean %v", max, mean)
	}
	// Deterministic.
	imp2 := m.Importance(randomTokens(rand.New(rand.NewSource(10)), 2000))
	for i := range imp {
		if imp[i] != imp2[i] {
			t.Fatal("importance not deterministic")
		}
	}
}

func TestPrefillCostModel(t *testing.T) {
	cfg := Mistral7B()
	dev := A40x4()
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}

	// Super-linear: doubling tokens more than doubles FLOPs.
	f1, f2 := cfg.PrefillFLOPs(8000), cfg.PrefillFLOPs(16000)
	if f2 <= 2*f1 {
		t.Errorf("prefill not super-linear: %g vs 2×%g", f2, f1)
	}

	// Calibration: ~9.4K-token Mistral-7B prefill ≈ 2 s (Fig 8c scale).
	tt := cfg.PrefillTime(9400, dev, 1).Seconds()
	if tt < 1.0 || tt > 4.0 {
		t.Errorf("Mistral-7B 9.4K prefill = %.2fs, want ≈2s", tt)
	}

	// Sharing the device slows prefill proportionally.
	half := cfg.PrefillTime(9400, dev, 0.5)
	if half <= cfg.PrefillTime(9400, dev, 1) {
		t.Error("halving device share should increase prefill time")
	}

	// Marginal prefill of a suffix is cheaper than full prefill.
	marg := cfg.MarginalPrefillTime(9000, 400, dev, 1)
	full := cfg.PrefillTime(9400, dev, 1)
	if marg >= full {
		t.Error("marginal prefill should be below full prefill")
	}
	if cfg.PrefillTime(0, dev, 1) != 0 || cfg.MarginalPrefillTime(5, 0, dev, 1) != 0 {
		t.Error("zero-token prefill should take zero time")
	}

	// Invalid share falls back to full device.
	if cfg.PrefillTime(100, dev, -1) != cfg.PrefillTime(100, dev, 1) {
		t.Error("invalid share not normalised")
	}
}

func TestDeviceTimes(t *testing.T) {
	dev := A40x4()
	if dev.DequantTime(0) != 0 || dev.DecodeTime(-5) != 0 {
		t.Error("non-positive sizes should cost zero time")
	}
	if dev.DequantTime(1<<30) <= 0 || dev.DecodeTime(1<<30) <= 0 {
		t.Error("positive sizes should cost positive time")
	}
	bad := Device{Name: "bad"}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted zero-throughput device")
	}
}

func TestGenerateWithKV(t *testing.T) {
	m := MustNew(testConfig())
	rng := rand.New(rand.NewSource(11))
	toks := randomTokens(rng, 60)
	kv := m.CalculateKV(toks)
	qp := DefaultQualityParams()

	res, err := m.GenerateWithKV(toks, kv, "What was the first topic?", qp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != 1 || !res.Correct || res.Error != 0 {
		t.Errorf("exact KV should answer perfectly: %+v", res)
	}

	// Heavily corrupted cache: low quality.
	bad := kv.Clone()
	nr := rand.New(rand.NewSource(12))
	for i := range bad.K {
		bad.K[i] += float32(nr.NormFloat64() * 5)
	}
	res2, err := m.GenerateWithKV(toks, bad, "What was the first topic?", qp)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Quality >= res.Quality {
		t.Error("corrupted cache should lose quality")
	}

	// Deterministic across calls.
	res3, _ := m.GenerateWithKV(toks, bad, "What was the first topic?", qp)
	if res2 != res3 {
		t.Error("GenerateWithKV not deterministic")
	}

	if _, err := m.GenerateWithKV(toks, nil, "q", qp); err == nil {
		t.Error("nil cache accepted")
	}
	short, _ := kv.SliceTokens(0, 10)
	if _, err := m.GenerateWithKV(toks, short, "q", qp); err == nil {
		t.Error("mismatched cache length accepted")
	}
}

func TestChannelScale(t *testing.T) {
	cfg := Mistral7B().WithChannels(64)
	if got := cfg.ChannelScale(); math.Abs(got-16) > 1e-12 {
		t.Errorf("ChannelScale = %v, want 16", got)
	}
	if Mistral7B().ChannelScale() != 1 {
		t.Error("full config should have scale 1")
	}
}

func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var v float64
	for _, x := range xs {
		d := x - mean
		v += d * d
	}
	return v / float64(len(xs))
}

func BenchmarkCalculateKV(b *testing.B) {
	cfg := Mistral7B().WithChannels(64)
	m := MustNew(cfg)
	rng := rand.New(rand.NewSource(1))
	toks := randomTokens(rng, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.CalculateKV(toks)
	}
}
