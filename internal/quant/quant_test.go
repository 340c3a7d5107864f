package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewUniformValidation(t *testing.T) {
	for _, bin := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewUniform(bin, 100); err == nil {
			t.Errorf("NewUniform(%v) accepted invalid bin", bin)
		}
	}
	if _, err := NewUniform(1, 0); err == nil {
		t.Error("NewUniform accepted zero clamp")
	}
	if _, err := NewUniform(0.5, 128); err != nil {
		t.Errorf("NewUniform rejected valid args: %v", err)
	}
}

func TestUniformRoundTripError(t *testing.T) {
	// Property: |x - Dequantize(Quantize(x))| ≤ Bin/2 for unclamped values.
	u, err := NewUniform(0.5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.Abs(float64(x)) > 1e5 {
			return true // outside the domain of interest
		}
		q := u.Quantize(x)
		back := u.Dequantize(q)
		return math.Abs(float64(back)-float64(x)) <= u.Bin/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUniformClamping(t *testing.T) {
	u, _ := NewUniform(1.0, 10)
	if q := u.Quantize(100); q != 10 {
		t.Errorf("Quantize(100) = %d, want clamp 10", q)
	}
	if q := u.Quantize(-100); q != -10 {
		t.Errorf("Quantize(-100) = %d, want clamp -10", q)
	}
}

func TestUniformSymbolMapping(t *testing.T) {
	u, _ := NewUniform(1.0, 5)
	if u.Levels() != 11 {
		t.Errorf("Levels = %d, want 11", u.Levels())
	}
	for q := int32(-5); q <= 5; q++ {
		sym := u.SymbolOf(q)
		if sym < 0 || sym >= u.Levels() {
			t.Errorf("symbol %d out of range for q=%d", sym, q)
		}
		if u.ValueOf(sym) != q {
			t.Errorf("ValueOf(SymbolOf(%d)) = %d", q, u.ValueOf(sym))
		}
	}
}

func TestUniformSmallerBinSmallerError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fine, _ := NewUniform(0.25, 1<<20)
	coarse, _ := NewUniform(2.0, 1<<20)
	var errFine, errCoarse float64
	for i := 0; i < 1000; i++ {
		x := float32(rng.NormFloat64() * 3)
		errFine += math.Abs(float64(fine.Dequantize(fine.Quantize(x)) - x))
		errCoarse += math.Abs(float64(coarse.Dequantize(coarse.Quantize(x)) - x))
	}
	if errFine >= errCoarse {
		t.Errorf("fine bin error %v should be below coarse %v", errFine, errCoarse)
	}
}

func TestNewVectorwiseValidation(t *testing.T) {
	for _, bits := range []int{0, 1, 17, -3} {
		if _, err := NewVectorwise(bits); err == nil {
			t.Errorf("NewVectorwise(%d) accepted invalid bits", bits)
		}
	}
	v, err := NewVectorwise(8)
	if err != nil {
		t.Fatal(err)
	}
	if v.MaxQ() != 127 {
		t.Errorf("MaxQ = %d, want 127", v.MaxQ())
	}
	if v.Levels() != 255 {
		t.Errorf("Levels = %d, want 255", v.Levels())
	}
}

func TestVectorwiseRoundTripError(t *testing.T) {
	// Property: relative error bounded by scale/2 = maxAbs/(2·MaxQ).
	v, _ := NewVectorwise(8)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = float32(rng.NormFloat64() * 10)
		}
		qs := make([]int32, n)
		scale := v.Quantize(vec, qs)
		out := make([]float32, n)
		v.Dequantize(qs, scale, out)
		for i := range vec {
			if math.Abs(float64(out[i]-vec[i])) > float64(scale)/2+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVectorwiseZeroVector(t *testing.T) {
	v, _ := NewVectorwise(4)
	vec := make([]float32, 8)
	qs := make([]int32, 8)
	if scale := v.Quantize(vec, qs); scale != 0 {
		t.Errorf("zero vector scale = %v", scale)
	}
	for _, q := range qs {
		if q != 0 {
			t.Error("zero vector should quantize to zeros")
		}
	}
	out := make([]float32, 8)
	v.Dequantize(qs, 0, out)
	for _, x := range out {
		if x != 0 {
			t.Error("zero scale should dequantize to zeros")
		}
	}
}

func TestVectorwiseWithFixedScale(t *testing.T) {
	v, _ := NewVectorwise(8)
	vec := []float32{1, -2, 3.5, 0}
	qs := make([]int32, 4)
	v.QuantizeWithScale(vec, 0.05, qs)
	out := make([]float32, 4)
	v.Dequantize(qs, 0.05, out)
	for i := range vec {
		want := float64(vec[i])
		if math.Abs(want) > 0.05*127 {
			want = math.Copysign(0.05*127, want) // clamped
		}
		if math.Abs(float64(out[i])-want) > 0.025+1e-6 {
			t.Errorf("elem %d: got %v want ≈%v", i, out[i], want)
		}
	}
	// Zero scale must not divide by zero.
	v.QuantizeWithScale(vec, 0, qs)
	for _, q := range qs {
		if q != 0 {
			t.Error("zero fixed scale should quantize to zeros")
		}
	}
}

func TestVectorwiseSymbolMapping(t *testing.T) {
	v, _ := NewVectorwise(4)
	for q := -v.MaxQ(); q <= v.MaxQ(); q++ {
		sym := v.SymbolOf(q)
		if sym < 0 || sym >= v.Levels() {
			t.Errorf("symbol %d out of range for q=%d", sym, q)
		}
		if v.ValueOf(sym) != q {
			t.Errorf("ValueOf(SymbolOf(%d)) = %d", q, v.ValueOf(sym))
		}
	}
}

func TestVectorwiseMoreBitsLessError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vec := make([]float32, 256)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64())
	}
	var prev float64 = math.Inf(1)
	for _, bits := range []int{3, 4, 8} {
		v, _ := NewVectorwise(bits)
		qs := make([]int32, len(vec))
		scale := v.Quantize(vec, qs)
		out := make([]float32, len(vec))
		v.Dequantize(qs, scale, out)
		var sum float64
		for i := range vec {
			d := float64(out[i] - vec[i])
			sum += d * d
		}
		if sum >= prev {
			t.Errorf("%d-bit error %v not below previous %v", bits, sum, prev)
		}
		prev = sum
	}
}

func TestLayerGroupBins(t *testing.T) {
	b := DefaultLayerBins()
	if b.Bins != [3]float64{0.5, 1.0, 1.5} {
		t.Errorf("default bins = %v", b.Bins)
	}
	// 32 layers: groups are [0,10], [11,21], [22,31] by integer division.
	layers := 32
	var groups [3]int
	prevGroup := -1
	for l := 0; l < layers; l++ {
		g := b.GroupOf(l, layers)
		if g < prevGroup {
			t.Errorf("group decreased at layer %d", l)
		}
		prevGroup = g
		groups[g]++
	}
	for g, n := range groups {
		if n < layers/3-1 || n > layers/3+1 {
			t.Errorf("group %d has %d layers, want ≈%d", g, n, layers/3)
		}
	}
	if b.BinFor(0, layers) >= b.BinFor(layers-1, layers) {
		t.Error("shallow layers must get smaller bins than deep layers")
	}
	if g := b.GroupOf(0, 0); g != 0 {
		t.Errorf("GroupOf with zero layers = %d", g)
	}
}

func TestLayerGroupBinsScaled(t *testing.T) {
	b := DefaultLayerBins().Scaled(2)
	if b.Bins != [3]float64{1, 2, 3} {
		t.Errorf("scaled bins = %v", b.Bins)
	}
}

func BenchmarkUniformQuantize(b *testing.B) {
	u, _ := NewUniform(0.5, 255)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float32, 4096)
	for i := range xs {
		xs[i] = float32(rng.NormFloat64() * 2)
	}
	b.SetBytes(int64(len(xs) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			_ = u.Quantize(x)
		}
	}
}

func BenchmarkVectorwiseQuantize(b *testing.B) {
	v, _ := NewVectorwise(8)
	rng := rand.New(rand.NewSource(1))
	vec := make([]float32, 4096)
	for i := range vec {
		vec[i] = float32(rng.NormFloat64())
	}
	qs := make([]int32, len(vec))
	b.SetBytes(int64(len(vec) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Quantize(vec, qs)
	}
}

// TestUniformRowMatchesScalar: the fused row quantizer must reproduce the
// scalar path bit for bit, with and without a delta base.
func TestUniformRowMatchesScalar(t *testing.T) {
	u, err := NewUniform(0.37, 127)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := 257
	row := make([]float32, n)
	base := make([]float32, n)
	for i := range row {
		row[i] = float32(rng.NormFloat64() * 40)
		base[i] = float32(rng.NormFloat64() * 40)
	}
	syms := make([]int, n)
	u.QuantizeRow(row, nil, syms)
	for i := range row {
		if want := u.SymbolOf(u.Quantize(row[i])); syms[i] != want {
			t.Fatalf("raw row sym %d = %d, scalar %d", i, syms[i], want)
		}
	}
	dst := make([]float32, n)
	u.DequantizeRow(syms, nil, dst)
	for i := range dst {
		if want := u.Dequantize(u.ValueOf(syms[i])); dst[i] != want {
			t.Fatalf("raw dequant %d = %v, scalar %v", i, dst[i], want)
		}
	}
	u.QuantizeRow(row, base, syms)
	for i := range row {
		if want := u.SymbolOf(u.Quantize(row[i] - base[i])); syms[i] != want {
			t.Fatalf("delta row sym %d = %d, scalar %d", i, syms[i], want)
		}
	}
	u.DequantizeRow(syms, base, dst)
	for i := range dst {
		if want := base[i] + u.Dequantize(u.ValueOf(syms[i])); dst[i] != want {
			t.Fatalf("delta dequant %d = %v, scalar %v", i, dst[i], want)
		}
	}
}

// TestVectorwiseRowMatchesScalar: the fused anchor-row quantizer must
// match per-channel QuantizeWithScale exactly, including zero scales.
func TestVectorwiseRowMatchesScalar(t *testing.T) {
	v, err := NewVectorwise(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	n := 129
	row := make([]float32, n)
	scales := make([]float32, n)
	for i := range row {
		row[i] = float32(rng.NormFloat64() * 5)
		scales[i] = float32(rng.Float64() * 0.2)
	}
	scales[0], scales[n/2] = 0, 0 // untrained channels quantize to zero

	syms := make([]int, n)
	recon := make([]float32, n)
	v.QuantizeRow(row, scales, Reciprocals(scales), syms, recon)
	q := make([]int32, 1)
	for i := range row {
		v.QuantizeWithScale(row[i:i+1], scales[i], q)
		if want := v.SymbolOf(q[0]); syms[i] != want {
			t.Fatalf("anchor sym %d = %d, scalar %d", i, syms[i], want)
		}
		if want := float32(q[0]) * scales[i]; recon[i] != want {
			t.Fatalf("anchor recon %d = %v, scalar %v", i, recon[i], want)
		}
	}
	dst := make([]float32, n)
	v.DequantizeRow(syms, scales, dst)
	for i := range dst {
		if want := float32(v.ValueOf(syms[i])) * scales[i]; dst[i] != want {
			t.Fatalf("anchor dequant %d = %v, scalar %v", i, dst[i], want)
		}
	}
}

// TestQuantizeSaturatesOutOfRange: inputs whose bin index lies past the
// int32 range saturate to the clamp with their own sign, ±Inf likewise,
// and NaN quantizes to 0 — in every quantizer, scalar and row form, on
// every architecture. (Converting to int32 before clamping gave MinInt32
// on amd64, so +1e30 and +Inf quantized to −Clamp there.)
func TestQuantizeSaturatesOutOfRange(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	u, err := NewUniform(0.375, 10)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVectorwise(8)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 0.05
	cases := []struct {
		name    string
		x       float32 // Uniform input
		anchor  float32 // Vectorwise input at scale
		wantDir int32   // −1, 0, +1: the clamp to expect
	}{
		{"+1e30", 1e30, 1e30, 1},
		{"-1e30", -1e30, -1e30, -1},
		{"+1e9", 1e9, 1e9, 1},
		{"-1e9", -1e9, -1e9, -1},
		{"+Inf", inf, inf, 1},
		{"-Inf", -inf, -inf, -1},
		{"NaN", nan, nan, 0},
		{"+(clamp+½)·bin", 10.5 * 0.375, 127.5 * scale, 1},
		{"-(clamp+½)·bin", -10.5 * 0.375, -127.5 * scale, -1},
	}
	for _, tc := range cases {
		wantU, wantV := tc.wantDir*u.Clamp, tc.wantDir*v.MaxQ()
		if q := u.Quantize(tc.x); q != wantU {
			t.Errorf("Uniform.Quantize(%s) = %d, want %d", tc.name, q, wantU)
		}
		syms := make([]int, 1)
		u.QuantizeRow([]float32{tc.x}, nil, syms)
		if syms[0] != u.SymbolOf(wantU) {
			t.Errorf("Uniform.QuantizeRow(%s) = symbol %d, want %d", tc.name, syms[0], u.SymbolOf(wantU))
		}
		// The delta form, against a zero base.
		u.QuantizeRow([]float32{tc.x}, []float32{0}, syms)
		if syms[0] != u.SymbolOf(wantU) {
			t.Errorf("Uniform.QuantizeRow(%s − 0) = symbol %d, want %d", tc.name, syms[0], u.SymbolOf(wantU))
		}

		qs := make([]int32, 1)
		v.QuantizeWithScale([]float32{tc.anchor}, scale, qs)
		if qs[0] != wantV {
			t.Errorf("Vectorwise.QuantizeWithScale(%s) = %d, want %d", tc.name, qs[0], wantV)
		}
		scales := []float32{scale}
		recon := make([]float32, 1)
		v.QuantizeRow([]float32{tc.anchor}, scales, Reciprocals(scales), syms, recon)
		if syms[0] != v.SymbolOf(wantV) || recon[0] != float32(wantV)*scale {
			t.Errorf("Vectorwise.QuantizeRow(%s) = symbol %d recon %v, want %d and %v",
				tc.name, syms[0], recon[0], v.SymbolOf(wantV), float32(wantV)*scale)
		}
	}
}
