package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomKV(rng *rand.Rand, layers, tokens, channels int) *KV {
	kv := New(layers, tokens, channels)
	for i := range kv.K {
		kv.K[i] = float32(rng.NormFloat64() * 3)
		kv.V[i] = float32(rng.NormFloat64() * 2)
	}
	return kv
}

func TestNewDimensions(t *testing.T) {
	kv := New(4, 7, 3)
	if kv.Elems() != 4*7*3 {
		t.Fatalf("Elems = %d, want %d", kv.Elems(), 4*7*3)
	}
	if len(kv.K) != kv.Elems() || len(kv.V) != kv.Elems() {
		t.Fatalf("backing slices have wrong length")
	}
	if kv.SizeBytesFP16() != int64(4*7*3*2*2) {
		t.Fatalf("SizeBytesFP16 = %d", kv.SizeBytesFP16())
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	kv := New(3, 5, 4)
	kv.Set(Key, 2, 4, 3, 1.5)
	kv.Set(Value, 1, 2, 0, -2.25)
	if got := kv.At(Key, 2, 4, 3); got != 1.5 {
		t.Errorf("At(Key,2,4,3) = %v, want 1.5", got)
	}
	if got := kv.At(Value, 1, 2, 0); got != -2.25 {
		t.Errorf("At(Value,1,2,0) = %v, want -2.25", got)
	}
	// No aliasing between K and V.
	if got := kv.At(Value, 2, 4, 3); got != 0 {
		t.Errorf("V aliases K: got %v", got)
	}
}

func TestRowIsAliased(t *testing.T) {
	kv := New(2, 3, 4)
	row := kv.Row(Key, 1, 2)
	row[3] = 42
	if got := kv.At(Key, 1, 2, 3); got != 42 {
		t.Errorf("Row mutation not visible: got %v", got)
	}
}

func TestSliceTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kv := randomKV(rng, 3, 10, 4)
	part, err := kv.SliceTokens(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if part.Tokens != 5 || part.Layers != 3 || part.Channels != 4 {
		t.Fatalf("bad slice shape (%d,%d,%d)", part.Layers, part.Tokens, part.Channels)
	}
	for l := 0; l < 3; l++ {
		for tt := 0; tt < 5; tt++ {
			for c := 0; c < 4; c++ {
				if part.At(Key, l, tt, c) != kv.At(Key, l, tt+2, c) {
					t.Fatalf("K mismatch at (%d,%d,%d)", l, tt, c)
				}
				if part.At(Value, l, tt, c) != kv.At(Value, l, tt+2, c) {
					t.Fatalf("V mismatch at (%d,%d,%d)", l, tt, c)
				}
			}
		}
	}
}

func TestSliceTokensOutOfRange(t *testing.T) {
	kv := New(1, 4, 1)
	cases := [][2]int{{-1, 2}, {0, 5}, {3, 2}}
	for _, c := range cases {
		if _, err := kv.SliceTokens(c[0], c[1]); err == nil {
			t.Errorf("SliceTokens(%d,%d) succeeded, want error", c[0], c[1])
		}
	}
}

func TestSliceTokensIsCopy(t *testing.T) {
	kv := New(1, 4, 2)
	part, err := kv.SliceTokens(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	part.Set(Key, 0, 0, 0, 99)
	if kv.At(Key, 0, 1, 0) == 99 {
		t.Error("SliceTokens aliases the source")
	}
}

func TestConcatInvertsSlice(t *testing.T) {
	// Property: concatenating token slices reconstructs the original.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + rng.Intn(4)
		tokens := 2 + rng.Intn(30)
		channels := 1 + rng.Intn(6)
		kv := randomKV(rng, layers, tokens, channels)

		cut := 1 + rng.Intn(tokens-1)
		a, err := kv.SliceTokens(0, cut)
		if err != nil {
			return false
		}
		b, err := kv.SliceTokens(cut, tokens)
		if err != nil {
			return false
		}
		whole, err := ConcatTokens(a, b)
		if err != nil {
			return false
		}
		d, err := kv.MaxAbsDiff(whole)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConcatShapeMismatch(t *testing.T) {
	a := New(2, 3, 4)
	b := New(2, 3, 5)
	if _, err := ConcatTokens(a, b); err == nil {
		t.Error("ConcatTokens accepted mismatched channels")
	}
	c := New(3, 3, 4)
	if _, err := ConcatTokens(a, c); err == nil {
		t.Error("ConcatTokens accepted mismatched layers")
	}
	if _, err := ConcatTokens(); err == nil {
		t.Error("ConcatTokens accepted zero parts")
	}
}

func TestDropTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kv := randomKV(rng, 2, 6, 3)
	keep := []bool{true, false, true, true, false, true}
	out, err := kv.DropTokens(keep)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tokens != 4 {
		t.Fatalf("kept %d tokens, want 4", out.Tokens)
	}
	wantIdx := []int{0, 2, 3, 5}
	for l := 0; l < 2; l++ {
		for i, src := range wantIdx {
			for c := 0; c < 3; c++ {
				if out.At(Key, l, i, c) != kv.At(Key, l, src, c) {
					t.Fatalf("dropped wrong token at l=%d i=%d", l, i)
				}
			}
		}
	}
}

func TestDropTokensBadMask(t *testing.T) {
	kv := New(1, 3, 1)
	if _, err := kv.DropTokens([]bool{true}); err == nil {
		t.Error("DropTokens accepted short mask")
	}
}

func TestDelta(t *testing.T) {
	kv := New(1, 3, 2)
	kv.Set(Key, 0, 0, 0, 1)
	kv.Set(Key, 0, 0, 1, 2)
	kv.Set(Key, 0, 2, 0, 4)
	kv.Set(Key, 0, 2, 1, -1)
	dst := make([]float32, 2)
	kv.Delta(Key, 0, 2, 0, dst)
	if dst[0] != 3 || dst[1] != -3 {
		t.Errorf("Delta = %v, want [3 -3]", dst)
	}
}

func TestLayerRMSEAndStd(t *testing.T) {
	kv := New(2, 2, 2)
	// Layer 0 all 1.0, layer 1 all 3.0.
	for _, kind := range Kinds {
		for tt := 0; tt < 2; tt++ {
			for c := 0; c < 2; c++ {
				kv.Set(kind, 0, tt, c, 1)
				kv.Set(kind, 1, tt, c, 3)
			}
		}
	}
	other := kv.Clone()
	// Perturb layer 1 of the copy by +2 everywhere.
	for _, kind := range Kinds {
		for tt := 0; tt < 2; tt++ {
			for c := 0; c < 2; c++ {
				other.Set(kind, 1, tt, c, 5)
			}
		}
	}
	rmse, err := kv.LayerRMSE(other)
	if err != nil {
		t.Fatal(err)
	}
	if rmse[0] != 0 {
		t.Errorf("layer 0 rmse = %v, want 0", rmse[0])
	}
	if math.Abs(rmse[1]-2) > 1e-9 {
		t.Errorf("layer 1 rmse = %v, want 2", rmse[1])
	}
	std := kv.LayerStd()
	if std[0] != 0 || std[1] != 0 {
		t.Errorf("constant layers should have zero std, got %v", std)
	}
}

func TestLayerRMSEShapeMismatch(t *testing.T) {
	a, b := New(1, 2, 2), New(1, 3, 2)
	if _, err := a.LayerRMSE(b); err == nil {
		t.Error("LayerRMSE accepted shape mismatch")
	}
	if _, err := a.MaxAbsDiff(b); err == nil {
		t.Error("MaxAbsDiff accepted shape mismatch")
	}
}

func TestCloneIndependent(t *testing.T) {
	kv := New(1, 1, 1)
	kv.Set(Key, 0, 0, 0, 5)
	c := kv.Clone()
	c.Set(Key, 0, 0, 0, 9)
	if kv.At(Key, 0, 0, 0) != 5 {
		t.Error("Clone aliases source")
	}
}

func TestKindString(t *testing.T) {
	if Key.String() != "K" || Value.String() != "V" {
		t.Errorf("Kind strings: %s %s", Key, Value)
	}
}

func BenchmarkSliceTokens(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	kv := randomKV(rng, 16, 1024, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kv.SliceTokens(100, 900); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCopyTokensAt(t *testing.T) {
	src := New(3, 7, 5)
	for i := range src.K {
		src.K[i] = float32(i)
		src.V[i] = -float32(i)
	}
	dst := New(3, 12, 5)
	if err := dst.CopyTokensAt(4, src, 2, 6); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 3; l++ {
		for dt := 0; dt < 12; dt++ {
			for c := 0; c < 5; c++ {
				var wantK, wantV float32
				if dt >= 4 && dt < 8 {
					st := dt - 4 + 2
					wantK = src.At(Key, l, st, c)
					wantV = src.At(Value, l, st, c)
				}
				if got := dst.At(Key, l, dt, c); got != wantK {
					t.Fatalf("K(%d,%d,%d) = %v, want %v", l, dt, c, got, wantK)
				}
				if got := dst.At(Value, l, dt, c); got != wantV {
					t.Fatalf("V(%d,%d,%d) = %v, want %v", l, dt, c, got, wantV)
				}
			}
		}
	}

	// Piecewise CopyTokensAt must equal ConcatTokens.
	a, b := New(2, 3, 4), New(2, 5, 4)
	rng := func(s []float32, base float32) {
		for i := range s {
			s[i] = base + float32(i)*0.5
		}
	}
	rng(a.K, 1)
	rng(a.V, 100)
	rng(b.K, 1000)
	rng(b.V, 10000)
	want, err := ConcatTokens(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := New(2, 8, 4)
	if err := got.CopyTokensAt(0, a, 0, a.Tokens); err != nil {
		t.Fatal(err)
	}
	if err := got.CopyTokensAt(a.Tokens, b, 0, b.Tokens); err != nil {
		t.Fatal(err)
	}
	if d, err := want.MaxAbsDiff(got); err != nil || d != 0 {
		t.Fatalf("piecewise copy differs from concat (diff %v, err %v)", d, err)
	}

	// Validation.
	if err := dst.CopyTokensAt(0, New(2, 3, 5), 0, 3); err == nil {
		t.Error("accepted layer mismatch")
	}
	if err := dst.CopyTokensAt(0, src, 3, 9); err == nil {
		t.Error("accepted out-of-range source slice")
	}
	if err := dst.CopyTokensAt(9, src, 0, 7); err == nil {
		t.Error("accepted overflowing destination range")
	}
	if err := dst.CopyTokensAt(-1, src, 0, 1); err == nil {
		t.Error("accepted negative destination offset")
	}
}
