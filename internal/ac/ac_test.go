package ac

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

// roundTrip encodes syms under model m and decodes them back.
func roundTrip(t *testing.T, syms []int, m *FreqTable) []int {
	t.Helper()
	enc := NewEncoder()
	for _, s := range syms {
		if err := enc.Encode(s, m); err != nil {
			t.Fatalf("Encode(%d): %v", s, err)
		}
	}
	data := enc.Bytes()
	dec := NewDecoder(data)
	out := make([]int, len(syms))
	for i := range out {
		s, err := dec.Decode(m)
		if err != nil {
			t.Fatalf("Decode at %d: %v", i, err)
		}
		out[i] = s
	}
	return out
}

func TestRoundTripUniform(t *testing.T) {
	m, err := UniformTable(256)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 10000)
	for i := range syms {
		syms[i] = rng.Intn(256)
	}
	got := roundTrip(t, syms, m)
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

func TestRoundTripSkewed(t *testing.T) {
	// Geometric-ish distribution over a small alphabet.
	counts := []uint64{100000, 30000, 9000, 2700, 800, 240, 72, 20, 6, 2}
	m, err := NewFreqTable(counts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	syms := make([]int, 50000)
	for i := range syms {
		// Sample from the same skewed distribution.
		r := rng.Float64()
		cum := 0.0
		for s := range counts {
			cum += m.Prob(s)
			if r < cum || s == len(counts)-1 {
				syms[i] = s
				break
			}
		}
	}
	got := roundTrip(t, syms, m)
	for i := range syms {
		if got[i] != syms[i] {
			t.Fatalf("mismatch at %d: got %d want %d", i, got[i], syms[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(512)
		counts := make([]uint64, n)
		for i := range counts {
			if rng.Intn(3) > 0 { // leave some zero counts
				counts[i] = uint64(rng.Intn(10000))
			}
		}
		m, err := NewFreqTable(counts)
		if err != nil {
			return false
		}
		syms := make([]int, 1+rng.Intn(2000))
		for i := range syms {
			syms[i] = rng.Intn(n) // include zero-count symbols
		}
		enc := NewEncoder()
		for _, s := range syms {
			if err := enc.Encode(s, m); err != nil {
				return false
			}
		}
		dec := NewDecoder(enc.Bytes())
		for _, want := range syms {
			got, err := dec.Decode(m)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmptyStream(t *testing.T) {
	enc := NewEncoder()
	data := enc.Bytes()
	if len(data) > 5 {
		t.Errorf("empty stream is %d bytes", len(data))
	}
}

func TestCompressionApproachesEntropy(t *testing.T) {
	// A heavily skewed source must compress well below 8 bits/symbol and
	// within a few percent of its entropy.
	counts := []uint64{0, 0, 0, 0} // placeholder
	counts = make([]uint64, 64)
	for i := range counts {
		counts[i] = uint64(1000000 / (1 << uint(min(i, 18))))
	}
	m, err := NewFreqTable(counts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	nSyms := 200000
	enc := NewEncoder()
	var idealBits float64
	for i := 0; i < nSyms; i++ {
		// Sample via inverse CDF on the normalised model itself.
		r := rng.Float64()
		cum := 0.0
		s := 0
		for ; s < m.N()-1; s++ {
			cum += m.Prob(s)
			if r < cum {
				break
			}
		}
		idealBits += m.Bits(s)
		if err := enc.Encode(s, m); err != nil {
			t.Fatal(err)
		}
	}
	got := float64(len(enc.Bytes())) * 8
	if got > idealBits*1.02+64 {
		t.Errorf("compressed to %.0f bits, ideal %.0f bits (overhead %.2f%%)",
			got, idealBits, 100*(got-idealBits)/idealBits)
	}
	if got < idealBits*0.98 {
		t.Errorf("compressed below entropy: %.0f bits vs ideal %.0f", got, idealBits)
	}
}

func TestEncodeRejectsOutOfRangeSymbol(t *testing.T) {
	m, err := UniformTable(4)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder()
	if err := enc.Encode(4, m); err == nil {
		t.Error("Encode accepted out-of-range symbol")
	}
	if err := enc.Encode(-1, m); err == nil {
		t.Error("Encode accepted negative symbol")
	}
}

func TestDecodeGarbageDoesNotPanic(t *testing.T) {
	m, err := NewFreqTable([]uint64{10, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		dec := NewDecoder(data)
		for i := 0; i < 50; i++ {
			if _, err := dec.Decode(m); err != nil {
				break // errors are fine; panics are not
			}
		}
	}
}

func TestFreqTableValidation(t *testing.T) {
	if _, err := NewFreqTable(nil); err == nil {
		t.Error("NewFreqTable accepted empty alphabet")
	}
	if _, err := NewFreqTable(make([]uint64, MaxTotal)); err == nil {
		t.Error("NewFreqTable accepted oversized alphabet")
	}
}

// TestFreqTablesMatchNewFreqTable: a table built or unmarshalled in a set,
// concurrently with its neighbours, is the table NewFreqTable builds from
// the same counts; a set rejects counts and bytes over another alphabet.
func TestFreqTablesMatchNewFreqTable(t *testing.T) {
	const n, count = 9, 16
	rng := rand.New(rand.NewSource(3))
	counts := make([][]uint64, count)
	for i := range counts {
		counts[i] = make([]uint64, n)
		for s := range counts[i] {
			counts[i][s] = uint64(rng.Intn(3)) * uint64(rng.Intn(1<<uint(rng.Intn(20))))
		}
	}
	built, err := NewFreqTables(count, n)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewFreqTables(count, n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want, err := NewFreqTable(counts[i])
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := want.MarshalBinary()
			if err := built.Build(i, counts[i]); err != nil {
				t.Error(err)
			}
			if err := loaded.Unmarshal(i, data); err != nil {
				t.Error(err)
			}
			for _, got := range []*FreqTable{built.Table(i), loaded.Table(i)} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("table %d: set table differs from NewFreqTable's", i)
				}
			}
		}()
	}
	wg.Wait()
	if err := built.Build(0, make([]uint64, n+1)); err == nil {
		t.Error("Build accepted counts over another alphabet")
	}
	wide, _ := UniformTable(n + 1)
	data, _ := wide.MarshalBinary()
	if err := loaded.Unmarshal(0, data); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Unmarshal of a %d-symbol table into a %d-symbol set: %v", n+1, n, err)
	}
}

func TestProbAndBits(t *testing.T) {
	m, err := NewFreqTable([]uint64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := m.Prob(0), m.Prob(1)
	if math.Abs(p0+p1-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", p0+p1)
	}
	if p0 <= p1 {
		t.Errorf("p0=%v should exceed p1=%v", p0, p1)
	}
	if m.Prob(-1) != 0 || m.Prob(2) != 0 {
		t.Error("out-of-range Prob should be 0")
	}
	if !math.IsInf(m.Bits(5), 1) {
		t.Error("Bits of impossible symbol should be +Inf")
	}
}

func TestFreqTableMarshalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		counts := make([]uint64, 1+rng.Intn(300))
		for i := range counts {
			counts[i] = uint64(rng.Intn(5000))
		}
		m, err := NewFreqTable(counts)
		if err != nil {
			return false
		}
		data, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var got FreqTable
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		if got.N() != m.N() || got.Total() != m.Total() {
			return false
		}
		for s := 0; s < m.N(); s++ {
			if got.Prob(s) != m.Prob(s) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	var m FreqTable
	if err := m.UnmarshalBinary(nil); err == nil {
		t.Error("UnmarshalBinary accepted empty input")
	}
	if err := m.UnmarshalBinary([]byte{0x05, 0x01}); err == nil {
		t.Error("UnmarshalBinary accepted truncated table")
	}
	if err := m.UnmarshalBinary([]byte{0x00}); err == nil {
		t.Error("UnmarshalBinary accepted zero alphabet")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for i := 0; i < 8; i++ {
		h.Observe(0)
	}
	for i := 0; i < 8; i++ {
		h.Observe(1)
	}
	h.Observe(-5) // clamps to 0
	h.Observe(99) // clamps to 3
	if h.Count() != 18 {
		t.Errorf("Count = %d, want 18", h.Count())
	}
	if e := h.Entropy(); e <= 0 || e > 2 {
		t.Errorf("entropy %v out of expected range", e)
	}
	if _, err := h.Table(); err != nil {
		t.Errorf("Table: %v", err)
	}
	empty := NewHistogram(4)
	if empty.Entropy() != 0 {
		t.Error("empty histogram entropy should be 0")
	}
}

func TestHistogramEntropyUniform(t *testing.T) {
	h := NewHistogram(8)
	for s := 0; s < 8; s++ {
		for i := 0; i < 100; i++ {
			h.Observe(s)
		}
	}
	if e := h.Entropy(); math.Abs(e-3) > 1e-9 {
		t.Errorf("uniform-8 entropy = %v, want 3", e)
	}
}

func TestMultipleModelsInterleaved(t *testing.T) {
	// The codec interleaves models (per layer/channel) on one stream; the
	// decoder must stay in sync when using the same model sequence.
	m1, _ := NewFreqTable([]uint64{50, 10, 5, 1})
	m2, _ := NewFreqTable([]uint64{1, 1, 100})
	rng := rand.New(rand.NewSource(11))
	type step struct {
		m   *FreqTable
		sym int
	}
	steps := make([]step, 5000)
	enc := NewEncoder()
	for i := range steps {
		m := m1
		if i%2 == 1 {
			m = m2
		}
		s := rng.Intn(m.N())
		steps[i] = step{m, s}
		if err := enc.Encode(s, m); err != nil {
			t.Fatal(err)
		}
	}
	dec := NewDecoder(enc.Bytes())
	for i, st := range steps {
		got, err := dec.Decode(st.m)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got != st.sym {
			t.Fatalf("step %d: got %d want %d", i, got, st.sym)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	m, _ := NewFreqTable([]uint64{1000, 500, 250, 125, 60, 30, 15, 8, 4, 2, 1})
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 1<<14)
	for i := range syms {
		syms[i] = rng.Intn(m.N())
	}
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := NewEncoder()
		for _, s := range syms {
			if err := enc.Encode(s, m); err != nil {
				b.Fatal(err)
			}
		}
		_ = enc.Bytes()
	}
}

func BenchmarkDecode(b *testing.B) {
	m, _ := NewFreqTable([]uint64{1000, 500, 250, 125, 60, 30, 15, 8, 4, 2, 1})
	rng := rand.New(rand.NewSource(1))
	syms := make([]int, 1<<14)
	enc := NewEncoder()
	for i := range syms {
		syms[i] = rng.Intn(m.N())
		if err := enc.Encode(syms[i], m); err != nil {
			b.Fatal(err)
		}
	}
	data := enc.Bytes()
	b.SetBytes(int64(len(syms)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := NewDecoder(data)
		for range syms {
			if _, err := dec.Decode(m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
