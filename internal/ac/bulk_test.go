package ac

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// randomTable builds a table with a random shape: some symbols heavy,
// many rare, occasionally adversarial (all-equal, single-spike).
func randomTable(t testing.TB, rng *rand.Rand) *FreqTable {
	t.Helper()
	n := 2 + rng.Intn(512)
	counts := make([]uint64, n)
	switch rng.Intn(4) {
	case 0: // zipf-ish
		for i := range counts {
			counts[i] = uint64(rng.Intn(1000) * 1000 / (i + 1))
		}
	case 1: // uniform
		for i := range counts {
			counts[i] = 10
		}
	case 2: // single spike, everything else unobserved
		counts[rng.Intn(n)] = 1 << 30
	case 3: // random
		for i := range counts {
			counts[i] = uint64(rng.Intn(5000))
		}
	}
	m, err := NewFreqTable(counts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBulkEncodeMatchesScalar: EncodeSymbols/EncodeSymbolsMulti must emit
// byte-identical bitstreams to per-symbol Encode — the differential
// guarantee the codec's fused loops rely on.
func TestBulkEncodeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		tabs := make([]*FreqTable, 1+rng.Intn(4))
		for i := range tabs {
			tabs[i] = randomTable(t, rng)
		}
		nSyms := 1 + rng.Intn(400)
		perSym := make([]*FreqTable, nSyms)
		syms := make([]int, nSyms)
		for i := range syms {
			perSym[i] = tabs[rng.Intn(len(tabs))]
			syms[i] = rng.Intn(perSym[i].N())
		}

		scalar := NewEncoder()
		for i, s := range syms {
			if err := scalar.Encode(s, perSym[i]); err != nil {
				t.Fatal(err)
			}
		}
		want := scalar.Bytes()

		bulk := NewEncoder()
		if err := bulk.EncodeSymbolsMulti(perSym, syms); err != nil {
			t.Fatal(err)
		}
		if got := bulk.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: EncodeSymbolsMulti bitstream differs (%d vs %d bytes)", trial, len(got), len(want))
		}

		// Single-model variant against the same reference, one model.
		one := tabs[0]
		oneSyms := make([]int, nSyms)
		for i := range oneSyms {
			oneSyms[i] = rng.Intn(one.N())
		}
		ref := NewEncoder()
		for _, s := range oneSyms {
			if err := ref.Encode(s, one); err != nil {
				t.Fatal(err)
			}
		}
		single := NewEncoder()
		if err := single.EncodeSymbols(one, oneSyms); err != nil {
			t.Fatal(err)
		}
		if got, want := single.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: EncodeSymbols bitstream differs", trial)
		}
	}
}

// TestBulkDecodeMatchesScalar: the bulk decoders must produce the same
// symbols as per-symbol Decode over the same stream.
func TestBulkDecodeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		tabs := make([]*FreqTable, 1+rng.Intn(4))
		for i := range tabs {
			tabs[i] = randomTable(t, rng)
		}
		nSyms := 1 + rng.Intn(400)
		perSym := make([]*FreqTable, nSyms)
		syms := make([]int, nSyms)
		enc := NewEncoder()
		for i := range syms {
			perSym[i] = tabs[rng.Intn(len(tabs))]
			syms[i] = rng.Intn(perSym[i].N())
			if err := enc.Encode(syms[i], perSym[i]); err != nil {
				t.Fatal(err)
			}
		}
		data := enc.Bytes()

		scalar := NewDecoder(data)
		want := make([]int, nSyms)
		for i := range want {
			s, err := scalar.Decode(perSym[i])
			if err != nil {
				t.Fatal(err)
			}
			want[i] = s
		}

		got := decodeRowSymbols(NewDecoder(data), perSym)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: DecodeRows symbol %d = %d, scalar %d", trial, i, got[i], want[i])
			}
			if got[i] != syms[i] {
				t.Fatalf("trial %d: round trip lost symbol %d", trial, i)
			}
		}

		// Mixed bulk/scalar decoding of one stream must also agree: the
		// decoder state carries across API styles.
		mixed := NewDecoder(data)
		for i := 0; i < nSyms; {
			if rng.Intn(2) == 0 || i+3 > nSyms {
				s, err := mixed.Decode(perSym[i])
				if err != nil {
					t.Fatal(err)
				}
				if s != syms[i] {
					t.Fatalf("mixed decode diverged at %d", i)
				}
				i++
			} else {
				for k, s := range decodeRowSymbols(mixed, perSym[i:i+3]) {
					if s != syms[i+k] {
						t.Fatalf("mixed bulk decode diverged at %d", i+k)
					}
				}
				i += 3
			}
		}

		// Single-model variant against scalar Decode, one model.
		one := tabs[0]
		oneEnc := NewEncoder()
		oneSyms := make([]int, nSyms)
		for i := range oneSyms {
			oneSyms[i] = rng.Intn(one.N())
		}
		if err := oneEnc.EncodeSymbols(one, oneSyms); err != nil {
			t.Fatal(err)
		}
		single := make([]int, nSyms)
		if err := NewDecoder(oneEnc.Bytes()).DecodeSymbols(one, single); err != nil {
			t.Fatal(err)
		}
		for i, s := range single {
			if s != oneSyms[i] {
				t.Fatalf("trial %d: DecodeSymbols symbol %d = %d, want %d", trial, i, s, oneSyms[i])
			}
		}
	}
}

// TestSymbolForMatchesBinarySearch: the LUT-seeded forward scan must
// agree with the reference binary search over cum for every frequency.
func TestSymbolForMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		m := randomTable(t, rng)
		check := func(f uint32) {
			sym, start, size := m.symbolFor(f)
			ref := sort.Search(m.N(), func(i int) bool { return m.cum[i+1] > f })
			if sym != ref {
				t.Fatalf("trial %d: symbolFor(%d) = %d, binary search %d", trial, f, sym, ref)
			}
			if start != m.cum[sym] || size != m.cum[sym+1]-m.cum[sym] {
				t.Fatalf("trial %d: symbolFor(%d) interval (%d,%d) != cum", trial, f, start, size)
			}
		}
		// Every boundary and its neighbours, plus random probes.
		for i := 0; i <= m.N(); i++ {
			for _, d := range []int64{-1, 0, 1} {
				f := int64(m.cum[i]) + d
				if f >= 0 && f < int64(m.Total()) {
					check(uint32(f))
				}
			}
		}
		for i := 0; i < 500; i++ {
			check(uint32(rng.Intn(int(m.Total()))))
		}
	}
}

// TestDivByTotalExact: the precomputed reciprocal must reproduce n/total
// exactly for every table total and edge-case numerator.
func TestDivByTotalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	totals := []uint32{1, 2, 3, 5, 255, 256, 65535, 65536}
	for i := 0; i < 200; i++ {
		totals = append(totals, 1+uint32(rng.Intn(MaxTotal)))
	}
	ns := []uint32{0, 1, topValue - 1, topValue, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF}
	for i := 0; i < 500; i++ {
		ns = append(ns, rng.Uint32())
	}
	for _, total := range totals {
		mul := (uint64(1)<<48)/uint64(total) + 1
		for _, n := range ns {
			if got, want := divByTotal(n, mul), n/total; got != want {
				t.Fatalf("divByTotal(%d, total=%d) = %d, want %d", n, total, got, want)
			}
		}
	}
}

// TestEncoderResetReuse: a pooled encoder must produce the same bytes
// after Reset as a fresh one.
func TestEncoderResetReuse(t *testing.T) {
	m, err := NewFreqTable([]uint64{9, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	syms := []int{0, 1, 2, 3, 0, 0, 1, 2}
	fresh := NewEncoder()
	if err := fresh.EncodeSymbols(m, syms); err != nil {
		t.Fatal(err)
	}
	want := fresh.Bytes()

	reused := NewEncoder()
	if err := reused.EncodeSymbols(m, []int{3, 3, 3}); err != nil {
		t.Fatal(err)
	}
	reused.Bytes()
	reused.Reset()
	reused.Grow(64)
	if err := reused.EncodeSymbols(m, syms); err != nil {
		t.Fatal(err)
	}
	if got := reused.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("reset encoder produced %x, fresh %x", got, want)
	}

	// Decoder Reset mirrors NewDecoder.
	dec := new(Decoder)
	dec.Reset(want)
	got := make([]int, len(syms))
	if err := dec.DecodeSymbols(m, got); err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s != syms[i] {
			t.Fatalf("reset decoder symbol %d = %d, want %d", i, s, syms[i])
		}
	}
}

// TestBulkAPIValidation: length mismatches and out-of-range symbols must
// error without corrupting the coder state visible to the caller.
func TestBulkAPIValidation(t *testing.T) {
	m, err := NewFreqTable([]uint64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder()
	if err := enc.EncodeSymbolsMulti([]*FreqTable{m}, []int{0, 1}); err == nil {
		t.Error("EncodeSymbolsMulti accepted mismatched lengths")
	}
	if err := enc.EncodeSymbols(m, []int{5}); err == nil {
		t.Error("EncodeSymbols accepted out-of-range symbol")
	}
	if err := enc.EncodeSymbolsMulti([]*FreqTable{m}, []int{-1}); err == nil {
		t.Error("EncodeSymbolsMulti accepted negative symbol")
	}
}
