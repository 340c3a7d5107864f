package ac

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// rowsCase is one DecodeRows call checked against scalar Decode: the
// streams' bytes, the row models, and the per-symbol value mapping.
type rowsCase struct {
	tabs    []*FreqTable
	vals    []float32
	scale   []float32 // nil or len(tabs)
	base    []float32 // nil or len(tabs), shared by every stream
	oddBase bool      // base goes to odd-numbered streams only
	rows    int
	streams [][]byte
}

// checkRows runs DecodeRows over the case and asserts, per stream, every
// stored value and the final decoder state against per-symbol Decode.
func checkRows(t *testing.T, c rowsCase) {
	t.Helper()
	width := len(c.tabs)
	decs := make([]Decoder, len(c.streams))
	rs := make([]RowStream, len(c.streams))
	for k, data := range c.streams {
		decs[k].Reset(data)
		rs[k] = RowStream{Dec: &decs[k], Dst: make([]float32, c.rows*width), Base: c.streamBase(k)}
	}
	DecodeRows(c.tabs, c.vals, c.scale, rs)
	for k, data := range c.streams {
		ref := NewDecoder(data)
		base := c.streamBase(k)
		for i := 0; i < c.rows*width; i++ {
			ch := i % width
			sym, err := ref.Decode(c.tabs[ch])
			if err != nil {
				t.Fatalf("stream %d: scalar Decode failed at %d: %v", k, i, err)
			}
			want := c.vals[sym]
			if c.scale != nil {
				want = float32(want * c.scale[ch]) // rounded before the add, as the kernel does
			}
			if base != nil {
				want += base[ch]
			}
			if got := rs[k].Dst[i]; got != want {
				t.Fatalf("stream %d of %d, value %d: got %v, scalar symbol %d gives %v", k, len(c.streams), i, got, sym, want)
			}
		}
		if decs[k].pos != ref.pos || decs[k].code != ref.code || decs[k].rng != ref.rng {
			t.Fatalf("stream %d of %d: final state (pos %d, code %#x, rng %#x), scalar (%d, %#x, %#x)",
				k, len(c.streams), decs[k].pos, decs[k].code, decs[k].rng, ref.pos, ref.code, ref.rng)
		}
	}
}

func (c rowsCase) streamBase(k int) []float32 {
	if c.oddBase && k%2 == 0 {
		return nil
	}
	return c.base
}

// split reports whether the case's first lockstep group runs both bodies:
// some rows check-free, the rest checked.
func (c rowsCase) split() bool {
	w := min(len(c.streams), MaxRowStreams)
	if w == 3 {
		w = 2
	}
	s := make([]RowStream, w)
	for k := range s {
		s[k] = RowStream{Dec: NewDecoder(c.streams[k]), Dst: make([]float32, c.rows*len(c.tabs)), Base: c.streamBase(k)}
	}
	free := freeRows(len(c.tabs), s)
	return freeBody(c.scale, s) != nil && free > 0 && free < c.rows
}

// decodeRowSymbols decodes one row of len(tabs) symbols from dec through
// DecodeRows and returns the symbols themselves (an identity value table:
// float32 holds every alphabet index exactly).
func decodeRowSymbols(dec *Decoder, tabs []*FreqTable) []int {
	maxN := 0
	for _, m := range tabs {
		maxN = max(maxN, m.N())
	}
	vals := make([]float32, maxN)
	for s := range vals {
		vals[s] = float32(s)
	}
	row := make([]float32, len(tabs))
	DecodeRows(tabs, vals, nil, []RowStream{{Dec: dec, Dst: row}})
	syms := make([]int, len(row))
	for i, v := range row {
		syms[i] = int(v)
	}
	return syms
}

// symbolVals maps every symbol of an n-symbol alphabet to a distinct
// float32, so a wrong symbol cannot hide behind an equal value.
func symbolVals(n int) []float32 {
	vals := make([]float32, n)
	for s := range vals {
		vals[s] = float32(s) - 0.25
	}
	return vals
}

var (
	wideOnce  sync.Once
	wideTable *FreqTable
)

// rowsTable draws a row model: mostly randomTable's shapes, sometimes the
// alphabet extremes — two symbols, or the 65,535 of 16-bit anchors, whose
// uniform symbols cost the full two bytes the check-free budget allows.
func rowsTable(t testing.TB, rng *rand.Rand) *FreqTable {
	t.Helper()
	switch rng.Intn(8) {
	case 0:
		m, err := NewFreqTable([]uint64{uint64(rng.Intn(100)), uint64(rng.Intn(100))})
		if err != nil {
			t.Fatal(err)
		}
		return m
	case 1:
		wideOnce.Do(func() {
			var err error
			if wideTable, err = UniformTable(MaxTotal - 1); err != nil {
				panic(err)
			}
		})
		return wideTable
	}
	return randomTable(t, rng)
}

// shapeRows sets the case's value terms from shape: neither, both, the
// codec's anchor shape (scale only), its delta shape (base only), or a base
// on some streams only.
func shapeRows(c *rowsCase, shape int, rng *rand.Rand) {
	width := len(c.tabs)
	if shape == 1 || shape == 2 {
		c.scale = make([]float32, width)
		for i := range c.scale {
			c.scale[i] = float32(rng.NormFloat64())
		}
	}
	if shape == 1 || shape == 3 || shape == 4 {
		c.base = make([]float32, width)
		for i := range c.base {
			c.base[i] = float32(rng.NormFloat64())
		}
	}
	c.oddBase = shape == 4
}

// fitStream makes data exactly n bytes long: cut short, or extended with
// bytes drawn from itself so the padding is not all zeros.
func fitStream(data []byte, n int) []byte {
	if n <= len(data) {
		return data[:max(n, 0)]
	}
	out := append(make([]byte, 0, n), data...)
	for len(out) < n {
		out = append(out, byte(len(out)*131+len(data))^0x5a)
	}
	return out
}

// budgetEdge is the length at which a fresh stream holds the check-free
// bytes of exactly r rows of width symbols (Reset reads five): one byte
// less and it holds r-1.
func budgetEdge(r, width int) int { return 5 + 2*r*width + 2 }

// TestDecodeRowsMatchesScalar: random tables including the alphabet
// extremes, widths 1–64, every stream count the kernel splits differently
// (1–4 and the 4+2+1 tail shapes), every value shape, and streams of real
// symbols — whole, ending one byte either side of a row's check-free
// budget so the call straddles the check-free and checked bodies,
// truncated, corrupt or empty.
func TestDecodeRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	split := 0
	for trial := 0; trial < 400; trial++ {
		width := 1 + rng.Intn(64)
		pool := make([]*FreqTable, 1+rng.Intn(4))
		for i := range pool {
			pool[i] = rowsTable(t, rng)
		}
		c := rowsCase{tabs: make([]*FreqTable, width), rows: rng.Intn(12)}
		maxN := 0
		for i := range c.tabs {
			c.tabs[i] = pool[rng.Intn(len(pool))]
			maxN = max(maxN, c.tabs[i].N())
		}
		c.vals = symbolVals(maxN) // exactly as long as the largest alphabet
		shapeRows(&c, rng.Intn(5), rng)
		for k := 1 + rng.Intn(11); k > 0; k-- {
			enc := NewEncoder()
			for i := 0; i < c.rows*width; i++ {
				m := c.tabs[i%width]
				if err := enc.Encode(rng.Intn(m.N()), m); err != nil {
					t.Fatal(err)
				}
			}
			data := enc.Bytes()
			switch rng.Intn(8) {
			case 0:
				data = data[:rng.Intn(len(data)+1)]
			case 1:
				data = nil
			case 2:
				if len(data) > 0 {
					data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
				}
			case 3, 4, 5:
				data = fitStream(data, budgetEdge(rng.Intn(c.rows+1), width)+rng.Intn(3)-1)
			}
			c.streams = append(c.streams, data)
		}
		if c.split() {
			split++
		}
		checkRows(t, c)
	}
	if split < 40 {
		t.Errorf("only %d of 400 calls ran both bodies", split)
	}
}

// TestDecodeRowsGuard: a call the check-free bodies could read or write
// out of bounds on panics with a message before decoding anything.
func TestDecodeRowsGuard(t *testing.T) {
	small, err := UniformTable(3)
	if err != nil {
		t.Fatal(err)
	}
	big, err := UniformTable(300)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder()
	for i := 0; i < 64; i++ {
		if err := enc.Encode(i%3, small); err != nil {
			t.Fatal(err)
		}
	}
	data := fitStream(enc.Bytes(), 4096) // every row check-free
	tabs := []*FreqTable{small, big}
	for _, tc := range []struct {
		name, want string
		vals       []float32
		scale      []float32
		streams    func(dec *Decoder) []RowStream
	}{
		{"short vals", "299 values for a 300-symbol alphabet", symbolVals(299), []float32{1, 1},
			func(dec *Decoder) []RowStream { return []RowStream{{Dec: dec, Dst: make([]float32, 8)}} }},
		{"short scale", "1 scale factors for 2 tables", symbolVals(300), []float32{1},
			func(dec *Decoder) []RowStream { return []RowStream{{Dec: dec, Dst: make([]float32, 8)}} }},
		{"short base", "stream 0 has 1 base values for 2 tables", symbolVals(300), nil,
			func(dec *Decoder) []RowStream {
				return []RowStream{{Dec: dec, Dst: make([]float32, 8), Base: []float32{0}}}
			}},
		{"ragged dst", "stream 1 has 6 destination values, stream 0 has 8", symbolVals(300), []float32{1, 1},
			func(dec *Decoder) []RowStream {
				return []RowStream{{Dec: dec, Dst: make([]float32, 8)}, {Dec: NewDecoder(data), Dst: make([]float32, 6)}}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dec := NewDecoder(data)
			streams := tc.streams(dec)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.want) {
					t.Errorf("panic %q, want one mentioning %q", msg, tc.want)
				}
				if dec.pos != 5 {
					t.Errorf("decoder moved to %d before the guard fired", dec.pos)
				}
			}()
			DecodeRows(tabs, tc.vals, tc.scale, streams)
		})
	}
}

// rowsRig is the entropy-decode kernel alone: four streams of symbols
// drawn from delta-shaped models (a sharp peak at the zero delta, one
// model per channel), decoded in lockstep with the value mapping the codec
// uses.
type rowsRig struct {
	tabs    []*FreqTable
	vals    []float32
	base    []float32
	streams [MaxRowStreams][]byte
	dst     [MaxRowStreams][]float32
	decs    [MaxRowStreams]Decoder
	rs      [MaxRowStreams]RowStream
}

func newRowsRig(tb testing.TB) *rowsRig {
	tb.Helper()
	const width, rows, alphabet = 32, 256, 255
	r := &rowsRig{vals: make([]float32, alphabet), base: make([]float32, width)}
	for s := range r.vals {
		r.vals[s] = float32(s-alphabet/2) * 0.5
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
		tab, err := NewFreqTable(counts)
		if err != nil {
			tb.Fatal(err)
		}
		r.tabs = append(r.tabs, tab)
		cdfs[ch] = cdf
	}
	for k := range r.streams {
		enc := NewEncoder()
		for i := 0; i < rows*width; i++ {
			cdf := cdfs[i%width]
			sym := sort.SearchFloat64s(cdf, rng.Float64()*cdf[alphabet-1])
			if err := enc.Encode(min(sym, alphabet-1), r.tabs[i%width]); err != nil {
				tb.Fatal(err)
			}
		}
		r.streams[k] = enc.Bytes()
		r.dst[k] = make([]float32, rows*width)
	}
	return r
}

// decode decodes every stream from its start.
func (r *rowsRig) decode() {
	for k := range r.rs {
		r.decs[k].Reset(r.streams[k])
		r.rs[k] = RowStream{Dec: &r.decs[k], Dst: r.dst[k], Base: r.base}
	}
	DecodeRows(r.tabs, r.vals, nil, r.rs[:])
}

// TestDecodeRowsAllocs: the lockstep kernel allocates nothing; decoders,
// stream descriptors and destinations all belong to the caller.
func TestDecodeRowsAllocs(t *testing.T) {
	r := newRowsRig(t)
	if allocs := testing.AllocsPerRun(50, r.decode); allocs != 0 {
		t.Errorf("four-way DecodeRows: %v allocs per call, want 0", allocs)
	}
}

// BenchmarkDecodeRows4Way is the four-stream kernel; MB/s counts the
// float32 values stored.
func BenchmarkDecodeRows4Way(b *testing.B) {
	r := newRowsRig(b)
	b.SetBytes(int64(len(r.dst)) * int64(len(r.dst[0])) * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.decode()
	}
}
