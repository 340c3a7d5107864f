package ac

import (
	"math/rand"
	"testing"
)

// rowsCase is one DecodeRows call checked against scalar Decode: the
// streams' bytes, the row models, and the per-symbol value mapping.
type rowsCase struct {
	tabs    []*FreqTable
	vals    []float32
	scale   []float32 // nil or len(tabs)
	base    []float32 // nil or len(tabs), shared by every stream
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
		rs[k] = RowStream{Dec: &decs[k], Dst: make([]float32, c.rows*width), Base: c.base}
	}
	DecodeRows(c.tabs, c.vals, c.scale, rs)
	for k, data := range c.streams {
		ref := NewDecoder(data)
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
			if c.base != nil {
				want += c.base[ch]
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

// TestDecodeRowsMatchesScalar: random tables, every stream count the
// kernel splits differently (1–4 and the 4+2+1 tail shapes), valid
// streams of real symbols plus truncated and empty ones, with and without
// the scale and base terms.
func TestDecodeRowsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(40)
		pool := make([]*FreqTable, 1+rng.Intn(4))
		maxN := 0
		for i := range pool {
			pool[i] = randomTable(t, rng)
			maxN = max(maxN, pool[i].N())
		}
		c := rowsCase{tabs: make([]*FreqTable, width), vals: symbolVals(maxN), rows: rng.Intn(12)}
		for i := range c.tabs {
			c.tabs[i] = pool[rng.Intn(len(pool))]
		}
		if rng.Intn(2) == 0 {
			c.scale = make([]float32, width)
			for i := range c.scale {
				c.scale[i] = float32(rng.NormFloat64())
			}
		}
		if rng.Intn(2) == 0 {
			c.base = make([]float32, width)
			for i := range c.base {
				c.base[i] = float32(rng.NormFloat64())
			}
		}
		for k := 1 + rng.Intn(11); k > 0; k-- {
			enc := NewEncoder()
			for i := 0; i < c.rows*width; i++ {
				m := c.tabs[i%width]
				if err := enc.Encode(rng.Intn(m.N()), m); err != nil {
					t.Fatal(err)
				}
			}
			data := enc.Bytes()
			switch rng.Intn(6) {
			case 0:
				data = data[:rng.Intn(len(data)+1)]
			case 1:
				data = nil
			}
			c.streams = append(c.streams, data)
		}
		checkRows(t, c)
	}
}
