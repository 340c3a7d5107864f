package ac

import (
	"math/rand"
	"testing"
)

// FuzzFreqTableUnmarshal: arbitrary bytes must never panic the table
// decoder.
func FuzzFreqTableUnmarshal(f *testing.F) {
	m, err := NewFreqTable([]uint64{10, 5, 1, 0, 3})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := m.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tb FreqTable
		if err := tb.UnmarshalBinary(data); err == nil {
			// A table that unmarshals must be internally consistent.
			if tb.N() <= 0 || tb.Total() == 0 || tb.Total() > MaxTotal {
				t.Fatalf("inconsistent table: n=%d total=%d", tb.N(), tb.Total())
			}
		}
	})
}

// FuzzDecoder: decoding arbitrary bytes against a fixed model must never
// panic and must terminate.
func FuzzDecoder(f *testing.F) {
	m, err := NewFreqTable([]uint64{100, 20, 5, 1})
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder()
	for _, s := range []int{0, 1, 2, 3, 0, 0, 1} {
		if err := enc.Encode(s, m); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(enc.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(data)
		for i := 0; i < 64; i++ {
			if _, err := dec.Decode(m); err != nil {
				return
			}
		}
	})
}

// FuzzDecodeSymbols: the bulk decode path must never panic, must
// terminate, and must agree symbol-for-symbol with scalar Decode on any
// input — including truncated and corrupt streams, which yield garbage
// symbols but identical garbage from both paths.
func FuzzDecodeSymbols(f *testing.F) {
	tabs := make([]*FreqTable, 3)
	for i, counts := range [][]uint64{
		{1000, 200, 50, 10, 2, 1, 1, 1},
		{1, 1, 1, 1},
		{5, 1 << 20, 5},
	} {
		m, err := NewFreqTable(counts)
		if err != nil {
			f.Fatal(err)
		}
		tabs[i] = m
	}
	// Seed corpus: a valid stream, its truncations, and corrupt bytes —
	// the shapes the live fetcher can hand the decoder before the chunk
	// CRC check catches them.
	enc := NewEncoder()
	for i := 0; i < 24; i++ {
		if err := enc.Encode(i%tabs[i%3].N(), tabs[i%3]); err != nil {
			f.Fatal(err)
		}
	}
	valid := enc.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:3])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/2] ^= 0x55
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		perSym := make([]*FreqTable, 64)
		for i := range perSym {
			perSym[i] = tabs[i%3]
		}
		got := decodeRowSymbols(NewDecoder(data), perSym)
		scalar := NewDecoder(data)
		for i := range perSym {
			s, err := scalar.Decode(perSym[i])
			if err != nil {
				t.Fatalf("scalar Decode failed at %d: %v", i, err)
			}
			if s != got[i] {
				t.Fatalf("bulk/scalar divergence at symbol %d: %d vs %d", i, got[i], s)
			}
			if s < 0 || s >= perSym[i].N() {
				t.Fatalf("out-of-alphabet symbol %d at %d", s, i)
			}
		}
		// The single-model bulk form, one table at a time.
		for _, m := range tabs {
			one := make([]int, 64)
			if err := NewDecoder(data).DecodeSymbols(m, one); err != nil {
				t.Fatalf("DecodeSymbols: %v", err)
			}
			ref := NewDecoder(data)
			for i, s := range one {
				if want, _ := ref.Decode(m); s != want {
					t.Fatalf("DecodeSymbols/scalar divergence at symbol %d: %d vs %d", i, s, want)
				}
			}
		}
	})
}

// FuzzDecodeRows: the lockstep kernel against scalar Decode on arbitrary
// bytes. The fuzzer picks the table shape (skewed, uniform, one dominant
// symbol, random, two symbols, 65,535 symbols — drawn from its seed), the
// value shape, the row width, the row count and the number of streams, and
// supplies the bytes the streams are cut from: stream k starts k·stride
// bytes in, so the streams of one call differ, overlap, run out at
// different symbols and include empty ones. A nonzero edge instead ends
// stream k one byte either side of the check-free budget of some row, so
// the call straddles the check-free and checked bodies. Every stored value
// and every stream's final (pos, code, rng) must match, and nothing may
// panic.
func FuzzDecodeRows(f *testing.F) {
	tab, err := NewFreqTable([]uint64{1000, 200, 50, 10, 2, 1, 1, 1})
	if err != nil {
		f.Fatal(err)
	}
	enc := NewEncoder()
	for i := 0; i < 200; i++ {
		if err := enc.Encode(i*i%tab.N(), tab); err != nil {
			f.Fatal(err)
		}
	}
	valid := enc.Bytes()
	corrupt := append([]byte{}, valid...)
	corrupt[len(corrupt)/3] ^= 0x10
	for streams := uint8(1); streams <= 7; streams++ {
		f.Add(valid, int64(streams), streams, uint8(8), uint8(3), uint8(0), uint8(0))
		f.Add(valid[:len(valid)/2], int64(streams), streams, uint8(5), uint8(9), uint8(7), uint8(0))
		f.Add(corrupt, int64(-streams), streams, uint8(33), uint8(2), uint8(1), uint8(0))
		f.Add([]byte{}, int64(streams)<<8, streams, uint8(1), uint8(1), uint8(0), uint8(0))
		f.Add(valid, int64(streams)*3, streams, uint8(6), uint8(12), uint8(2), 16*streams+1)
		f.Add(corrupt, int64(streams)*5+2, streams, uint8(31), uint8(4), uint8(3), 16*streams+2)
	}
	f.Fuzz(func(t *testing.T, data []byte, tableSeed int64, streams, width, rows, stride, edge uint8) {
		rng := rand.New(rand.NewSource(tableSeed))
		c := rowsCase{tabs: make([]*FreqTable, 1+int(width)%64), rows: int(rows) % 16}
		pool := []*FreqTable{rowsTable(t, rng), rowsTable(t, rng), rowsTable(t, rng)}
		maxN := 0
		for i := range c.tabs {
			c.tabs[i] = pool[rng.Intn(len(pool))]
			maxN = max(maxN, c.tabs[i].N())
		}
		c.vals = symbolVals(maxN)
		shapeRows(&c, int(uint64(tableSeed)%5), rng)
		for k := 0; k < 1+int(streams)%9; k++ {
			s := data[min(k*int(stride), len(data)):]
			if edge != 0 {
				r := (int(edge) + k) % (c.rows + 1)
				s = fitStream(s, budgetEdge(r, len(c.tabs))+(int(edge)>>4+k)%3-1)
			}
			c.streams = append(c.streams, s)
		}
		checkRows(t, c)
	})
}
