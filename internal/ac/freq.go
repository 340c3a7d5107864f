package ac

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FreqTable is a static probability model over the symbol alphabet
// [0, N). CacheGen trains one table per (layer, channel-group) combination
// offline by counting quantized symbol frequencies (§5.2) and reuses the
// same tables for every KV cache produced by the same LLM.
//
// Internally the table stores cumulative frequencies normalised so the
// total stays ≤ MaxTotal while every symbol keeps a nonzero frequency
// (Laplace smoothing), which guarantees any in-range symbol is encodable.
type FreqTable struct {
	cum   []uint32 // len N+1; cum[0]=0, cum[N]=total
	total uint32

	// Decode-side lookup state. lut[f>>lutShift] is a hint: a symbol near
	// the one whose cumulative interval contains f. Decoders step back
	// from it while cum[s] > f, then scan forward while cum[s+1] ≤ f, over
	// next16, where next16[s] = cum[s+1]-1 (always representable:
	// cum[s+1] ∈ [1, 2^16]), so the two conditions read next16[s-1] ≥ f
	// and next16[s] < f. The hint of a bucket is the symbol that starts
	// the scanWindow-symbol window holding most of the bucket's frequency
	// mass, so nearly every lookup of a real stream ends inside that
	// window (no step back, at most scanWindow-1 forward) even in the two
	// outermost buckets, where a trained table's long run of never-seen
	// symbols sits in front of the symbols that occur. Together they
	// replace the former per-symbol binary search with an O(1) expected
	// lookup.
	//
	// Both arrays are deliberately tiny — lut is capped at 64 entries and
	// next16 is 2 bytes per symbol — because the codec banks hold
	// thousands of delta tables and the decode hot loop walks 10-20 of
	// them per row: a (kind, layer) block's whole decode working set must
	// sit in L1 for the dependent f→lut→next16 loads to stay cheap. (A
	// full 64K-entry cumToSym array per table would give a scan-free
	// lookup but cost gigabytes across a bank and thrash every cache
	// level.)
	lut      []uint16
	next16   []uint16
	lutShift uint32

	// divMul is the round-up reciprocal floor(2^48/total)+1. For any
	// 32-bit n, floor(n*divMul / 2^48) == n/total exactly (Granlund-
	// Montgomery: the error e = divMul*total - 2^48 satisfies 0 < e ≤
	// total ≤ 2^16, so n*e < 2^48), letting the coders' hot loops replace
	// the range/total division with a widening multiply.
	divMul uint64
}

// NewFreqTable builds a model from raw (unnormalised) symbol counts.
// Symbols with zero observed count receive frequency 1 so they remain
// encodable. counts must be non-empty.
func NewFreqTable(counts []uint64) (*FreqTable, error) {
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("ac: empty alphabet")
	}
	if n >= MaxTotal {
		return nil, fmt.Errorf("ac: alphabet size %d exceeds max %d", n, MaxTotal-1)
	}

	var sum uint64
	for _, c := range counts {
		sum += c
	}

	// Scale counts into the budget left after giving every symbol 1.
	budget := uint64(MaxTotal - n)
	freqs := make([]uint32, n)
	var total uint32
	for i, c := range counts {
		f := uint64(1)
		if sum > 0 {
			f += c * budget / sum
		}
		if f > math.MaxUint32 {
			f = math.MaxUint32
		}
		freqs[i] = uint32(f)
		total += uint32(f)
	}
	// Rounding can only undershoot MaxTotal, never overshoot, because
	// Σ floor(c*budget/sum) ≤ budget.
	if total > MaxTotal {
		return nil, fmt.Errorf("ac: internal normalisation overflow (total %d)", total)
	}

	cum := make([]uint32, n+1)
	for i, f := range freqs {
		cum[i+1] = cum[i] + f
	}
	m := &FreqTable{cum: cum, total: cum[n]}
	m.buildLUT()
	return m, nil
}

// scanWindow is how many symbols from a lut hint onward the decoders reach
// without a data-dependent branch: the hint itself plus the forward steps
// the DecodeRows kernel takes arithmetically.
const scanWindow = 3

// buildLUT constructs the decode lookup state. Must be called whenever
// cum changes (construction and deserialisation).
func (m *FreqTable) buildLUT() {
	n := m.N()
	// Cap the lut at 64 entries: with the probability-weighted expected
	// scan length N·2^shift/(2·total) this still averages ~2 next16 steps
	// for a 255-symbol delta table while keeping the whole decode state of
	// a table (lut + next16) well under a kilobyte.
	shift := uint32(0)
	for shift < 16 && (m.total-1)>>shift >= 64 {
		shift++
	}
	// Decoders only look up f < total, so the last bucket is the one
	// containing total-1.
	entries := int((m.total-1)>>shift) + 1
	lut := make([]uint16, entries)
	sym := 0
	for b := range lut {
		lo := uint32(b) << shift
		hi := min(lo+1<<shift, m.total)
		for m.cum[sym+1] <= lo {
			sym++
		}
		// sym is the first symbol overlapping bucket [lo, hi); weigh every
		// window that starts inside the bucket by its share of the bucket.
		hint, best := sym, uint32(0)
		for h := sym; h < n && m.cum[h] < hi; h++ {
			mass := min(m.cum[min(h+scanWindow, n)], hi) - max(m.cum[h], lo)
			if mass > best {
				hint, best = h, mass
			}
		}
		lut[b] = uint16(hint)
	}
	next16 := make([]uint16, n)
	for s := 0; s < n; s++ {
		next16[s] = uint16(m.cum[s+1] - 1)
	}
	m.lut = lut
	m.next16 = next16
	m.lutShift = shift
	m.divMul = (1<<48)/uint64(m.total) + 1
}

// UniformTable returns a model assigning equal probability to n symbols.
func UniformTable(n int) (*FreqTable, error) {
	return NewFreqTable(make([]uint64, n))
}

// N returns the alphabet size.
func (m *FreqTable) N() int { return len(m.cum) - 1 }

// Total returns the normalised total frequency.
func (m *FreqTable) Total() uint32 { return m.total }

// Prob returns the modelled probability of sym.
func (m *FreqTable) Prob(sym int) float64 {
	if sym < 0 || sym >= m.N() {
		return 0
	}
	return float64(m.cum[sym+1]-m.cum[sym]) / float64(m.total)
}

// Bits returns the ideal code length of sym in bits under this model.
func (m *FreqTable) Bits(sym int) float64 {
	p := m.Prob(sym)
	if p <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(p)
}

// rangeFor returns the cumulative interval of sym.
func (m *FreqTable) rangeFor(sym int) (start, size uint32, err error) {
	if sym < 0 || sym >= m.N() {
		return 0, 0, fmt.Errorf("ac: symbol %d outside alphabet [0,%d)", sym, m.N())
	}
	return m.cum[sym], m.cum[sym+1] - m.cum[sym], nil
}

// symbolFor locates the symbol whose cumulative interval contains f.
// f must be < Total (decoders clamp before calling).
func (m *FreqTable) symbolFor(f uint32) (sym int, start, size uint32) {
	if f >= m.total {
		return 0, 0, 0
	}
	i := int(m.lut[f>>m.lutShift])
	cum := m.cum
	for cum[i] > f {
		i--
	}
	for cum[i+1] <= f {
		i++
	}
	return i, cum[i], cum[i+1] - cum[i]
}

// Entropy returns the entropy of the model in bits per symbol.
func (m *FreqTable) Entropy() float64 {
	var h float64
	for i := 0; i < m.N(); i++ {
		p := m.Prob(i)
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}

// MarshalBinary serialises the table (alphabet size + cumulative counts as
// delta-encoded uvarints). It implements encoding.BinaryMarshaler.
func (m *FreqTable) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 2+m.N())
	buf = binary.AppendUvarint(buf, uint64(m.N()))
	for i := 0; i < m.N(); i++ {
		buf = binary.AppendUvarint(buf, uint64(m.cum[i+1]-m.cum[i]))
	}
	return buf, nil
}

// UnmarshalBinary restores a table serialised by MarshalBinary.
// It implements encoding.BinaryUnmarshaler.
func (m *FreqTable) UnmarshalBinary(data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || n >= MaxTotal {
		return fmt.Errorf("%w: bad alphabet size", ErrCorrupt)
	}
	data = data[k:]
	cum := make([]uint32, n+1)
	for i := 0; i < int(n); i++ {
		f, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated frequency table", ErrCorrupt)
		}
		data = data[k:]
		if f == 0 || f > MaxTotal {
			return fmt.Errorf("%w: invalid frequency %d", ErrCorrupt, f)
		}
		cum[i+1] = cum[i] + uint32(f)
	}
	if cum[n] > MaxTotal {
		return fmt.Errorf("%w: total frequency %d exceeds max", ErrCorrupt, cum[n])
	}
	m.cum = cum
	m.total = cum[n]
	m.buildLUT()
	return nil
}

// Histogram accumulates symbol counts during offline profiling and
// converts them into a FreqTable.
type Histogram struct {
	counts []uint64
	n      uint64
}

// NewHistogram returns a histogram over the alphabet [0, n).
func NewHistogram(n int) *Histogram {
	return &Histogram{counts: make([]uint64, n)}
}

// Observe records one occurrence of sym. Out-of-range symbols are clamped
// to the alphabet edge, mirroring the codec's clamping quantizer.
func (h *Histogram) Observe(sym int) {
	if sym < 0 {
		sym = 0
	}
	if sym >= len(h.counts) {
		sym = len(h.counts) - 1
	}
	h.counts[sym]++
	h.n++
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 { return h.n }

// Counts returns the raw per-symbol counts. The returned slice is the
// histogram's backing store; callers must not mutate it.
func (h *Histogram) Counts() []uint64 { return h.counts }

// Table converts the histogram into a normalised FreqTable.
func (h *Histogram) Table() (*FreqTable, error) {
	return NewFreqTable(h.counts)
}

// Entropy returns the empirical entropy of the observations in bits per
// symbol (zero if nothing was observed). Used to report Figure 5.
func (h *Histogram) Entropy() float64 {
	if h.n == 0 {
		return 0
	}
	var e float64
	n := float64(h.n)
	for _, c := range h.counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		e -= p * math.Log2(p)
	}
	return e
}
