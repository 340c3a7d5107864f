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
	set, err := NewFreqTables(1, len(counts))
	if err != nil {
		return nil, err
	}
	if err := set.Build(0, counts); err != nil {
		return nil, err
	}
	return set.Table(0), nil
}

// FreqTables is a set of models over one alphabet whose state sits in a
// few shared arrays, table i right after table i-1 in each. A decoder
// walks the tables of a row together, so where they sit matters: tables
// allocated one by one land wherever the heap has room, and the same
// tables decoded several percent slower or faster depending on what the
// heap held while they were built. A codec bank builds each level's
// tables as one set, in the order its rows use them.
type FreqTables struct {
	n      int // alphabet size
	tabs   []FreqTable
	cum    []uint32 // n+1 per table
	lut    []uint16 // lutCap per table
	next16 []uint16 // n per table
}

// lutCap bounds a table's lut (see buildLUT).
const lutCap = 64

// NewFreqTables returns count empty tables over the alphabet [0, n); fill
// each with Build or Unmarshal before use.
func NewFreqTables(count, n int) (*FreqTables, error) {
	if n == 0 {
		return nil, fmt.Errorf("ac: empty alphabet")
	}
	if n >= MaxTotal {
		return nil, fmt.Errorf("ac: alphabet size %d exceeds max %d", n, MaxTotal-1)
	}
	return &FreqTables{
		n:      n,
		tabs:   make([]FreqTable, count),
		cum:    make([]uint32, count*(n+1)),
		lut:    make([]uint16, count*lutCap),
		next16: make([]uint16, count*n),
	}, nil
}

// Len returns the number of tables in the set.
func (s *FreqTables) Len() int { return len(s.tabs) }

// Table returns table i.
func (s *FreqTables) Table(i int) *FreqTable { return &s.tabs[i] }

// slot hands table i its storage and returns its cumulative array.
func (s *FreqTables) slot(i int) (*FreqTable, []uint32) {
	return &s.tabs[i], s.cum[i*(s.n+1) : (i+1)*(s.n+1) : (i+1)*(s.n+1)]
}

// finish builds table i's decode state once its cumulative counts are in.
func (s *FreqTables) finish(i int, m *FreqTable) {
	m.buildLUT(s.lut[i*lutCap:(i+1)*lutCap:(i+1)*lutCap], s.next16[i*s.n:(i+1)*s.n:(i+1)*s.n])
}

// Build fills table i from raw symbol counts, exactly as NewFreqTable
// builds a table. Distinct tables of a set may be built concurrently.
func (s *FreqTables) Build(i int, counts []uint64) error {
	n := len(counts)
	if n != s.n {
		return fmt.Errorf("ac: %d counts for a %d-symbol table set", n, s.n)
	}
	var sum uint64
	for _, c := range counts {
		sum += c
	}

	// Scale counts into the budget left after giving every symbol 1.
	m, cum := s.slot(i)
	budget := uint64(MaxTotal - n)
	for j, c := range counts {
		f := uint64(1)
		if sum > 0 {
			f += c * budget / sum
		}
		if f > math.MaxUint32 {
			f = math.MaxUint32
		}
		cum[j+1] = cum[j] + uint32(f)
	}
	// Rounding can only undershoot MaxTotal, never overshoot, because
	// Σ floor(c*budget/sum) ≤ budget.
	if cum[n] > MaxTotal {
		return fmt.Errorf("ac: internal normalisation overflow (total %d)", cum[n])
	}
	m.cum, m.total = cum, cum[n]
	s.finish(i, m)
	return nil
}

// Unmarshal fills table i from bytes MarshalBinary wrote, rejecting a
// table over any other alphabet than the set's. Distinct tables of a set
// may be filled concurrently.
func (s *FreqTables) Unmarshal(i int, data []byte) error {
	n, k := binary.Uvarint(data)
	if k <= 0 || n == 0 || n >= MaxTotal {
		return fmt.Errorf("%w: bad alphabet size", ErrCorrupt)
	}
	if n != uint64(s.n) {
		return fmt.Errorf("%w: %d-symbol table in a %d-symbol set", ErrCorrupt, n, s.n)
	}
	data = data[k:]
	m, cum := s.slot(i)
	for j := 0; j < s.n; j++ {
		f, k := binary.Uvarint(data)
		if k <= 0 {
			return fmt.Errorf("%w: truncated frequency table", ErrCorrupt)
		}
		data = data[k:]
		if f == 0 || f > MaxTotal {
			return fmt.Errorf("%w: invalid frequency %d", ErrCorrupt, f)
		}
		cum[j+1] = cum[j] + uint32(f)
	}
	if cum[s.n] > MaxTotal {
		return fmt.Errorf("%w: total frequency %d exceeds max", ErrCorrupt, cum[s.n])
	}
	m.cum, m.total = cum, cum[s.n]
	s.finish(i, m)
	return nil
}

// scanWindow is how many symbols from a lut hint onward the decoders reach
// without a data-dependent branch: the hint itself plus the forward steps
// the DecodeRows kernel takes arithmetically.
const scanWindow = 3

// buildLUT constructs the decode lookup state into lut (lutCap entries)
// and next16 (N entries). Must be called whenever cum changes
// (construction and deserialisation).
func (m *FreqTable) buildLUT(lut, next16 []uint16) {
	n := m.N()
	// Cap the lut at 64 entries: with the probability-weighted expected
	// scan length N·2^shift/(2·total) this still averages ~2 next16 steps
	// for a 255-symbol delta table while keeping the whole decode state of
	// a table (lut + next16) well under a kilobyte.
	shift := uint32(0)
	for shift < 16 && (m.total-1)>>shift >= lutCap {
		shift++
	}
	// Decoders only look up f < total, so the last bucket is the one
	// containing total-1.
	entries := int((m.total-1)>>shift) + 1
	lut = lut[:entries]
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
	// Every frequency takes at least one byte: check before allocating.
	if n > uint64(len(data)-k) {
		return fmt.Errorf("%w: truncated frequency table", ErrCorrupt)
	}
	set, err := NewFreqTables(1, int(n))
	if err != nil {
		return err
	}
	if err := set.Unmarshal(0, data); err != nil {
		return err
	}
	*m = *set.Table(0)
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
