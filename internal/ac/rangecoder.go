// Package ac implements the arithmetic (range) coding layer of the CacheGen
// codec (§5.2, "Arithmetic coding"). Like other entropy coders it assigns
// fewer bits to frequent symbols; CacheGen feeds it quantized KV deltas and
// anchors, with a separate probability model per (layer, channel-group)
// combination profiled offline (§5.1.3).
//
// The coder is a carry-aware byte-oriented range coder (the construction
// used by LZMA): a 32-bit range register, a 64-bit low accumulator with
// deferred carry propagation, and renormalisation in byte steps. Encoding
// and decoding are exact inverses for any sequence of symbols drawn from
// any FreqTable whose total stays below MaxTotal.
package ac

import (
	"errors"
	"fmt"
	"math/bits"
)

const (
	topValue = 1 << 24 // renormalisation threshold
	// MaxTotal is the maximum admissible total frequency of a model.
	// Keeping totals ≤ 2^16 guarantees range/total never truncates to zero
	// (range ≥ 2^24 after renormalisation).
	MaxTotal = 1 << 16
)

// ErrCorrupt is returned when a bitstream cannot be decoded.
var ErrCorrupt = errors.New("ac: corrupt bitstream")

// Encoder is a range encoder writing to an in-memory buffer.
// The zero value is not usable; call NewEncoder.
type Encoder struct {
	low      uint64
	rng      uint32
	cache    byte
	cacheLen int64
	out      []byte
}

// NewEncoder returns an encoder ready to accept symbols.
func NewEncoder() *Encoder {
	return &Encoder{rng: 0xFFFFFFFF, cacheLen: 1}
}

// Reset returns the encoder to its initial state while keeping the output
// buffer's capacity, so pooled encoders reuse their grown buffers instead
// of re-paying append growth per stream.
func (e *Encoder) Reset() {
	e.low, e.rng, e.cache, e.cacheLen = 0, 0xFFFFFFFF, 0, 1
	e.out = e.out[:0]
}

// Grow reserves capacity for at least n more output bytes, amortising the
// appends of a stream whose rough size the caller can predict.
func (e *Encoder) Grow(n int) {
	if free := cap(e.out) - len(e.out); free < n {
		grown := make([]byte, len(e.out), len(e.out)+n)
		copy(grown, e.out)
		e.out = grown
	}
}

// Len returns the number of output bytes buffered so far (excluding the
// final flush).
func (e *Encoder) Len() int { return len(e.out) }

// encodeRange narrows the coding interval to [start, start+size) out of
// total. All arguments must satisfy 0 ≤ start < start+size ≤ total ≤ MaxTotal.
func (e *Encoder) encodeRange(start, size, total uint32) {
	r := e.rng / total
	e.low += uint64(r) * uint64(start)
	e.rng = r * size
	for e.rng < topValue {
		e.rng <<= 8
		e.shiftLow()
	}
}

func (e *Encoder) shiftLow() {
	if uint32(e.low) < 0xFF000000 || (e.low>>32) != 0 {
		carry := byte(e.low >> 32)
		if e.cacheLen > 0 {
			e.out = append(e.out, e.cache+carry)
			for i := int64(1); i < e.cacheLen; i++ {
				e.out = append(e.out, 0xFF+carry)
			}
		}
		e.cache = byte(e.low >> 24)
		e.cacheLen = 0
	}
	e.cacheLen++
	e.low = (e.low << 8) & 0xFFFFFFFF
}

// Encode appends one symbol drawn from the given model.
func (e *Encoder) Encode(sym int, m *FreqTable) error {
	start, size, err := m.rangeFor(sym)
	if err != nil {
		return err
	}
	e.encodeRange(start, size, m.total)
	return nil
}

// EncodeSymbols appends every symbol of syms under one model. It is the
// bulk form of Encode: model fields and coder state are hoisted into
// locals, the interval update and renormalisation are inlined, and the
// range/total division goes through the precomputed reciprocal, so the
// per-symbol cost is a few integer operations. The output bitstream is
// byte-identical to encoding the symbols one at a time.
func (e *Encoder) EncodeSymbols(m *FreqTable, syms []int) error {
	cum, mul := m.cum, m.divMul
	n := uint(len(cum) - 1)
	low, rng, cache, cacheLen, out := e.low, e.rng, e.cache, e.cacheLen, e.out
	for _, s := range syms {
		if uint(s) >= n {
			e.low, e.rng, e.cache, e.cacheLen, e.out = low, rng, cache, cacheLen, out
			return fmt.Errorf("ac: symbol %d outside alphabet [0,%d)", s, n)
		}
		start := cum[s]
		r := divByTotal(rng, mul)
		low += uint64(r) * uint64(start)
		rng = r * (cum[s+1] - start)
		for rng < topValue {
			rng <<= 8
			// Inlined shiftLow (see the method for the construction).
			if uint32(low) < 0xFF000000 || (low>>32) != 0 {
				carry := byte(low >> 32)
				if cacheLen > 0 {
					out = append(out, cache+carry)
					for i := int64(1); i < cacheLen; i++ {
						out = append(out, 0xFF+carry)
					}
				}
				cache = byte(low >> 24)
				cacheLen = 0
			}
			cacheLen++
			low = (low << 8) & 0xFFFFFFFF
		}
	}
	e.low, e.rng, e.cache, e.cacheLen, e.out = low, rng, cache, cacheLen, out
	return nil
}

// EncodeSymbolsMulti is EncodeSymbols with a per-symbol model: syms[i] is
// coded under tabs[i]. This is the codec's row shape — one model per
// channel bucket — with the table lookups resolved by the caller once per
// row instead of per symbol.
func (e *Encoder) EncodeSymbolsMulti(tabs []*FreqTable, syms []int) error {
	if len(tabs) != len(syms) {
		return fmt.Errorf("ac: %d symbols with %d models", len(syms), len(tabs))
	}
	low, rng, cache, cacheLen, out := e.low, e.rng, e.cache, e.cacheLen, e.out
	for i, s := range syms {
		m := tabs[i]
		cum := m.cum
		if uint(s) >= uint(len(cum)-1) {
			e.low, e.rng, e.cache, e.cacheLen, e.out = low, rng, cache, cacheLen, out
			return fmt.Errorf("ac: symbol %d outside alphabet [0,%d)", s, len(cum)-1)
		}
		start := cum[s]
		r := divByTotal(rng, m.divMul)
		low += uint64(r) * uint64(start)
		rng = r * (cum[s+1] - start)
		for rng < topValue {
			rng <<= 8
			// Inlined shiftLow (see the method for the construction).
			if uint32(low) < 0xFF000000 || (low>>32) != 0 {
				carry := byte(low >> 32)
				if cacheLen > 0 {
					out = append(out, cache+carry)
					for i := int64(1); i < cacheLen; i++ {
						out = append(out, 0xFF+carry)
					}
				}
				cache = byte(low >> 24)
				cacheLen = 0
			}
			cacheLen++
			low = (low << 8) & 0xFFFFFFFF
		}
	}
	e.low, e.rng, e.cache, e.cacheLen, e.out = low, rng, cache, cacheLen, out
	return nil
}

// Bytes flushes the encoder and returns the finished bitstream. The encoder
// must not be used afterwards.
func (e *Encoder) Bytes() []byte {
	for i := 0; i < 5; i++ {
		e.shiftLow()
	}
	return e.out
}

// Decoder is a range decoder reading from a byte slice.
type Decoder struct {
	code uint32
	rng  uint32
	in   []byte
	pos  int
}

// NewDecoder returns a decoder over data produced by Encoder.Bytes.
func NewDecoder(data []byte) *Decoder {
	d := &Decoder{}
	d.Reset(data)
	return d
}

// Reset re-aims the decoder at a new bitstream, so pooled decoders avoid
// a per-stream allocation.
func (d *Decoder) Reset(data []byte) {
	d.code, d.rng, d.in, d.pos = 0, 0xFFFFFFFF, data, 0
	// The first emitted byte is the initial zero cache; consume five bytes
	// to fill the code register, mirroring the encoder's five-byte flush.
	for i := 0; i < 5; i++ {
		d.code = d.code<<8 | uint32(d.nextByte())
	}
}

// nextByte returns the next input byte, or 0 past the end. Reading past the
// end is legal for the final symbols of a well-formed stream; truncation of
// a malformed stream surfaces as a symbol lookup failure or as a caller-side
// count mismatch, both reported as ErrCorrupt by Decode.
func (d *Decoder) nextByte() byte {
	if d.pos >= len(d.in) {
		d.pos++
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

// Decode extracts the next symbol according to the given model.
func (d *Decoder) Decode(m *FreqTable) (int, error) {
	total := m.total
	r := d.rng / total
	f := d.code / r
	if f >= total {
		f = total - 1
	}
	sym, start, size := m.symbolFor(f)
	if size == 0 {
		return 0, fmt.Errorf("%w: no symbol at cum frequency %d", ErrCorrupt, f)
	}
	d.code -= r * start
	d.rng = r * size
	for d.rng < topValue {
		d.code = d.code<<8 | uint32(d.nextByte())
		d.rng <<= 8
	}
	return sym, nil
}

// DecodeSymbols fills dst with the next len(dst) symbols under one model.
// It is the bulk form of Decode: model fields are hoisted, the symbol
// lookup goes through the O(1) LUT, and input bytes are consumed without a
// per-byte call. The symbols produced are identical to len(dst) Decode
// calls. Tables built by this package give every symbol a nonzero
// frequency, so a (possibly truncated or corrupt) stream always yields
// some in-alphabet symbol; corruption surfaces as a caller-side count or
// checksum mismatch, exactly as with Decode — the error result is always
// nil. The codec decodes through DecodeRows; this single-stream form
// stays for callers that want the symbols themselves.
func (d *Decoder) DecodeSymbols(m *FreqTable, dst []int) error {
	next, total, lut, shift, mul := m.next16, m.total, m.lut, m.lutShift, m.divMul
	in, pos, code, rng := d.in, d.pos, d.code, d.rng
	for i := range dst {
		r := divByTotal(rng, mul)
		f := code / r
		if f >= total {
			f = total - 1
		}
		sym := int(lut[f>>shift])
		for sym > 0 && uint32(next[sym-1]) >= f {
			sym--
		}
		for uint32(next[sym]) < f {
			sym++
		}
		var start uint32
		if sym > 0 {
			start = uint32(next[sym-1]) + 1
		}
		code -= r * start
		rng = r * (uint32(next[sym]) + 1 - start)
		for rng < topValue {
			var b byte
			if pos < len(in) {
				b = in[pos]
			}
			pos++
			code = code<<8 | uint32(b)
			rng <<= 8
		}
		dst[i] = sym
	}
	d.pos, d.code, d.rng = pos, code, rng
	return nil
}

// divByTotal computes n/total via the table's precomputed round-up
// reciprocal (see FreqTable.divMul): a widening multiply and shift instead
// of a hardware divide, exact for every 32-bit n.
func divByTotal(n uint32, divMul uint64) uint32 {
	hi, lo := bits.Mul64(uint64(n), divMul)
	return uint32(hi<<16 | lo>>48)
}
