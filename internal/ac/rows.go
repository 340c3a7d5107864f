package ac

import (
	"fmt"
	"unsafe"
)

//go:generate go run gen_rows.go

// MaxRowStreams is the number of decoder streams DecodeRows advances in
// lockstep; leftover streams run two wide, then alone, through the same
// generated body (rows_gen.go).
const MaxRowStreams = 4

// RowStream is one decoder's share of a DecodeRows call.
type RowStream struct {
	Dec *Decoder
	// Dst receives the decoded values, row-major: a whole number of rows
	// of len(tabs) values each.
	Dst []float32
	// Base, when non-nil, is a row of len(tabs) addends (the codec's
	// dequantized anchor row). It must not overlap Dst.
	Base []float32
}

// DecodeRows is the codec's decode kernel: every stream decodes
// len(Dst)/len(tabs) rows, symbol i of each row under tabs[i], and stores
// each symbol's value instead of the symbol,
//
//	Dst[row*len(tabs)+i] = vals[sym]·scale[i] + Base[i]
//
// with the scale factor and the addend left out when scale or Base is
// nil. vals needs an entry for every symbol of every table in tabs, scale
// and every Base one per table, and all streams of one call equally long
// Dst; DecodeRows panics before decoding anything otherwise.
//
// Up to MaxRowStreams streams advance in lockstep: the streams are
// independent coders, so one loop iteration carries that many independent
// divide → lookup → multiply chains instead of one, and the table fields
// are loaded once for all of them. Symbols and the final decoder states
// are exactly those of per-symbol Decode on each stream in turn,
// including past the end of a truncated stream (which reads as zeros).
//
// A symbol shifts at most two input bytes in, so rows for which every
// stream of a lockstep group still holds two bytes per symbol plus two
// need no input bounds test; on calls of the codec's two shapes — anchor
// rows (scale, no Base) and delta rows (Base, no scale) — those rows run
// through a check-free body and the checked body finishes the rest. That
// is every row but the last few of each stream.
func DecodeRows(tabs []*FreqTable, vals, scale []float32, streams []RowStream) {
	if len(tabs) == 0 || len(streams) == 0 {
		return
	}
	guardRows(tabs, vals, scale, streams)
	for len(streams) > 0 {
		w := min(len(streams), MaxRowStreams)
		if w == 3 {
			w = 2
		}
		s := streams[:w]
		free := 0
		if body := freeBody(scale, s); body != nil {
			if free = freeRows(len(tabs), s); free > 0 {
				body(tabs, vals, scale, s, free)
			}
		}
		checkedRows[w](tabs, vals, scale, s, free)
		streams = streams[w:]
	}
}

// rowsBody is a generated lockstep body (rows_gen.go), indexed below by
// its width. A checked body's n is the first row it decodes; a check-free
// body's, how many rows it decodes from the first.
type rowsBody func(tabs []*FreqTable, vals, scale []float32, s []RowStream, n int)

var (
	checkedRows = [MaxRowStreams + 1]rowsBody{1: decodeRows1, 2: decodeRows2, 4: decodeRows4}
	anchorRows  = [MaxRowStreams + 1]rowsBody{1: decodeRows1Anchor, 2: decodeRows2Anchor, 4: decodeRows4Anchor}
	deltaRows   = [MaxRowStreams + 1]rowsBody{1: decodeRows1Delta, 2: decodeRows2Delta, 4: decodeRows4Delta}
)

// freeBody returns the check-free body for the shape of a lockstep group's
// call, or nil when the call has neither shape.
func freeBody(scale []float32, s []RowStream) rowsBody {
	anchor, delta := scale != nil, scale == nil
	for i := range s {
		anchor = anchor && s[i].Base == nil
		delta = delta && s[i].Base != nil
	}
	switch {
	case anchor:
		return anchorRows[len(s)]
	case delta:
		return deltaRows[len(s)]
	}
	return nil
}

// freeRows is how many leading rows of width symbols every stream of s can
// decode check-free: rows r such that pos + 2·r·width + 2 ≤ len(in).
func freeRows(width int, s []RowStream) int {
	rows := len(s[0].Dst) / width
	for i := range s {
		d := s[i].Dec
		rows = min(rows, (len(d.in)-d.pos-2)/(2*width))
	}
	return max(rows, 0)
}

// guardRows checks what the check-free bodies take on trust — every index
// they compute lands inside its slice — so a bad call panics here, before
// any unchecked load.
func guardRows(tabs []*FreqTable, vals, scale []float32, streams []RowStream) {
	for _, m := range tabs {
		if len(m.next16) > len(vals) {
			panic(fmt.Sprintf("ac: DecodeRows: %d values for a %d-symbol alphabet", len(vals), len(m.next16)))
		}
	}
	if scale != nil && len(scale) < len(tabs) {
		panic(fmt.Sprintf("ac: DecodeRows: %d scale factors for %d tables", len(scale), len(tabs)))
	}
	for i := range streams {
		s := &streams[i]
		if len(s.Dst) != len(streams[0].Dst) {
			panic(fmt.Sprintf("ac: DecodeRows: stream %d has %d destination values, stream 0 has %d", i, len(s.Dst), len(streams[0].Dst)))
		}
		if s.Base != nil && len(s.Base) < len(tabs) {
			panic(fmt.Sprintf("ac: DecodeRows: stream %d has %d base values for %d tables", i, len(s.Base), len(tabs)))
		}
	}
}

// Accessors of the check-free bodies: element i of a slice through its
// data pointer, with no bounds check. Race builds instrument them
// (checkptr), so an index outside its slice's allocation fails there.

func data[T any](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

func at8(p unsafe.Pointer, i uintptr) byte { return *(*byte)(unsafe.Add(p, i)) }

func at16(p unsafe.Pointer, i uintptr) uint16 { return *(*uint16)(unsafe.Add(p, i*2)) }

func atF(p unsafe.Pointer, i uintptr) float32 { return *(*float32)(unsafe.Add(p, i*4)) }

func setF(p unsafe.Pointer, i uintptr, v float32) { *(*float32)(unsafe.Add(p, i*4)) = v }
