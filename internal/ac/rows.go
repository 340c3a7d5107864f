package ac

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
// nil. vals needs an entry for every symbol of every table in tabs. All
// streams of one call must have equally long Dst.
//
// Up to MaxRowStreams streams advance in lockstep: the streams are
// independent coders, so one loop iteration carries that many independent
// divide → lookup → multiply chains instead of one, and the table fields
// are loaded once for all of them. Symbols and the final decoder states
// are exactly those of per-symbol Decode on each stream in turn,
// including past the end of a truncated stream (which reads as zeros).
func DecodeRows(tabs []*FreqTable, vals, scale []float32, streams []RowStream) {
	for len(streams) >= 4 {
		decodeRows4(tabs, vals, scale, (*[4]RowStream)(streams))
		streams = streams[4:]
	}
	if len(streams) >= 2 {
		decodeRows2(tabs, vals, scale, (*[2]RowStream)(streams))
		streams = streams[2:]
	}
	if len(streams) == 1 {
		decodeRows1(tabs, vals, scale, (*[1]RowStream)(streams))
	}
}
