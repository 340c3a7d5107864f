//go:build ignore

// gen_rows writes rows_gen.go: the body of DecodeRows at each lockstep
// width, from one per-stream template so the widths cannot drift apart.
//
//	go run gen_rows.go
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"strings"
)

// Each stage is emitted for every stream in turn before the next stage
// starts, so the streams' long-latency operations (the DIVL above all)
// issue back to back and overlap; '#' is the stream index.
var stages = []string{
	// The cumulative frequency the code register points at.
	`r# := divByTotal(rng#, mul)
	f# := code# / r#
	if f# >= total {
		f# = total - 1
	}
`,
	// Symbol search from the LUT's hint (see FreqTable.lut). scanWindow-1
	// steps of the forward scan are arithmetic (next16[y] < f as the sign
	// of a 32-bit difference: both sides are below 2^16), so a lookup that
	// ends inside the hint's window has no data-dependent branch; the
	// loops on either side handle the rest.
	`y# := uint32(lut[f#>>(shift&31)])
	for y# > 0 && uint32(next[y#-1]) >= f# {
		y#--
	}
	y# += (uint32(next[y#]) - f#) >> 31
	y# += (uint32(next[y#]) - f#) >> 31
	for uint32(next[y#]) < f# {
		y#++
	}
	lo# := uint32(0)
	if y# > 0 {
		lo# = uint32(next[y#-1]) + 1
	}
`,
	// Interval update and renormalisation. r ≥ 2^8 and the symbol's
	// frequency ≥ 1 leave rng ≥ 2^8, so at most two bytes shift in: the
	// count is two compares, and both bytes come from one 16-bit read
	// while the stream has two left. Past that, bytes come one at a time
	// and read as zero beyond the end, as Decoder.nextByte has it.
	`code# -= r# * lo#
	rng# = r# * (uint32(next[y#]) + 1 - lo#)
	n# := uint((uint64(rng#)-topValue)>>63 + (uint64(rng#)-topValue>>8)>>63)
	if pos#+2 <= len(in#) {
		w := uint32(in#[pos#])<<8 | uint32(in#[pos#+1])
		code# = code#<<(n#*8&31) | w>>((16-n#*8)&31)
	} else {
		for k := uint(0); k < n#; k++ {
			code# <<= 8
			if pos#+int(k) < len(in#) {
				code# |= uint32(in#[pos#+int(k)])
			}
		}
	}
	rng# <<= n# * 8 & 31
	pos# += int(n#)
`,
	// The symbol's value lands in the destination row. The conversion
	// keeps the product rounded where a platform would fuse it into the
	// add.
	`v# := float32(vals[y#] * sc)
	if base# != nil {
		v# += base#[i]
	}
	row#[i] = v#
`,
}

func each(width int, tmpl string) string {
	var b strings.Builder
	for k := 0; k < width; k++ {
		b.WriteString(strings.ReplaceAll(tmpl, "#", fmt.Sprint(k)))
	}
	return b.String()
}

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by gen_rows.go; DO NOT EDIT.\n\npackage ac\n")
	for _, width := range []int{4, 2, 1} {
		fmt.Fprintf(&b, "\nfunc decodeRows%d(tabs []*FreqTable, vals, scale []float32, s *[%d]RowStream) {\n", width, width)
		b.WriteString(each(width, "d# := s[#].Dec\nin#, pos#, code#, rng# := d#.in, d#.pos, d#.code, d#.rng\ndst#, base# := s[#].Dst, s[#].Base\n"))
		b.WriteString("width := len(tabs)\nfor off := 0; off+width <= len(dst0); off += width {\n")
		b.WriteString(each(width, "row# := dst#[off : off+width]\n"))
		b.WriteString("for i, m := range tabs {\n")
		b.WriteString("next, lut, total, shift, mul := m.next16, m.lut, m.total, m.lutShift, m.divMul\n")
		b.WriteString("sc := float32(1)\nif scale != nil {\nsc = scale[i]\n}\n")
		for _, st := range stages {
			b.WriteString(each(width, st))
		}
		b.WriteString("}\n}\n")
		b.WriteString(each(width, "d#.pos, d#.code, d#.rng = pos#, code#, rng#\n"))
		b.WriteString("}\n")
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("%v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("rows_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
