//go:build ignore

// gen_rows writes rows_gen.go: the bodies of DecodeRows at each lockstep
// width, from one per-stream template so the widths — and the checked and
// check-free bodies of each width — cannot drift apart.
//
//	go run gen_rows.go
//
// Every width has three bodies. The checked one decodes rows [from, end)
// of any call. The two check-free ones decode rows [0, rows) of the two
// call shapes the codec makes — anchor rows (a scale, no base) and delta
// rows (a base, no scale) — for rows every stream holds the input bytes of
// (DecodeRows works out how many): their loads go through at16/at8/atF,
// which carry no bounds check, their renormalisation reads two bytes
// without a length test, and the shape's value term is fixed.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"os"
	"regexp"
	"strings"
)

// Each stage is emitted for every stream in turn before the next stage
// starts, so the streams' long-latency operations (the DIVL above all)
// issue back to back and overlap; '#' is the stream index. NEXT[i], LUT[i],
// IN#[i] and VALS[i] are the table, input and value loads, which the
// check-free bodies make without a bounds check.
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
	// loops on either side handle the rest. y stays below the alphabet
	// size: next16's last entry is total-1 ≥ f.
	`y# := uint32(LUT[f#>>(shift&31)])
	for y# > 0 && uint32(NEXT[y#-1]) >= f# {
		y#--
	}
	y# += (uint32(NEXT[y#]) - f#) >> 31
	y# += (uint32(NEXT[y#]) - f#) >> 31
	for uint32(NEXT[y#]) < f# {
		y#++
	}
	lo# := uint32(0)
	if y# > 0 {
		lo# = uint32(NEXT[y#-1]) + 1
	}
`,
	// Interval update and renormalisation. r ≥ 2^8 and the symbol's
	// frequency ≥ 1 leave rng ≥ 2^8, so at most two bytes shift in: the
	// count is two compares, and both bytes come from one 16-bit read
	// while the stream has two left — which the check-free bodies know.
	`code# -= r# * lo#
	rng# = r# * (uint32(NEXT[y#]) + 1 - lo#)
	n# := uint((uint64(rng#)-topValue)>>63 + (uint64(rng#)-topValue>>8)>>63)
	RENORM
	rng# <<= n# * 8 & 31
	pos# += int(n#)
`,
	// The symbol's value lands in the destination row.
	`VALUE
`,
}

// renorm is the checked renormalisation: past the stream's last two bytes,
// bytes come one at a time and read as zero beyond the end, as
// Decoder.nextByte has it.
const renorm = `if pos#+2 <= len(in#) {
		w := uint32(IN#[pos#])<<8 | uint32(IN#[pos#+1])
		code# = code#<<(n#*8&31) | w>>((16-n#*8)&31)
	} else {
		for k := uint(0); k < n#; k++ {
			code# <<= 8
			if pos#+int(k) < len(in#) {
				code# |= uint32(in#[pos#+int(k)])
			}
		}
	}`

const renormFree = `w# := uint32(IN#[pos#])<<8 | uint32(IN#[pos#+1])
	code# = code#<<(n#*8&31) | w#>>((16-n#*8)&31)`

// A body is one shape of lockstep loop.
type body struct {
	suffix string // function name suffix
	doc    string
	// free: the check-free loads, and rows [0, rows) instead of [from, end).
	free bool
	// value is the VALUE stage. The conversion in the scaled forms keeps
	// the product rounded where a platform would fuse it into the add.
	value string
}

var bodies = []body{
	{
		doc: "decodes rows [from, len(s[0].Dst)/len(tabs)) of any call.",
		value: `v# := float32(VALS[y#] * sc)
	if base# != nil {
		v# += base#[i]
	}
	row#[i] = v#`,
	},
	{
		suffix: "Anchor", free: true,
		doc:   "decodes rows [0, rows) of a call with a scale and no base, which must hold the input bytes of every symbol.",
		value: `setF(dst#, at, float32(VALS[y#]*sc))`,
	},
	{
		suffix: "Delta", free: true,
		doc:   "decodes rows [0, rows) of a call with a base and no scale, which must hold the input bytes of every symbol.",
		value: `setF(dst#, at, VALS[y#]+atF(base#, uintptr(i)))`,
	},
}

var load = regexp.MustCompile(`(NEXT|LUT|VALS|IN#)\[([^\]]+)\]`)

// loads rewrites a template's loads for a body: plain indexing, or the
// check-free accessors over the slices' data pointers.
func loads(tmpl string, free bool) string {
	return load.ReplaceAllStringFunc(tmpl, func(m string) string {
		sub := load.FindStringSubmatch(m)
		name, idx := sub[1], sub[2]
		if !free {
			return map[string]string{"NEXT": "next", "LUT": "lut", "VALS": "vals", "IN#": "in#"}[name] + "[" + idx + "]"
		}
		switch name {
		case "NEXT":
			return "at16(next, uintptr(" + idx + "))"
		case "LUT":
			return "at16(lut, uintptr(" + idx + "))"
		case "VALS":
			return "atF(vp, uintptr(" + idx + "))"
		}
		return "at8(in#, uintptr(" + idx + "))"
	})
}

func each(width int, tmpl string) string {
	var b strings.Builder
	for k := 0; k < width; k++ {
		b.WriteString(strings.ReplaceAll(tmpl, "#", fmt.Sprint(k)))
	}
	return b.String()
}

func emit(b *bytes.Buffer, width int, bd body) {
	name := fmt.Sprintf("decodeRows%d%s", width, bd.suffix)
	fmt.Fprintf(b, "\n// %s %s\n", name, bd.doc)
	if !bd.free {
		fmt.Fprintf(b, "func %s(tabs []*FreqTable, vals, scale []float32, s []RowStream, from int) {\n", name)
		b.WriteString(each(width, "d# := s[#].Dec\nin#, pos#, code#, rng# := d#.in, d#.pos, d#.code, d#.rng\ndst#, base# := s[#].Dst, s[#].Base\n"))
		b.WriteString("width := len(tabs)\nfor off := from * width; off+width <= len(dst0); off += width {\n")
		b.WriteString(each(width, "row# := dst#[off : off+width]\n"))
		b.WriteString("for i, m := range tabs {\n")
		b.WriteString("next, lut, total, shift, mul := m.next16, m.lut, m.total, m.lutShift, m.divMul\n")
		b.WriteString("sc := float32(1)\nif scale != nil {\nsc = scale[i]\n}\n")
	} else {
		fmt.Fprintf(b, "func %s(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {\n", name)
		b.WriteString(each(width, "d# := s[#].Dec\nin#, pos#, code#, rng# := data(d#.in), d#.pos, d#.code, d#.rng\n"))
		b.WriteString(each(width, "dst# := data(s[#].Dst)\n"))
		if bd.suffix == "Delta" {
			b.WriteString(each(width, "base# := data(s[#].Base)\n"))
		}
		b.WriteString("vp := data(vals)\n")
		if bd.suffix == "Anchor" {
			b.WriteString("sp := data(scale)\n")
		}
		b.WriteString("width := len(tabs)\nfor off := 0; off < rows*width; off += width {\n")
		b.WriteString("for i, m := range tabs {\n")
		b.WriteString("next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul\n")
		b.WriteString("at := uintptr(off + i)\n")
		if bd.suffix == "Anchor" {
			b.WriteString("sc := atF(sp, uintptr(i))\n")
		}
	}
	rn := renorm
	if bd.free {
		rn = renormFree
	}
	for _, st := range stages {
		st = strings.Replace(st, "RENORM", rn, 1)
		st = strings.Replace(st, "VALUE", bd.value, 1)
		b.WriteString(each(width, loads(st, bd.free)))
	}
	b.WriteString("}\n}\n")
	b.WriteString(each(width, "d#.pos, d#.code, d#.rng = pos#, code#, rng#\n"))
	b.WriteString("}\n")
}

func main() {
	var b bytes.Buffer
	b.WriteString("// Code generated by gen_rows.go; DO NOT EDIT.\n\npackage ac\n")
	for _, bd := range bodies {
		for _, width := range []int{4, 2, 1} {
			emit(&b, width, bd)
		}
	}
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatalf("%v\n%s", err, b.Bytes())
	}
	if err := os.WriteFile("rows_gen.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}
