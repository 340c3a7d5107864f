// Code generated by gen_rows.go; DO NOT EDIT.

package ac

// decodeRows4 decodes rows [from, len(s[0].Dst)/len(tabs)) of any call.
func decodeRows4(tabs []*FreqTable, vals, scale []float32, s []RowStream, from int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := d0.in, d0.pos, d0.code, d0.rng
	dst0, base0 := s[0].Dst, s[0].Base
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := d1.in, d1.pos, d1.code, d1.rng
	dst1, base1 := s[1].Dst, s[1].Base
	d2 := s[2].Dec
	in2, pos2, code2, rng2 := d2.in, d2.pos, d2.code, d2.rng
	dst2, base2 := s[2].Dst, s[2].Base
	d3 := s[3].Dec
	in3, pos3, code3, rng3 := d3.in, d3.pos, d3.code, d3.rng
	dst3, base3 := s[3].Dst, s[3].Base
	width := len(tabs)
	for off := from * width; off+width <= len(dst0); off += width {
		row0 := dst0[off : off+width]
		row1 := dst1[off : off+width]
		row2 := dst2[off : off+width]
		row3 := dst3[off : off+width]
		for i, m := range tabs {
			next, lut, total, shift, mul := m.next16, m.lut, m.total, m.lutShift, m.divMul
			sc := float32(1)
			if scale != nil {
				sc = scale[i]
			}
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			r2 := divByTotal(rng2, mul)
			f2 := code2 / r2
			if f2 >= total {
				f2 = total - 1
			}
			r3 := divByTotal(rng3, mul)
			f3 := code3 / r3
			if f3 >= total {
				f3 = total - 1
			}
			y0 := uint32(lut[f0>>(shift&31)])
			for y0 > 0 && uint32(next[y0-1]) >= f0 {
				y0--
			}
			y0 += (uint32(next[y0]) - f0) >> 31
			y0 += (uint32(next[y0]) - f0) >> 31
			for uint32(next[y0]) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(next[y0-1]) + 1
			}
			y1 := uint32(lut[f1>>(shift&31)])
			for y1 > 0 && uint32(next[y1-1]) >= f1 {
				y1--
			}
			y1 += (uint32(next[y1]) - f1) >> 31
			y1 += (uint32(next[y1]) - f1) >> 31
			for uint32(next[y1]) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(next[y1-1]) + 1
			}
			y2 := uint32(lut[f2>>(shift&31)])
			for y2 > 0 && uint32(next[y2-1]) >= f2 {
				y2--
			}
			y2 += (uint32(next[y2]) - f2) >> 31
			y2 += (uint32(next[y2]) - f2) >> 31
			for uint32(next[y2]) < f2 {
				y2++
			}
			lo2 := uint32(0)
			if y2 > 0 {
				lo2 = uint32(next[y2-1]) + 1
			}
			y3 := uint32(lut[f3>>(shift&31)])
			for y3 > 0 && uint32(next[y3-1]) >= f3 {
				y3--
			}
			y3 += (uint32(next[y3]) - f3) >> 31
			y3 += (uint32(next[y3]) - f3) >> 31
			for uint32(next[y3]) < f3 {
				y3++
			}
			lo3 := uint32(0)
			if y3 > 0 {
				lo3 = uint32(next[y3-1]) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(next[y0]) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			if pos0+2 <= len(in0) {
				w := uint32(in0[pos0])<<8 | uint32(in0[pos0+1])
				code0 = code0<<(n0*8&31) | w>>((16-n0*8)&31)
			} else {
				for k := uint(0); k < n0; k++ {
					code0 <<= 8
					if pos0+int(k) < len(in0) {
						code0 |= uint32(in0[pos0+int(k)])
					}
				}
			}
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(next[y1]) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			if pos1+2 <= len(in1) {
				w := uint32(in1[pos1])<<8 | uint32(in1[pos1+1])
				code1 = code1<<(n1*8&31) | w>>((16-n1*8)&31)
			} else {
				for k := uint(0); k < n1; k++ {
					code1 <<= 8
					if pos1+int(k) < len(in1) {
						code1 |= uint32(in1[pos1+int(k)])
					}
				}
			}
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			code2 -= r2 * lo2
			rng2 = r2 * (uint32(next[y2]) + 1 - lo2)
			n2 := uint((uint64(rng2)-topValue)>>63 + (uint64(rng2)-topValue>>8)>>63)
			if pos2+2 <= len(in2) {
				w := uint32(in2[pos2])<<8 | uint32(in2[pos2+1])
				code2 = code2<<(n2*8&31) | w>>((16-n2*8)&31)
			} else {
				for k := uint(0); k < n2; k++ {
					code2 <<= 8
					if pos2+int(k) < len(in2) {
						code2 |= uint32(in2[pos2+int(k)])
					}
				}
			}
			rng2 <<= n2 * 8 & 31
			pos2 += int(n2)
			code3 -= r3 * lo3
			rng3 = r3 * (uint32(next[y3]) + 1 - lo3)
			n3 := uint((uint64(rng3)-topValue)>>63 + (uint64(rng3)-topValue>>8)>>63)
			if pos3+2 <= len(in3) {
				w := uint32(in3[pos3])<<8 | uint32(in3[pos3+1])
				code3 = code3<<(n3*8&31) | w>>((16-n3*8)&31)
			} else {
				for k := uint(0); k < n3; k++ {
					code3 <<= 8
					if pos3+int(k) < len(in3) {
						code3 |= uint32(in3[pos3+int(k)])
					}
				}
			}
			rng3 <<= n3 * 8 & 31
			pos3 += int(n3)
			v0 := float32(vals[y0] * sc)
			if base0 != nil {
				v0 += base0[i]
			}
			row0[i] = v0
			v1 := float32(vals[y1] * sc)
			if base1 != nil {
				v1 += base1[i]
			}
			row1[i] = v1
			v2 := float32(vals[y2] * sc)
			if base2 != nil {
				v2 += base2[i]
			}
			row2[i] = v2
			v3 := float32(vals[y3] * sc)
			if base3 != nil {
				v3 += base3[i]
			}
			row3[i] = v3
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
	d2.pos, d2.code, d2.rng = pos2, code2, rng2
	d3.pos, d3.code, d3.rng = pos3, code3, rng3
}

// decodeRows2 decodes rows [from, len(s[0].Dst)/len(tabs)) of any call.
func decodeRows2(tabs []*FreqTable, vals, scale []float32, s []RowStream, from int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := d0.in, d0.pos, d0.code, d0.rng
	dst0, base0 := s[0].Dst, s[0].Base
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := d1.in, d1.pos, d1.code, d1.rng
	dst1, base1 := s[1].Dst, s[1].Base
	width := len(tabs)
	for off := from * width; off+width <= len(dst0); off += width {
		row0 := dst0[off : off+width]
		row1 := dst1[off : off+width]
		for i, m := range tabs {
			next, lut, total, shift, mul := m.next16, m.lut, m.total, m.lutShift, m.divMul
			sc := float32(1)
			if scale != nil {
				sc = scale[i]
			}
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			y0 := uint32(lut[f0>>(shift&31)])
			for y0 > 0 && uint32(next[y0-1]) >= f0 {
				y0--
			}
			y0 += (uint32(next[y0]) - f0) >> 31
			y0 += (uint32(next[y0]) - f0) >> 31
			for uint32(next[y0]) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(next[y0-1]) + 1
			}
			y1 := uint32(lut[f1>>(shift&31)])
			for y1 > 0 && uint32(next[y1-1]) >= f1 {
				y1--
			}
			y1 += (uint32(next[y1]) - f1) >> 31
			y1 += (uint32(next[y1]) - f1) >> 31
			for uint32(next[y1]) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(next[y1-1]) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(next[y0]) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			if pos0+2 <= len(in0) {
				w := uint32(in0[pos0])<<8 | uint32(in0[pos0+1])
				code0 = code0<<(n0*8&31) | w>>((16-n0*8)&31)
			} else {
				for k := uint(0); k < n0; k++ {
					code0 <<= 8
					if pos0+int(k) < len(in0) {
						code0 |= uint32(in0[pos0+int(k)])
					}
				}
			}
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(next[y1]) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			if pos1+2 <= len(in1) {
				w := uint32(in1[pos1])<<8 | uint32(in1[pos1+1])
				code1 = code1<<(n1*8&31) | w>>((16-n1*8)&31)
			} else {
				for k := uint(0); k < n1; k++ {
					code1 <<= 8
					if pos1+int(k) < len(in1) {
						code1 |= uint32(in1[pos1+int(k)])
					}
				}
			}
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			v0 := float32(vals[y0] * sc)
			if base0 != nil {
				v0 += base0[i]
			}
			row0[i] = v0
			v1 := float32(vals[y1] * sc)
			if base1 != nil {
				v1 += base1[i]
			}
			row1[i] = v1
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
}

// decodeRows1 decodes rows [from, len(s[0].Dst)/len(tabs)) of any call.
func decodeRows1(tabs []*FreqTable, vals, scale []float32, s []RowStream, from int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := d0.in, d0.pos, d0.code, d0.rng
	dst0, base0 := s[0].Dst, s[0].Base
	width := len(tabs)
	for off := from * width; off+width <= len(dst0); off += width {
		row0 := dst0[off : off+width]
		for i, m := range tabs {
			next, lut, total, shift, mul := m.next16, m.lut, m.total, m.lutShift, m.divMul
			sc := float32(1)
			if scale != nil {
				sc = scale[i]
			}
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			y0 := uint32(lut[f0>>(shift&31)])
			for y0 > 0 && uint32(next[y0-1]) >= f0 {
				y0--
			}
			y0 += (uint32(next[y0]) - f0) >> 31
			y0 += (uint32(next[y0]) - f0) >> 31
			for uint32(next[y0]) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(next[y0-1]) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(next[y0]) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			if pos0+2 <= len(in0) {
				w := uint32(in0[pos0])<<8 | uint32(in0[pos0+1])
				code0 = code0<<(n0*8&31) | w>>((16-n0*8)&31)
			} else {
				for k := uint(0); k < n0; k++ {
					code0 <<= 8
					if pos0+int(k) < len(in0) {
						code0 |= uint32(in0[pos0+int(k)])
					}
				}
			}
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			v0 := float32(vals[y0] * sc)
			if base0 != nil {
				v0 += base0[i]
			}
			row0[i] = v0
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
}

// decodeRows4Anchor decodes rows [0, rows) of a call with a scale and no base, which must hold the input bytes of every symbol.
func decodeRows4Anchor(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := data(d1.in), d1.pos, d1.code, d1.rng
	d2 := s[2].Dec
	in2, pos2, code2, rng2 := data(d2.in), d2.pos, d2.code, d2.rng
	d3 := s[3].Dec
	in3, pos3, code3, rng3 := data(d3.in), d3.pos, d3.code, d3.rng
	dst0 := data(s[0].Dst)
	dst1 := data(s[1].Dst)
	dst2 := data(s[2].Dst)
	dst3 := data(s[3].Dst)
	vp := data(vals)
	sp := data(scale)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			sc := atF(sp, uintptr(i))
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			r2 := divByTotal(rng2, mul)
			f2 := code2 / r2
			if f2 >= total {
				f2 = total - 1
			}
			r3 := divByTotal(rng3, mul)
			f3 := code3 / r3
			if f3 >= total {
				f3 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			y1 := uint32(at16(lut, uintptr(f1>>(shift&31))))
			for y1 > 0 && uint32(at16(next, uintptr(y1-1))) >= f1 {
				y1--
			}
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			for uint32(at16(next, uintptr(y1))) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(at16(next, uintptr(y1-1))) + 1
			}
			y2 := uint32(at16(lut, uintptr(f2>>(shift&31))))
			for y2 > 0 && uint32(at16(next, uintptr(y2-1))) >= f2 {
				y2--
			}
			y2 += (uint32(at16(next, uintptr(y2))) - f2) >> 31
			y2 += (uint32(at16(next, uintptr(y2))) - f2) >> 31
			for uint32(at16(next, uintptr(y2))) < f2 {
				y2++
			}
			lo2 := uint32(0)
			if y2 > 0 {
				lo2 = uint32(at16(next, uintptr(y2-1))) + 1
			}
			y3 := uint32(at16(lut, uintptr(f3>>(shift&31))))
			for y3 > 0 && uint32(at16(next, uintptr(y3-1))) >= f3 {
				y3--
			}
			y3 += (uint32(at16(next, uintptr(y3))) - f3) >> 31
			y3 += (uint32(at16(next, uintptr(y3))) - f3) >> 31
			for uint32(at16(next, uintptr(y3))) < f3 {
				y3++
			}
			lo3 := uint32(0)
			if y3 > 0 {
				lo3 = uint32(at16(next, uintptr(y3-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(at16(next, uintptr(y1))) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			w1 := uint32(at8(in1, uintptr(pos1)))<<8 | uint32(at8(in1, uintptr(pos1+1)))
			code1 = code1<<(n1*8&31) | w1>>((16-n1*8)&31)
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			code2 -= r2 * lo2
			rng2 = r2 * (uint32(at16(next, uintptr(y2))) + 1 - lo2)
			n2 := uint((uint64(rng2)-topValue)>>63 + (uint64(rng2)-topValue>>8)>>63)
			w2 := uint32(at8(in2, uintptr(pos2)))<<8 | uint32(at8(in2, uintptr(pos2+1)))
			code2 = code2<<(n2*8&31) | w2>>((16-n2*8)&31)
			rng2 <<= n2 * 8 & 31
			pos2 += int(n2)
			code3 -= r3 * lo3
			rng3 = r3 * (uint32(at16(next, uintptr(y3))) + 1 - lo3)
			n3 := uint((uint64(rng3)-topValue)>>63 + (uint64(rng3)-topValue>>8)>>63)
			w3 := uint32(at8(in3, uintptr(pos3)))<<8 | uint32(at8(in3, uintptr(pos3+1)))
			code3 = code3<<(n3*8&31) | w3>>((16-n3*8)&31)
			rng3 <<= n3 * 8 & 31
			pos3 += int(n3)
			setF(dst0, at, float32(atF(vp, uintptr(y0))*sc))
			setF(dst1, at, float32(atF(vp, uintptr(y1))*sc))
			setF(dst2, at, float32(atF(vp, uintptr(y2))*sc))
			setF(dst3, at, float32(atF(vp, uintptr(y3))*sc))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
	d2.pos, d2.code, d2.rng = pos2, code2, rng2
	d3.pos, d3.code, d3.rng = pos3, code3, rng3
}

// decodeRows2Anchor decodes rows [0, rows) of a call with a scale and no base, which must hold the input bytes of every symbol.
func decodeRows2Anchor(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := data(d1.in), d1.pos, d1.code, d1.rng
	dst0 := data(s[0].Dst)
	dst1 := data(s[1].Dst)
	vp := data(vals)
	sp := data(scale)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			sc := atF(sp, uintptr(i))
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			y1 := uint32(at16(lut, uintptr(f1>>(shift&31))))
			for y1 > 0 && uint32(at16(next, uintptr(y1-1))) >= f1 {
				y1--
			}
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			for uint32(at16(next, uintptr(y1))) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(at16(next, uintptr(y1-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(at16(next, uintptr(y1))) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			w1 := uint32(at8(in1, uintptr(pos1)))<<8 | uint32(at8(in1, uintptr(pos1+1)))
			code1 = code1<<(n1*8&31) | w1>>((16-n1*8)&31)
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			setF(dst0, at, float32(atF(vp, uintptr(y0))*sc))
			setF(dst1, at, float32(atF(vp, uintptr(y1))*sc))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
}

// decodeRows1Anchor decodes rows [0, rows) of a call with a scale and no base, which must hold the input bytes of every symbol.
func decodeRows1Anchor(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	dst0 := data(s[0].Dst)
	vp := data(vals)
	sp := data(scale)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			sc := atF(sp, uintptr(i))
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			setF(dst0, at, float32(atF(vp, uintptr(y0))*sc))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
}

// decodeRows4Delta decodes rows [0, rows) of a call with a base and no scale, which must hold the input bytes of every symbol.
func decodeRows4Delta(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := data(d1.in), d1.pos, d1.code, d1.rng
	d2 := s[2].Dec
	in2, pos2, code2, rng2 := data(d2.in), d2.pos, d2.code, d2.rng
	d3 := s[3].Dec
	in3, pos3, code3, rng3 := data(d3.in), d3.pos, d3.code, d3.rng
	dst0 := data(s[0].Dst)
	dst1 := data(s[1].Dst)
	dst2 := data(s[2].Dst)
	dst3 := data(s[3].Dst)
	base0 := data(s[0].Base)
	base1 := data(s[1].Base)
	base2 := data(s[2].Base)
	base3 := data(s[3].Base)
	vp := data(vals)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			r2 := divByTotal(rng2, mul)
			f2 := code2 / r2
			if f2 >= total {
				f2 = total - 1
			}
			r3 := divByTotal(rng3, mul)
			f3 := code3 / r3
			if f3 >= total {
				f3 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			y1 := uint32(at16(lut, uintptr(f1>>(shift&31))))
			for y1 > 0 && uint32(at16(next, uintptr(y1-1))) >= f1 {
				y1--
			}
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			for uint32(at16(next, uintptr(y1))) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(at16(next, uintptr(y1-1))) + 1
			}
			y2 := uint32(at16(lut, uintptr(f2>>(shift&31))))
			for y2 > 0 && uint32(at16(next, uintptr(y2-1))) >= f2 {
				y2--
			}
			y2 += (uint32(at16(next, uintptr(y2))) - f2) >> 31
			y2 += (uint32(at16(next, uintptr(y2))) - f2) >> 31
			for uint32(at16(next, uintptr(y2))) < f2 {
				y2++
			}
			lo2 := uint32(0)
			if y2 > 0 {
				lo2 = uint32(at16(next, uintptr(y2-1))) + 1
			}
			y3 := uint32(at16(lut, uintptr(f3>>(shift&31))))
			for y3 > 0 && uint32(at16(next, uintptr(y3-1))) >= f3 {
				y3--
			}
			y3 += (uint32(at16(next, uintptr(y3))) - f3) >> 31
			y3 += (uint32(at16(next, uintptr(y3))) - f3) >> 31
			for uint32(at16(next, uintptr(y3))) < f3 {
				y3++
			}
			lo3 := uint32(0)
			if y3 > 0 {
				lo3 = uint32(at16(next, uintptr(y3-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(at16(next, uintptr(y1))) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			w1 := uint32(at8(in1, uintptr(pos1)))<<8 | uint32(at8(in1, uintptr(pos1+1)))
			code1 = code1<<(n1*8&31) | w1>>((16-n1*8)&31)
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			code2 -= r2 * lo2
			rng2 = r2 * (uint32(at16(next, uintptr(y2))) + 1 - lo2)
			n2 := uint((uint64(rng2)-topValue)>>63 + (uint64(rng2)-topValue>>8)>>63)
			w2 := uint32(at8(in2, uintptr(pos2)))<<8 | uint32(at8(in2, uintptr(pos2+1)))
			code2 = code2<<(n2*8&31) | w2>>((16-n2*8)&31)
			rng2 <<= n2 * 8 & 31
			pos2 += int(n2)
			code3 -= r3 * lo3
			rng3 = r3 * (uint32(at16(next, uintptr(y3))) + 1 - lo3)
			n3 := uint((uint64(rng3)-topValue)>>63 + (uint64(rng3)-topValue>>8)>>63)
			w3 := uint32(at8(in3, uintptr(pos3)))<<8 | uint32(at8(in3, uintptr(pos3+1)))
			code3 = code3<<(n3*8&31) | w3>>((16-n3*8)&31)
			rng3 <<= n3 * 8 & 31
			pos3 += int(n3)
			setF(dst0, at, atF(vp, uintptr(y0))+atF(base0, uintptr(i)))
			setF(dst1, at, atF(vp, uintptr(y1))+atF(base1, uintptr(i)))
			setF(dst2, at, atF(vp, uintptr(y2))+atF(base2, uintptr(i)))
			setF(dst3, at, atF(vp, uintptr(y3))+atF(base3, uintptr(i)))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
	d2.pos, d2.code, d2.rng = pos2, code2, rng2
	d3.pos, d3.code, d3.rng = pos3, code3, rng3
}

// decodeRows2Delta decodes rows [0, rows) of a call with a base and no scale, which must hold the input bytes of every symbol.
func decodeRows2Delta(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	d1 := s[1].Dec
	in1, pos1, code1, rng1 := data(d1.in), d1.pos, d1.code, d1.rng
	dst0 := data(s[0].Dst)
	dst1 := data(s[1].Dst)
	base0 := data(s[0].Base)
	base1 := data(s[1].Base)
	vp := data(vals)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			r1 := divByTotal(rng1, mul)
			f1 := code1 / r1
			if f1 >= total {
				f1 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			y1 := uint32(at16(lut, uintptr(f1>>(shift&31))))
			for y1 > 0 && uint32(at16(next, uintptr(y1-1))) >= f1 {
				y1--
			}
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			y1 += (uint32(at16(next, uintptr(y1))) - f1) >> 31
			for uint32(at16(next, uintptr(y1))) < f1 {
				y1++
			}
			lo1 := uint32(0)
			if y1 > 0 {
				lo1 = uint32(at16(next, uintptr(y1-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			code1 -= r1 * lo1
			rng1 = r1 * (uint32(at16(next, uintptr(y1))) + 1 - lo1)
			n1 := uint((uint64(rng1)-topValue)>>63 + (uint64(rng1)-topValue>>8)>>63)
			w1 := uint32(at8(in1, uintptr(pos1)))<<8 | uint32(at8(in1, uintptr(pos1+1)))
			code1 = code1<<(n1*8&31) | w1>>((16-n1*8)&31)
			rng1 <<= n1 * 8 & 31
			pos1 += int(n1)
			setF(dst0, at, atF(vp, uintptr(y0))+atF(base0, uintptr(i)))
			setF(dst1, at, atF(vp, uintptr(y1))+atF(base1, uintptr(i)))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
	d1.pos, d1.code, d1.rng = pos1, code1, rng1
}

// decodeRows1Delta decodes rows [0, rows) of a call with a base and no scale, which must hold the input bytes of every symbol.
func decodeRows1Delta(tabs []*FreqTable, vals, scale []float32, s []RowStream, rows int) {
	d0 := s[0].Dec
	in0, pos0, code0, rng0 := data(d0.in), d0.pos, d0.code, d0.rng
	dst0 := data(s[0].Dst)
	base0 := data(s[0].Base)
	vp := data(vals)
	width := len(tabs)
	for off := 0; off < rows*width; off += width {
		for i, m := range tabs {
			next, lut, total, shift, mul := data(m.next16), data(m.lut), m.total, m.lutShift, m.divMul
			at := uintptr(off + i)
			r0 := divByTotal(rng0, mul)
			f0 := code0 / r0
			if f0 >= total {
				f0 = total - 1
			}
			y0 := uint32(at16(lut, uintptr(f0>>(shift&31))))
			for y0 > 0 && uint32(at16(next, uintptr(y0-1))) >= f0 {
				y0--
			}
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			y0 += (uint32(at16(next, uintptr(y0))) - f0) >> 31
			for uint32(at16(next, uintptr(y0))) < f0 {
				y0++
			}
			lo0 := uint32(0)
			if y0 > 0 {
				lo0 = uint32(at16(next, uintptr(y0-1))) + 1
			}
			code0 -= r0 * lo0
			rng0 = r0 * (uint32(at16(next, uintptr(y0))) + 1 - lo0)
			n0 := uint((uint64(rng0)-topValue)>>63 + (uint64(rng0)-topValue>>8)>>63)
			w0 := uint32(at8(in0, uintptr(pos0)))<<8 | uint32(at8(in0, uintptr(pos0+1)))
			code0 = code0<<(n0*8&31) | w0>>((16-n0*8)&31)
			rng0 <<= n0 * 8 & 31
			pos0 += int(n0)
			setF(dst0, at, atF(vp, uintptr(y0))+atF(base0, uintptr(i)))
		}
	}
	d0.pos, d0.code, d0.rng = pos0, code0, rng0
}
