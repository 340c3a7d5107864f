// Package quant implements the quantizers used by the CacheGen codec and
// its baselines:
//
//   - Uniform: fixed-bin-size scalar quantization. CacheGen applies it to
//     delta tensors with per-layer-group bin sizes (§5.2, §C.2).
//   - Vectorwise: per-vector max-scaled integer quantization (the method of
//     LLM.int8 cited by the paper), used for anchor tokens (8-bit) and for
//     the "default quantization" baseline at 3/4/8 bits (§7.1).
//
// Quantizers are deliberately simple value types: the codec composes them
// with delta encoding and arithmetic coding; the baselines use them alone.
package quant

import (
	"fmt"
	"math"
)

// Uniform is a scalar quantizer with a fixed bin size: Quantize maps x to
// round(x/Bin) clamped to [-Clamp, +Clamp], Dequantize maps q back to
// q·Bin. The worst-case reconstruction error for unclamped values is Bin/2.
type Uniform struct {
	Bin   float64 // bin width; must be > 0
	Clamp int32   // symmetric clamp bound on the quantized integer
}

// NewUniform returns a Uniform quantizer with the given bin size and clamp.
func NewUniform(bin float64, clamp int32) (Uniform, error) {
	if bin <= 0 || math.IsNaN(bin) || math.IsInf(bin, 0) {
		return Uniform{}, fmt.Errorf("quant: invalid bin size %v", bin)
	}
	if clamp <= 0 {
		return Uniform{}, fmt.Errorf("quant: invalid clamp %d", clamp)
	}
	return Uniform{Bin: bin, Clamp: clamp}, nil
}

// Quantize maps x to its clamped bin index.
func (u Uniform) Quantize(x float32) int32 {
	return roundClamp(float64(x)/u.Bin, u.Clamp)
}

// roundClamp rounds x half to even and saturates it to [-clamp, +clamp]
// before converting: Go leaves the int32 conversion of a float outside the
// int32 range implementation-defined (amd64 yields MinInt32, arm64
// saturates), so clamping after the conversion would quantize a huge delta,
// or ±Inf, to an architecture-dependent extreme. Every quantizer rounds
// through it, so the same KV encodes to the same bitstream everywhere:
// ±Inf saturates to ±clamp and NaN quantizes to 0.
func roundClamp(x float64, clamp int32) int32 {
	r, c := math.RoundToEven(x), float64(clamp)
	switch {
	case r >= -c && r <= c:
		return int32(r)
	case r > c:
		return clamp
	case r < -c:
		return -clamp
	}
	return 0 // NaN
}

// Dequantize maps a bin index back to its reconstruction value.
func (u Uniform) Dequantize(q int32) float32 {
	return float32(float64(q) * u.Bin)
}

// Levels returns the number of distinct quantized values (the alphabet
// size for entropy coding): 2·Clamp+1.
func (u Uniform) Levels() int { return int(2*u.Clamp + 1) }

// SymbolOf converts a quantized value to a non-negative symbol in
// [0, Levels) for arithmetic coding.
func (u Uniform) SymbolOf(q int32) int { return int(q + u.Clamp) }

// ValueOf converts a symbol back to the quantized value.
func (u Uniform) ValueOf(sym int) int32 { return int32(sym) - u.Clamp }

// QuantizeRow writes the AC symbols of one row into syms: with base nil,
// syms[i] = SymbolOf(Quantize(row[i])); otherwise the row is quantized as
// deltas against base, syms[i] = SymbolOf(Quantize(row[i]-base[i])). It is
// the codec's fused quantize step — identical arithmetic to the scalar
// calls, with the clamp bounds hoisted out of the loop.
func (u Uniform) QuantizeRow(row, base []float32, syms []int) {
	bin, clamp := u.Bin, u.Clamp
	if base == nil {
		for i, x := range row {
			syms[i] = int(roundClamp(float64(x)/bin, clamp) + clamp)
		}
		return
	}
	for i, x := range row {
		syms[i] = int(roundClamp(float64(x-base[i])/bin, clamp) + clamp)
	}
}

// DequantizeRow is QuantizeRow's inverse: with base nil, dst[i] =
// Dequantize(ValueOf(syms[i])); otherwise dst[i] = base[i] + that
// reconstruction. dst may alias neither syms nor base.
func (u Uniform) DequantizeRow(syms []int, base, dst []float32) {
	bin, clamp := u.Bin, u.Clamp
	if base == nil {
		for i, s := range syms {
			dst[i] = float32(float64(int32(s)-clamp) * bin)
		}
		return
	}
	for i, s := range syms {
		dst[i] = base[i] + float32(float64(int32(s)-clamp)*bin)
	}
}

// Vectorwise is a per-vector max-scaled integer quantizer with the given
// bit width b: each vector is scaled by maxAbs/(2^(b-1)-1) and rounded.
// This is the "vectorwise quantization" the paper borrows from prior work
// for anchors and the uniform-quantization baseline.
type Vectorwise struct {
	Bits int // bit width in [2, 16]
}

// NewVectorwise returns a vectorwise quantizer of the given bit width.
func NewVectorwise(bits int) (Vectorwise, error) {
	if bits < 2 || bits > 16 {
		return Vectorwise{}, fmt.Errorf("quant: vectorwise bits %d outside [2,16]", bits)
	}
	return Vectorwise{Bits: bits}, nil
}

// MaxQ returns the largest quantized magnitude: 2^(bits-1)-1.
func (v Vectorwise) MaxQ() int32 { return int32(1)<<(v.Bits-1) - 1 }

// Levels returns the alphabet size 2·MaxQ+1.
func (v Vectorwise) Levels() int { return int(2*v.MaxQ() + 1) }

// Quantize quantizes vec into out (both length n) and returns the scale.
// A zero vector quantizes to all-zero with scale 0.
func (v Vectorwise) Quantize(vec []float32, out []int32) float32 {
	var maxAbs float32
	for _, x := range vec {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	scale := maxAbs / float32(v.MaxQ())
	inv := 1 / float64(scale)
	maxQ := v.MaxQ()
	for i, x := range vec {
		out[i] = roundClamp(float64(x)*inv, maxQ)
	}
	return scale
}

// Dequantize reconstructs quantized values with the given scale into out.
func (v Vectorwise) Dequantize(qs []int32, scale float32, out []float32) {
	for i, q := range qs {
		out[i] = float32(q) * scale
	}
}

// QuantizeWithScale quantizes vec with a fixed externally-supplied scale,
// used when the scale was profiled offline (the codec stores static
// per-(layer, channel) anchor scales in its model bank so no per-group
// scales travel in the bitstream).
func (v Vectorwise) QuantizeWithScale(vec []float32, scale float32, out []int32) {
	maxQ := v.MaxQ()
	if scale == 0 {
		for i := range out {
			out[i] = 0
		}
		return
	}
	inv := 1 / float64(scale)
	for i, x := range vec {
		out[i] = roundClamp(float64(x)*inv, maxQ)
	}
}

// SymbolOf converts a quantized value to a symbol in [0, Levels).
func (v Vectorwise) SymbolOf(q int32) int { return int(q + v.MaxQ()) }

// ValueOf converts a symbol back to the quantized value.
func (v Vectorwise) ValueOf(sym int) int32 { return int32(sym) - v.MaxQ() }

// Reciprocals returns QuantizeWithScale's multiplier 1/float64(scale) for
// every scale (0 for a zero scale, which quantizes to 0 without it). Static
// scales have static reciprocals: the codec computes them once per bank
// and hands them to QuantizeRow, so the division leaves the per-element loop.
func Reciprocals(scales []float32) []float64 {
	inv := make([]float64, len(scales))
	for i, scale := range scales {
		if scale != 0 {
			inv[i] = 1 / float64(scale)
		}
	}
	return inv
}

// QuantizeRow quantizes one row with per-channel static scales and their
// Reciprocals, writing the AC symbols into syms and the dequantized
// reconstructions into recon (the anchor row the codec's delta tokens
// reference). Channel i with scale 0 quantizes to 0 and reconstructs to 0.
// The arithmetic is identical to per-channel QuantizeWithScale + SymbolOf +
// dequantize.
func (v Vectorwise) QuantizeRow(row, scales []float32, inv []float64, syms []int, recon []float32) {
	maxQ := v.MaxQ()
	for i, x := range row {
		scale := scales[i]
		var q int32
		if scale != 0 {
			// Multiply by the reciprocal, as QuantizeWithScale does: x/s
			// rounds differently from x*(1/s) in corner cases, and the
			// bitstreams must stay identical.
			q = roundClamp(float64(x)*inv[i], maxQ)
		}
		syms[i] = int(q + maxQ)
		recon[i] = float32(q) * scale
	}
}

// DequantizeRow reconstructs a row from AC symbols and per-channel scales:
// dst[i] = ValueOf(syms[i]) * scales[i].
func (v Vectorwise) DequantizeRow(syms []int, scales, dst []float32) {
	maxQ := v.MaxQ()
	for i, s := range syms {
		dst[i] = float32(int32(s)-maxQ) * scales[i]
	}
}

// LayerGroupBins maps each layer of an L-layer model to its delta-tensor
// bin size, implementing the paper's layer-wise quantization: layers are
// split into three equal groups and earlier groups get smaller bins
// (more precision) because shallow layers are more loss-sensitive
// (§5.1.2, §5.2). The default bins are {0.5, 1.0, 1.5} (§C.2); an encoding
// level scales all three by its multiplier (§5.3).
type LayerGroupBins struct {
	Bins [3]float64 // bin size per layer third, shallow→deep
}

// DefaultLayerBins returns the paper's default bin sizes (§C.2).
func DefaultLayerBins() LayerGroupBins {
	return LayerGroupBins{Bins: [3]float64{0.5, 1.0, 1.5}}
}

// Scaled returns a copy with every bin multiplied by m.
func (b LayerGroupBins) Scaled(m float64) LayerGroupBins {
	return LayerGroupBins{Bins: [3]float64{b.Bins[0] * m, b.Bins[1] * m, b.Bins[2] * m}}
}

// GroupOf returns the layer group (0, 1 or 2) of layer l in an L-layer
// model: first third, middle third, last third.
func (b LayerGroupBins) GroupOf(l, layers int) int {
	if layers <= 0 {
		return 0
	}
	g := 3 * l / layers
	if g > 2 {
		g = 2
	}
	return g
}

// BinFor returns the bin size for layer l of an L-layer model.
func (b LayerGroupBins) BinFor(l, layers int) float64 {
	return b.Bins[b.GroupOf(l, layers)]
}
