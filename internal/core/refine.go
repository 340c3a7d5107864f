package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/ac"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Incremental (layered) KV cache streaming — the extension §9 sketches,
// "akin to Scalable Video Coding: initially sending low-quality KV caches
// and then incrementally improving quality by sending differences".
//
// A refinement bitstream upgrades a chunk decoded at a coarse level to a
// finer level's quality: for every delta (or raw value, under the
// DisableDelta ablation) it encodes the residual between the value and its
// coarse reconstruction, quantized with the finer level's bin. Applying
// the refinement to the coarse reconstruction yields exactly the finer
// level's error bound (half the fine bin), because the residual lies
// within half a coarse bin and is re-quantized at fine granularity.
//
// Residuals are uniform within the coarse bin, so their symbol
// probabilities under the fine quantizer are computable in closed form
// (the overlap of each fine bin with the coarse bin) — no extra offline
// profiling is needed. The layering overhead versus direct fine-level
// encoding is measured in the X1 experiment.

const (
	refineMagic   = "CGR1"
	refineVersion = 1
)

// refineQuantizer returns the residual quantizer for a from→to upgrade of
// layer l: fine-level bin size, clamp covering half a coarse bin.
func (c *Codec) refineQuantizer(l, layers int, from, to Level) (quant.Uniform, error) {
	binFrom := c.cfg.binsFor(from).BinFor(l, layers)
	binTo := c.cfg.binsFor(to).BinFor(l, layers)
	clamp := int32(math.Ceil(binFrom/(2*binTo))) + 1
	return quant.NewUniform(binTo, clamp)
}

// refineModel returns the AC model for a residual quantizer, derived in
// closed form: the residual d − dequant_from(d) is uniform on
// [−binFrom/2, +binFrom/2], so the probability of fine symbol s is the
// overlap of the interval it quantizes to with that range.
func refineModel(u quant.Uniform, binFrom float64) (*ac.FreqTable, error) {
	n := u.Levels()
	counts := make([]uint64, n)
	half := binFrom / 2
	const resolution = 1 << 20
	for s := 0; s < n; s++ {
		center := float64(u.ValueOf(s)) * u.Bin
		lo := math.Max(center-u.Bin/2, -half)
		hi := math.Min(center+u.Bin/2, half)
		if hi > lo {
			counts[s] = uint64((hi - lo) / binFrom * resolution)
		}
	}
	return ac.NewFreqTable(counts)
}

// EncodeRefinement encodes the upgrade of a chunk from level `from` to
// level `to` (to must be finer, i.e. to < from). The input kv is the
// chunk's exact tensor, as in EncodeChunk; the encoder reproduces the
// coarse reconstruction internally, so the caller does not need the
// coarse bitstream.
func (c *Codec) EncodeRefinement(kv *tensor.KV, chunkIndex, tokenOffset int, from, to Level) ([]byte, error) {
	if err := c.bank.CheckGeometry(kv); err != nil {
		return nil, err
	}
	if !c.cfg.ValidLevel(from) || !c.cfg.ValidLevel(to) {
		return nil, fmt.Errorf("core: invalid refinement levels %d->%d", from, to)
	}
	if to >= from {
		return nil, fmt.Errorf("core: refinement must move to a finer level, got %d->%d", from, to)
	}
	if kv.Tokens == 0 {
		return nil, errors.New("core: empty chunk")
	}
	if chunkIndex < 0 || tokenOffset < 0 {
		return nil, fmt.Errorf("core: negative chunk index %d or offset %d", chunkIndex, tokenOffset)
	}

	// An offline encode like EncodeChunk's: publish-class batches, giving
	// their slot and the processor back at every block boundary.
	g := c.cfg.GroupSize
	groups, batches := groupSpans(kv.Tokens, g, c.workers)
	numGroups := len(groups)
	streams := make([][]byte, numGroups)
	err := runBatches(batches, func(gi int, batch []span) error {
		var standing publishBatch
		c.slots.acquirePublish(&standing)
		defer c.slots.release(classPublish)
		for i, gr := range batch {
			s, err := c.encodeRefineGroup(kv, gr.start, gr.end, from, to, &standing)
			if err != nil {
				return err
			}
			streams[gi+i] = s
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]byte, 0, chunkHeaderSize(numGroups))
	out = append(out, refineMagic...)
	out = append(out, refineVersion, byte(from), byte(to))
	out = binary.AppendUvarint(out, uint64(chunkIndex))
	out = binary.AppendUvarint(out, uint64(tokenOffset))
	out = binary.AppendUvarint(out, uint64(kv.Layers))
	out = binary.AppendUvarint(out, uint64(kv.Tokens))
	out = binary.AppendUvarint(out, uint64(kv.Channels))
	out = binary.AppendUvarint(out, uint64(g))
	out = binary.AppendUvarint(out, uint64(numGroups))
	for _, s := range streams {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	for _, s := range streams {
		out = append(out, s...)
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(out))
	return append(out, sum[:]...), nil
}

// encodeRefineGroup encodes one group's residual stream, on the publish
// slot of the batch whose standing it is given.
func (c *Codec) encodeRefineGroup(kv *tensor.KV, start, end int, from, to Level, standing *publishBatch) ([]byte, error) {
	b := c.bank
	vq, err := quant.NewVectorwise(c.cfg.AnchorBits)
	if err != nil {
		return nil, err
	}
	binsFrom := c.cfg.binsFor(from)
	enc := ac.NewEncoder()
	channels := kv.Channels
	qrow := make([]int32, channels)
	arow := make([]float32, channels)

	for _, kind := range tensor.Kinds {
		for l := 0; l < kv.Layers; l++ {
			c.slots.yieldPublish(standing)
			yieldCoder()
			uFrom, err := quant.NewUniform(binsFrom.BinFor(l, kv.Layers), c.cfg.DeltaClamp)
			if err != nil {
				return nil, err
			}
			uRef, err := c.refineQuantizer(l, kv.Layers, from, to)
			if err != nil {
				return nil, err
			}
			model, err := refineModel(uRef, c.cfg.binsFor(from).BinFor(l, kv.Layers))
			if err != nil {
				return nil, err
			}

			if c.cfg.DisableDelta {
				for t := start; t < end; t++ {
					row := kv.Row(kind, l, t)
					for ch := 0; ch < channels; ch++ {
						r := row[ch] - uFrom.Dequantize(uFrom.Quantize(row[ch]))
						if err := enc.Encode(uRef.SymbolOf(uRef.Quantize(r)), model); err != nil {
							return nil, err
						}
					}
				}
				continue
			}

			// Anchors are level-independent; reproduce their dequantized
			// row to form the deltas the base stream carried.
			scales := b.anchorScales[kind][l*channels : (l+1)*channels]
			anchor := kv.Row(kind, l, start)
			for ch := 0; ch < channels; ch++ {
				vq.QuantizeWithScale(anchor[ch:ch+1], scales[ch], qrow[ch:ch+1])
				arow[ch] = float32(qrow[ch]) * scales[ch]
			}
			for t := start + 1; t < end; t++ {
				row := kv.Row(kind, l, t)
				for ch := 0; ch < channels; ch++ {
					d := row[ch] - arow[ch]
					r := d - uFrom.Dequantize(uFrom.Quantize(d))
					if err := enc.Encode(uRef.SymbolOf(uRef.Quantize(r)), model); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return enc.Bytes(), nil
}

// ApplyRefinement upgrades a decoded chunk with a refinement bitstream,
// returning a new chunk at the refinement's target level. base must have
// been decoded at the refinement's source level and match its geometry
// and position.
func (c *Codec) ApplyRefinement(base *Chunk, data []byte) (*Chunk, error) {
	if base == nil || base.KV == nil {
		return nil, errors.New("core: nil base chunk")
	}
	if len(data) < len(refineMagic)+3+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptChunk, len(data))
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptChunk)
	}
	if string(body[:4]) != refineMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptChunk, body[:4])
	}
	if body[4] != refineVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorruptChunk, body[4])
	}
	from, to := Level(body[5]), Level(body[6])
	if !c.cfg.ValidLevel(from) || !c.cfg.ValidLevel(to) || to >= from {
		return nil, fmt.Errorf("%w: invalid refinement levels %d->%d", ErrCorruptChunk, from, to)
	}
	if base.Level != from {
		return nil, fmt.Errorf("core: refinement upgrades level %d, base chunk is at %d", from, base.Level)
	}
	p := body[7:]
	read := func() (uint64, error) {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated header", ErrCorruptChunk)
		}
		p = p[n:]
		return v, nil
	}
	vals := make([]uint64, 7)
	for i := range vals {
		v, err := read()
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	chunkIndex, tokenOffset := int(vals[0]), int(vals[1])
	layers, tokens, channels := int(vals[2]), int(vals[3]), int(vals[4])
	groupSize, numGroups := int(vals[5]), int(vals[6])
	if chunkIndex != base.Index || tokenOffset != base.TokenOffset {
		return nil, fmt.Errorf("core: refinement addresses chunk (%d,%d), base is (%d,%d)",
			chunkIndex, tokenOffset, base.Index, base.TokenOffset)
	}
	if layers != base.KV.Layers || tokens != base.KV.Tokens || channels != base.KV.Channels {
		return nil, fmt.Errorf("%w: refinement geometry (%d,%d,%d) vs base (%d,%d,%d)",
			ErrGeometry, layers, tokens, channels, base.KV.Layers, base.KV.Tokens, base.KV.Channels)
	}
	if groupSize != c.cfg.GroupSize || numGroups != (tokens+groupSize-1)/groupSize {
		return nil, fmt.Errorf("%w: group layout mismatch", ErrCorruptChunk)
	}

	off := make([]int, numGroups+1) // group gi's stream is p[off[gi]:off[gi+1]]
	for i := 0; i < numGroups; i++ {
		v, err := read()
		if err != nil {
			return nil, err
		}
		// Bounded before converting, as in parseChunkV1: a 2^63-scale
		// length would wrap int and slip past the sum check.
		if v > uint64(len(p)) {
			return nil, fmt.Errorf("%w: group stream length %d exceeds %d payload bytes", ErrCorruptChunk, v, len(p))
		}
		off[i+1] = off[i] + int(v)
	}
	if off[numGroups] != len(p) {
		return nil, fmt.Errorf("%w: stream lengths sum to %d, have %d bytes", ErrCorruptChunk, off[numGroups], len(p))
	}

	// A decode: load-class batches, yielding the processor after each group.
	out := base.KV.Clone()
	_, batches := groupSpans(tokens, groupSize, c.workers)
	err := runBatches(batches, func(gi int, batch []span) error {
		c.slots.acquireLoad()
		defer c.slots.release(classLoad)
		for i, g := range batch {
			if err := c.applyRefineGroup(out, g.start, g.end, from, to, p[off[gi+i]:off[gi+i+1]]); err != nil {
				return err
			}
			yieldCoder()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Chunk{Index: base.Index, TokenOffset: base.TokenOffset, Level: to, KV: out}, nil
}

func (c *Codec) applyRefineGroup(kv *tensor.KV, start, end int, from, to Level, stream []byte) error {
	dec := ac.NewDecoder(stream)
	channels := kv.Channels
	for _, kind := range tensor.Kinds {
		for l := 0; l < kv.Layers; l++ {
			uRef, err := c.refineQuantizer(l, kv.Layers, from, to)
			if err != nil {
				return err
			}
			model, err := refineModel(uRef, c.cfg.binsFor(from).BinFor(l, kv.Layers))
			if err != nil {
				return err
			}
			first := start
			if !c.cfg.DisableDelta {
				first = start + 1 // anchors carry no residual
			}
			for t := first; t < end; t++ {
				row := kv.Row(kind, l, t)
				for ch := 0; ch < channels; ch++ {
					sym, err := dec.Decode(model)
					if err != nil {
						return err
					}
					row[ch] += uRef.Dequantize(uRef.ValueOf(sym))
				}
			}
		}
	}
	return nil
}
