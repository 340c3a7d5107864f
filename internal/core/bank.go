package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/ac"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ModelBank holds the codec's offline-profiled state for one LLM:
// the per-(kind, layer, channel-group) arithmetic-coding probability
// models — one set for anchor symbols, one per encoding level for delta
// symbols — and the static per-(kind, layer, channel) anchor quantization
// scales. The paper profiles these once per LLM and reuses them for every
// KV cache that model produces (§5.2); a bank is therefore immutable after
// Train and safe for concurrent use.
type ModelBank struct {
	cfg      Config
	layers   int
	channels int

	// anchorScales[kind][layer*channels+c] is the static vectorwise scale
	// for anchor quantization.
	anchorScales [2][]float32
	// anchorInv holds quant.Reciprocals of anchorScales, the multipliers the
	// encoder quantizes anchor rows with.
	anchorInv [2][]float64

	// deltaTables[level][mi] are the per-(kind, layer, channel-bucket)
	// delta models, mi = modelIndex(kind, layer, bucket).
	// anchorTables[ai] are the anchor models, pooled per (kind, layer)
	// (ai = anchorIndex): anchors are 10× rarer than deltas and have a
	// much wider symbol support, so per-channel anchor histograms would be
	// data-starved; the static per-channel scales already standardise them.
	anchorTables []*ac.FreqTable
	deltaTables  [][]*ac.FreqTable

	// rowDeltaTables[lv][kind*layers+layer] is the channel-indexed slice of
	// delta-model pointers for one row: entry ch points at
	// deltaTables[lv][modelIndex(kind, layer, bucketOf(ch))]. Precomputing
	// it once per bank removes the per-(token, channel) modelIndex/bucketOf
	// arithmetic from the codec's inner loops — a row encodes with one
	// bulk call over this slice.
	rowDeltaTables [][][]*ac.FreqTable
	// rowAnchorTables[kind*layers+layer] is the same shape for anchor rows:
	// every entry points at the (kind, layer) anchor model, so anchor and
	// delta rows decode through one kernel.
	rowAnchorTables [][]*ac.FreqTable

	// Dequantization tables, indexed by AC symbol, so the decode kernel
	// stores a symbol's reconstruction straight into the destination row.
	// anchorVals[s] is the anchor quantizer's integer value of s (scaled
	// per channel at decode); deltaVals[lv][third][s] is the delta
	// reconstruction of s at level lv for a layer third's bin size.
	anchorVals []float32
	deltaVals  [][3][]float32

	// fingerprint cache (the bank is immutable after Train).
	fpOnce sync.Once
	fp     string
	fpErr  error
}

// ErrGeometry is returned when a tensor does not match the bank's trained
// geometry.
var ErrGeometry = errors.New("core: tensor geometry does not match model bank")

// modelIndex maps (kind, layer, bucket) to a flat table index.
func (b *ModelBank) modelIndex(kind tensor.Kind, layer, bucket int) int {
	if b.cfg.GlobalACModel {
		return 0
	}
	nb := b.cfg.numBuckets(b.channels)
	return (int(kind)*b.layers+layer)*nb + bucket
}

func (b *ModelBank) numModels() int {
	if b.cfg.GlobalACModel {
		return 1
	}
	return 2 * b.layers * b.cfg.numBuckets(b.channels)
}

// anchorIndex maps (kind, layer) to an anchor-table index.
func (b *ModelBank) anchorIndex(kind tensor.Kind, layer int) int {
	if b.cfg.GlobalACModel {
		return 0
	}
	return int(kind)*b.layers + layer
}

// rowTables returns the per-channel delta-model slice for one
// (level, kind, layer) row.
func (b *ModelBank) rowTables(lv Level, kind tensor.Kind, layer int) []*ac.FreqTable {
	return b.rowDeltaTables[lv][int(kind)*b.layers+layer]
}

// buildRowTables materialises the per-row table slices and the
// dequantization tables. Called once at the end of Train and
// UnmarshalBank.
func (b *ModelBank) buildRowTables() {
	b.rowAnchorTables = make([][]*ac.FreqTable, 2*b.layers)
	for _, kind := range tensor.Kinds {
		for l := 0; l < b.layers; l++ {
			row := make([]*ac.FreqTable, b.channels)
			for ch := range row {
				row[ch] = b.anchorTables[b.anchorIndex(kind, l)]
			}
			b.rowAnchorTables[int(kind)*b.layers+l] = row
		}
	}
	for kd := range b.anchorScales {
		b.anchorInv[kd] = quant.Reciprocals(b.anchorScales[kd])
	}
	// Entry by entry the arithmetic of quant's DequantizeRow methods, so
	// decoded tensors keep their exact bits.
	vq := quant.Vectorwise{Bits: b.cfg.AnchorBits}
	b.anchorVals = make([]float32, vq.Levels())
	for s := range b.anchorVals {
		b.anchorVals[s] = float32(vq.ValueOf(s))
	}
	b.deltaVals = make([][3][]float32, len(b.deltaTables))
	for lv := range b.deltaVals {
		bins := b.cfg.binsFor(Level(lv))
		for third, bin := range bins.Bins {
			u := quant.Uniform{Bin: bin, Clamp: b.cfg.DeltaClamp}
			vals := make([]float32, u.Levels())
			for s := range vals {
				vals[s] = u.Dequantize(u.ValueOf(s))
			}
			b.deltaVals[lv][third] = vals
		}
	}
	b.rowDeltaTables = make([][][]*ac.FreqTable, len(b.deltaTables))
	for lv, tabs := range b.deltaTables {
		rows := make([][]*ac.FreqTable, 2*b.layers)
		for _, kind := range tensor.Kinds {
			for l := 0; l < b.layers; l++ {
				row := make([]*ac.FreqTable, b.channels)
				for ch := range row {
					row[ch] = tabs[b.modelIndex(kind, l, b.cfg.bucketOf(ch, b.channels))]
				}
				rows[int(kind)*b.layers+l] = row
			}
		}
		b.rowDeltaTables[lv] = rows
	}
}

func (b *ModelBank) numAnchorModels() int {
	if b.cfg.GlobalACModel {
		return 1
	}
	return 2 * b.layers
}

// smoothedTable converts a histogram into a FreqTable after blending the
// empirical counts with a discrete-Gaussian prior fitted to the
// histogram's mean and variance. For well-sampled histograms the prior is
// negligible; for data-starved ones (wide-support anchor distributions) it
// fills unobserved symbols near the mass so they stay cheaply encodable.
func smoothedTable(h *ac.Histogram) (*ac.FreqTable, error) {
	counts := h.Counts()
	n := h.Count()
	if n == 0 {
		return h.Table()
	}
	var mean, m2 float64
	for s, c := range counts {
		mean += float64(s) * float64(c)
	}
	mean /= float64(n)
	for s, c := range counts {
		d := float64(s) - mean
		m2 += d * d * float64(c)
	}
	sigma := math.Sqrt(m2 / float64(n))
	if sigma < 0.3 {
		sigma = 0.3
	}
	// Prior worth ~256 pseudo-observations: dominant when n is small,
	// negligible when n ≫ 256.
	const priorN = 256
	prior := make([]float64, len(counts))
	var priorSum float64
	for s := range prior {
		z := (float64(s) - mean) / sigma
		prior[s] = math.Exp(-0.5 * z * z)
		priorSum += prior[s]
	}
	blended := make([]uint64, len(counts))
	scale := 1024.0 // fixed-point resolution for the blend
	for s := range blended {
		blended[s] = counts[s]*uint64(scale) + uint64(priorN*scale*prior[s]/priorSum)
	}
	return ac.NewFreqTable(blended)
}

// Config returns the codec configuration the bank was trained with.
func (b *ModelBank) Config() Config { return b.cfg }

// Geometry returns the trained (layers, channels).
func (b *ModelBank) Geometry() (layers, channels int) { return b.layers, b.channels }

// CheckGeometry reports whether kv can be coded with this bank.
func (b *ModelBank) CheckGeometry(kv *tensor.KV) error {
	if kv.Layers != b.layers || kv.Channels != b.channels {
		return fmt.Errorf("%w: tensor (%d,·,%d) vs bank (%d,·,%d)",
			ErrGeometry, kv.Layers, kv.Channels, b.layers, b.channels)
	}
	return nil
}

// Train profiles a model bank from sample KV caches produced by the target
// LLM. All samples must share geometry. The samples play the role of the
// offline profiling set the paper draws from the LLM (§5.2); a few
// thousand tokens suffice because statistics are pooled per
// (layer, channel-group).
func Train(cfg Config, samples []*tensor.KV) (*ModelBank, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("core: Train requires at least one sample KV cache")
	}
	layers, channels := samples[0].Layers, samples[0].Channels
	for i, s := range samples {
		if s.Layers != layers || s.Channels != channels {
			return nil, fmt.Errorf("%w: sample %d", ErrGeometry, i)
		}
		if s.Tokens < cfg.GroupSize {
			return nil, fmt.Errorf("core: sample %d has %d tokens, below group size %d", i, s.Tokens, cfg.GroupSize)
		}
	}

	b := &ModelBank{cfg: cfg, layers: layers, channels: channels}
	for kd := range b.anchorScales {
		b.anchorScales[kd] = make([]float32, layers*channels)
	}

	// Pass 1: static anchor scales. Using |mean| + 6·std per coordinate
	// (rather than the empirical max) makes the coverage statistical:
	// anchors of unseen contexts clamp with negligible probability even
	// when their extremes exceed anything in the training set.
	sum := [2][]float64{make([]float64, layers*channels), make([]float64, layers*channels)}
	sumSq := [2][]float64{make([]float64, layers*channels), make([]float64, layers*channels)}
	var nAnchors [2][]int64
	nAnchors[0] = make([]int64, layers*channels)
	nAnchors[1] = make([]int64, layers*channels)
	for _, s := range samples {
		for _, kind := range tensor.Kinds {
			for l := 0; l < layers; l++ {
				for t := 0; t < s.Tokens; t += cfg.GroupSize {
					row := s.Row(kind, l, t)
					base := l * channels
					for c, x := range row {
						f := float64(x)
						sum[kind][base+c] += f
						sumSq[kind][base+c] += f * f
						nAnchors[kind][base+c]++
					}
				}
			}
		}
	}
	vq, err := quant.NewVectorwise(cfg.AnchorBits)
	if err != nil {
		return nil, err
	}
	maxQ := float64(vq.MaxQ())
	for kd := range b.anchorScales {
		for i := range b.anchorScales[kd] {
			n := float64(nAnchors[kd][i])
			if n == 0 {
				continue
			}
			mean := sum[kd][i] / n
			v := sumSq[kd][i]/n - mean*mean
			if v < 0 {
				v = 0
			}
			reach := math.Abs(mean) + 6*math.Sqrt(v)
			if reach == 0 {
				continue
			}
			b.anchorScales[kd][i] = float32(reach / maxQ)
		}
	}

	// Pass 2: symbol histograms.
	nm := b.numModels()
	anchorHists := make([]*ac.Histogram, b.numAnchorModels())
	for i := range anchorHists {
		anchorHists[i] = ac.NewHistogram(vq.Levels())
	}
	deltaHists := make([][]*ac.Histogram, cfg.Levels())
	deltaLevels := int(2*cfg.DeltaClamp + 1)
	for lv := range deltaHists {
		deltaHists[lv] = make([]*ac.Histogram, nm)
		for i := range deltaHists[lv] {
			deltaHists[lv][i] = ac.NewHistogram(deltaLevels)
		}
	}

	qrow := make([]int32, channels)
	arow := make([]float32, channels)
	for _, s := range samples {
		for _, kind := range tensor.Kinds {
			for l := 0; l < layers; l++ {
				scales := b.anchorScales[kind][l*channels : (l+1)*channels]
				for g := 0; g+cfg.GroupSize <= s.Tokens || g < s.Tokens; g += cfg.GroupSize {
					end := g + cfg.GroupSize
					if end > s.Tokens {
						end = s.Tokens
					}
					anchor := s.Row(kind, l, g)
					// Anchor symbols and dequantized anchor row.
					ai := b.anchorIndex(kind, l)
					for c := 0; c < channels; c++ {
						vq.QuantizeWithScale(anchor[c:c+1], scales[c], qrow[c:c+1])
						arow[c] = float32(qrow[c]) * scales[c]
						anchorHists[ai].Observe(vq.SymbolOf(qrow[c]))
					}
					for lv := 0; lv < cfg.Levels(); lv++ {
						bins := cfg.binsFor(Level(lv))
						u, err := quant.NewUniform(bins.BinFor(l, layers), cfg.DeltaClamp)
						if err != nil {
							return nil, err
						}
						if cfg.DisableDelta {
							// Raw-value mode: every token quantized directly.
							for t := g; t < end; t++ {
								row := s.Row(kind, l, t)
								for c := 0; c < channels; c++ {
									mi := b.modelIndex(kind, l, cfg.bucketOf(c, channels))
									deltaHists[lv][mi].Observe(u.SymbolOf(u.Quantize(row[c])))
								}
							}
							continue
						}
						for t := g + 1; t < end; t++ {
							row := s.Row(kind, l, t)
							for c := 0; c < channels; c++ {
								mi := b.modelIndex(kind, l, cfg.bucketOf(c, channels))
								deltaHists[lv][mi].Observe(u.SymbolOf(u.Quantize(row[c] - arow[c])))
							}
						}
					}
				}
			}
		}
	}

	b.anchorTables = make([]*ac.FreqTable, b.numAnchorModels())
	for i, h := range anchorHists {
		tb, err := smoothedTable(h)
		if err != nil {
			return nil, fmt.Errorf("core: anchor table %d: %w", i, err)
		}
		b.anchorTables[i] = tb
	}
	b.deltaTables = make([][]*ac.FreqTable, cfg.Levels())
	for lv := range deltaHists {
		b.deltaTables[lv] = make([]*ac.FreqTable, nm)
		for i, h := range deltaHists[lv] {
			tb, err := smoothedTable(h)
			if err != nil {
				return nil, fmt.Errorf("core: delta table l%d/%d: %w", lv, i, err)
			}
			b.deltaTables[lv][i] = tb
		}
	}
	b.buildRowTables()
	return b, nil
}

// Fingerprint returns a stable hex digest of the bank's trained state
// (config, geometry, scales and probability tables). Two banks with the
// same fingerprint produce bit-identical bitstreams for the same input,
// so the content-addressed store's publish-side dedup keys incorporate
// it: a re-trained bank invalidates old fingerprints rather than reusing
// stale encodings. Computed once; the bank is immutable after Train.
func (b *ModelBank) Fingerprint() (string, error) {
	b.fpOnce.Do(func() {
		data, err := b.MarshalBinary()
		if err != nil {
			b.fpErr = err
			return
		}
		sum := sha256.Sum256(data)
		b.fp = hex.EncodeToString(sum[:])
	})
	return b.fp, b.fpErr
}

// bank serialization ----------------------------------------------------

const bankMagic = "CGBK"

// MarshalBinary serialises the bank (config, geometry, anchor scales, all
// probability tables) with a trailing CRC-32.
func (b *ModelBank) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(bankMagic)
	w := func(vs ...uint64) {
		for _, v := range vs {
			var tmp [binary.MaxVarintLen64]byte
			n := binary.PutUvarint(tmp[:], v)
			buf.Write(tmp[:n])
		}
	}
	flags := uint64(0)
	if b.cfg.DisableDelta {
		flags |= 1
	}
	if b.cfg.DisableLayerwise {
		flags |= 2
	}
	if b.cfg.GlobalACModel {
		flags |= 4
	}
	w(uint64(b.cfg.GroupSize), uint64(b.cfg.AnchorBits), uint64(b.cfg.ChunkTokens),
		uint64(b.cfg.ChannelBuckets), uint64(b.cfg.DeltaClamp), flags,
		uint64(len(b.cfg.LevelMultipliers)))
	for _, m := range b.cfg.LevelMultipliers {
		var t [8]byte
		binary.BigEndian.PutUint64(t[:], math.Float64bits(m))
		buf.Write(t[:])
	}
	for _, bin := range b.cfg.BaseBins.Bins {
		var t [8]byte
		binary.BigEndian.PutUint64(t[:], math.Float64bits(bin))
		buf.Write(t[:])
	}
	w(uint64(b.layers), uint64(b.channels))
	for kd := range b.anchorScales {
		for _, s := range b.anchorScales[kd] {
			var t [4]byte
			binary.BigEndian.PutUint32(t[:], math.Float32bits(s))
			buf.Write(t[:])
		}
	}
	writeTable := func(tb *ac.FreqTable) error {
		data, err := tb.MarshalBinary()
		if err != nil {
			return err
		}
		w(uint64(len(data)))
		buf.Write(data)
		return nil
	}
	for _, tb := range b.anchorTables {
		if err := writeTable(tb); err != nil {
			return nil, err
		}
	}
	for _, lvl := range b.deltaTables {
		for _, tb := range lvl {
			if err := writeTable(tb); err != nil {
				return nil, err
			}
		}
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(sum[:])
	return buf.Bytes(), nil
}

// UnmarshalBank restores a bank serialised by MarshalBinary.
func UnmarshalBank(data []byte) (*ModelBank, error) {
	if len(data) < len(bankMagic)+4 {
		return nil, fmt.Errorf("core: bank data too short (%d bytes)", len(data))
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, errors.New("core: bank checksum mismatch")
	}
	if string(body[:4]) != bankMagic {
		return nil, fmt.Errorf("core: bad bank magic %q", body[:4])
	}
	r := bytes.NewReader(body[4:])
	ru := func() (uint64, error) { return binary.ReadUvarint(r) }
	rf64 := func() (float64, error) {
		var t [8]byte
		if _, err := io.ReadFull(r, t[:]); err != nil {
			return 0, err
		}
		return math.Float64frombits(binary.BigEndian.Uint64(t[:])), nil
	}
	rf32 := func() (float32, error) {
		var t [4]byte
		if _, err := io.ReadFull(r, t[:]); err != nil {
			return 0, err
		}
		return math.Float32frombits(binary.BigEndian.Uint32(t[:])), nil
	}

	var cfg Config
	vals := make([]uint64, 7)
	for i := range vals {
		v, err := ru()
		if err != nil {
			return nil, fmt.Errorf("core: bank header: %w", err)
		}
		vals[i] = v
	}
	cfg.GroupSize = int(vals[0])
	cfg.AnchorBits = int(vals[1])
	cfg.ChunkTokens = int(vals[2])
	cfg.ChannelBuckets = int(vals[3])
	cfg.DeltaClamp = int32(vals[4])
	cfg.DisableDelta = vals[5]&1 != 0
	cfg.DisableLayerwise = vals[5]&2 != 0
	cfg.GlobalACModel = vals[5]&4 != 0
	nLevels := int(vals[6])
	if nLevels <= 0 || nLevels > 64 {
		return nil, fmt.Errorf("core: bank has %d levels", nLevels)
	}
	cfg.LevelMultipliers = make([]float64, nLevels)
	for i := range cfg.LevelMultipliers {
		v, err := rf64()
		if err != nil {
			return nil, err
		}
		cfg.LevelMultipliers[i] = v
	}
	for i := range cfg.BaseBins.Bins {
		v, err := rf64()
		if err != nil {
			return nil, err
		}
		cfg.BaseBins.Bins[i] = v
	}
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("core: bank config: %w", err)
	}

	layers64, err := ru()
	if err != nil {
		return nil, err
	}
	channels64, err := ru()
	if err != nil {
		return nil, err
	}
	const maxDim = 1 << 20
	if layers64 == 0 || channels64 == 0 || layers64 > maxDim || channels64 > maxDim {
		return nil, fmt.Errorf("core: implausible bank geometry (%d,%d)", layers64, channels64)
	}
	b := &ModelBank{cfg: cfg, layers: int(layers64), channels: int(channels64)}
	for kd := range b.anchorScales {
		b.anchorScales[kd] = make([]float32, b.layers*b.channels)
		for i := range b.anchorScales[kd] {
			v, err := rf32()
			if err != nil {
				return nil, err
			}
			b.anchorScales[kd][i] = v
		}
	}
	readTable := func() (*ac.FreqTable, error) {
		n, err := ru()
		if err != nil {
			return nil, err
		}
		if n > uint64(r.Len()) {
			return nil, errors.New("core: truncated bank table")
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, err
		}
		var tb ac.FreqTable
		if err := tb.UnmarshalBinary(raw); err != nil {
			return nil, err
		}
		return &tb, nil
	}
	nm := b.numModels()
	b.anchorTables = make([]*ac.FreqTable, b.numAnchorModels())
	for i := range b.anchorTables {
		if b.anchorTables[i], err = readTable(); err != nil {
			return nil, fmt.Errorf("core: anchor table %d: %w", i, err)
		}
	}
	b.deltaTables = make([][]*ac.FreqTable, cfg.Levels())
	for lv := range b.deltaTables {
		b.deltaTables[lv] = make([]*ac.FreqTable, nm)
		for i := range b.deltaTables[lv] {
			if b.deltaTables[lv][i], err = readTable(); err != nil {
				return nil, fmt.Errorf("core: delta table l%d/%d: %w", lv, i, err)
			}
		}
	}
	b.buildRowTables()
	return b, nil
}
