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
	"runtime"
	"sync"
	"sync/atomic"

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
	// Both point into ac.FreqTables sets, one per kind of table and level
	// (tableSets).
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

// tableSets lays out the bank's (still empty) tables: the anchor tables
// as one ac.FreqTables set and each level's delta tables as another, in
// index order, so the tables one row decodes with sit side by side
// whatever the heap held when the bank was built. It returns the sets for
// the caller to fill.
func (b *ModelBank) tableSets() (anchors *ac.FreqTables, deltas []*ac.FreqTables, err error) {
	anchorN, deltaN := b.cfg.alphabets()
	if anchors, err = ac.NewFreqTables(b.numAnchorModels(), anchorN); err != nil {
		return nil, nil, err
	}
	b.anchorTables = tablesOf(anchors)
	deltas = make([]*ac.FreqTables, b.cfg.Levels())
	b.deltaTables = make([][]*ac.FreqTable, len(deltas))
	for lv := range deltas {
		if deltas[lv], err = ac.NewFreqTables(b.numModels(), deltaN); err != nil {
			return nil, nil, err
		}
		b.deltaTables[lv] = tablesOf(deltas[lv])
	}
	return anchors, deltas, nil
}

func tablesOf(set *ac.FreqTables) []*ac.FreqTable {
	tabs := make([]*ac.FreqTable, set.Len())
	for i := range tabs {
		tabs[i] = set.Table(i)
	}
	return tabs
}

// smoothedCounts blends a histogram's symbol counts with a
// discrete-Gaussian prior fitted to the histogram's mean and variance, and
// returns the counts to build its FreqTable from. For well-sampled
// histograms the prior is negligible; for data-starved ones (wide-support
// anchor distributions) it fills unobserved symbols near the mass so they
// stay cheaply encodable. prior and blended are scratch space of at least
// len(counts) entries.
func smoothedCounts(counts []uint64, prior []float64, blended []uint64) []uint64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return counts
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
	prior, blended = prior[:len(counts)], blended[:len(counts)]
	var priorSum float64
	for s := range prior {
		z := (float64(s) - mean) / sigma
		// e^x underflows to exactly 0 below x ≈ -745.13, so skipping the
		// call there changes no bit; it skips most of a narrow delta
		// distribution's tails.
		prior[s] = 0
		if x := -0.5 * z * z; x > -750 {
			prior[s] = math.Exp(x)
		}
		priorSum += prior[s]
	}
	scale := 1024.0 // fixed-point resolution for the blend
	for s := range blended {
		blended[s] = counts[s]*uint64(scale) + uint64(priorN*scale*prior[s]/priorSum)
	}
	return blended
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
//
// Every statistic of a (kind, layer) block — its anchor scales, symbol
// histograms and probability tables — is computed from that block's rows
// alone, so blocks train on up to cfg.Workers goroutines (0 means
// GOMAXPROCS) and the bank is byte-identical at any worker count.
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
	vq, err := quant.NewVectorwise(cfg.AnchorBits)
	if err != nil {
		return nil, err
	}

	b := &ModelBank{cfg: cfg, layers: layers, channels: channels}
	for kd := range b.anchorScales {
		b.anchorScales[kd] = make([]float32, layers*channels)
	}
	anchorSet, deltaSets, err := b.tableSets()
	if err != nil {
		return nil, err
	}

	blocks := 2 * layers
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	trainers := make([]*blockTrainer, min(workers, blocks))
	errs := make([]error, blocks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range trainers {
		tr := newBlockTrainer(b, vq, anchorSet, deltaSets)
		trainers[w] = tr
		wg.Add(1)
		go func() {
			defer wg.Done()
			for blk := int(next.Add(1) - 1); blk < blocks; blk = int(next.Add(1) - 1) {
				errs[blk] = tr.train(samples, blk)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if cfg.GlobalACModel {
		// Every block fed the one shared model: sum the workers' counts
		// (integers, so the order is immaterial) and build its tables.
		total := trainers[0]
		for _, tr := range trainers[1:] {
			for i, c := range tr.counts {
				total.counts[i] += c
			}
		}
		if err := total.buildTables(0); err != nil {
			return nil, err
		}
	}
	b.buildRowTables()
	return b, nil
}

// blockTrainer is one training worker: it profiles (kind, layer) blocks
// one at a time, reusing its histograms and row buffers across them.
type blockTrainer struct {
	b         *ModelBank
	vq        quant.Vectorwise
	anchorSet *ac.FreqTables   // the sets its tables are built into
	deltaSets []*ac.FreqTables // (one per level)

	nb  int // channel buckets per block
	us  []quant.Uniform
	sum []float64 // per-channel Σx over a block's anchor tokens
	sq  []float64 // per-channel Σx²

	syms []int
	arow []float32 // the dequantized anchor row deltas are taken against

	prior   []float64 // smoothedCounts' scratch
	blended []uint64

	// counts backs every histogram of a block: the anchor histogram, then
	// one per (level, bucket). deltaRows[lv][ch] is channel ch's delta
	// histogram at level lv, so a quantized row is counted in one pass.
	counts    []uint64
	anchor    []uint64
	delta     [][][]uint64 // [level][bucket]
	deltaRows [][][]uint64 // [level][channel]
}

func newBlockTrainer(b *ModelBank, vq quant.Vectorwise, anchorSet *ac.FreqTables, deltaSets []*ac.FreqTables) *blockTrainer {
	cfg, channels := &b.cfg, b.channels
	nb := cfg.numBuckets(channels)
	anchorN, deltaN := cfg.alphabets()
	tr := &blockTrainer{
		b: b, vq: vq, nb: nb,
		anchorSet: anchorSet, deltaSets: deltaSets,
		us:        make([]quant.Uniform, cfg.Levels()),
		sum:       make([]float64, channels),
		sq:        make([]float64, channels),
		syms:      make([]int, channels),
		arow:      make([]float32, channels),
		prior:     make([]float64, max(anchorN, deltaN)),
		blended:   make([]uint64, max(anchorN, deltaN)),
		counts:    make([]uint64, anchorN+cfg.Levels()*nb*deltaN),
		delta:     make([][][]uint64, cfg.Levels()),
		deltaRows: make([][][]uint64, cfg.Levels()),
	}
	tr.anchor = tr.counts[:anchorN]
	rest := tr.counts[anchorN:]
	for lv := range tr.delta {
		tr.delta[lv] = make([][]uint64, nb)
		for bk := range tr.delta[lv] {
			tr.delta[lv][bk], rest = rest[:deltaN:deltaN], rest[deltaN:]
		}
		tr.deltaRows[lv] = make([][]uint64, channels)
		for ch := range tr.deltaRows[lv] {
			tr.deltaRows[lv][ch] = tr.delta[lv][cfg.bucketOf(ch, channels)]
		}
	}
	return tr
}

// train profiles block blk = kind·layers + layer: its anchor scales, then
// its symbol histograms and, unless every block shares one model, its
// probability tables.
func (tr *blockTrainer) train(samples []*tensor.KV, blk int) error {
	b := tr.b
	cfg := &b.cfg
	kind, l := tensor.Kind(blk/b.layers), blk%b.layers

	// Pass 1: static anchor scales. Using |mean| + 6·std per coordinate
	// (rather than the empirical max) makes the coverage statistical:
	// anchors of unseen contexts clamp with negligible probability even
	// when their extremes exceed anything in the training set. The sums
	// run over samples in order, then anchor tokens in ascending order.
	clear(tr.sum)
	clear(tr.sq)
	var n int64
	for _, s := range samples {
		for t := 0; t < s.Tokens; t += cfg.GroupSize {
			for c, x := range s.Row(kind, l, t) {
				f := float64(x)
				tr.sum[c] += f
				tr.sq[c] += f * f
			}
			n++
		}
	}
	scales := b.anchorScales[kind][l*b.channels : (l+1)*b.channels]
	maxQ := float64(tr.vq.MaxQ())
	for c := range scales {
		mean := tr.sum[c] / float64(n)
		v := tr.sq[c]/float64(n) - mean*mean
		if v < 0 {
			v = 0
		}
		if reach := math.Abs(mean) + 6*math.Sqrt(v); reach != 0 {
			scales[c] = float32(reach / maxQ)
		}
	}

	// Pass 2: symbol histograms, quantized a row at a time with the
	// codec's own row quantizers.
	inv := quant.Reciprocals(scales)
	for lv := range tr.us {
		u, err := quant.NewUniform(cfg.binsFor(Level(lv)).BinFor(l, b.layers), cfg.DeltaClamp)
		if err != nil {
			return err
		}
		tr.us[lv] = u
	}
	if !cfg.GlobalACModel {
		clear(tr.counts)
	}
	for _, s := range samples {
		for g := 0; g < s.Tokens; g += cfg.GroupSize {
			end := min(g+cfg.GroupSize, s.Tokens)
			tr.vq.QuantizeRow(s.Row(kind, l, g), scales, inv, tr.syms, tr.arow)
			for _, sym := range tr.syms {
				tr.anchor[sym]++
			}
			// Deltas against the dequantized anchor, or in raw-value mode
			// every token quantized directly.
			base, first := tr.arow, g+1
			if cfg.DisableDelta {
				base, first = nil, g
			}
			for lv, u := range tr.us {
				rows := tr.deltaRows[lv]
				for t := first; t < end; t++ {
					u.QuantizeRow(s.Row(kind, l, t), base, tr.syms)
					for c, sym := range tr.syms {
						rows[c][sym]++
					}
				}
			}
		}
	}
	if cfg.GlobalACModel {
		return nil
	}
	return tr.buildTables(blk)
}

// buildTables turns the trainer's histograms into block blk's anchor
// table and delta tables (blk 0 is the one shared model under
// GlobalACModel).
func (tr *blockTrainer) buildTables(blk int) error {
	if err := tr.anchorSet.Build(blk, smoothedCounts(tr.anchor, tr.prior, tr.blended)); err != nil {
		return fmt.Errorf("core: anchor table %d: %w", blk, err)
	}
	for lv, hists := range tr.delta {
		for bk, h := range hists {
			mi := blk*tr.nb + bk
			if err := tr.deltaSets[lv].Build(mi, smoothedCounts(h, tr.prior, tr.blended)); err != nil {
				return fmt.Errorf("core: delta table l%d/%d: %w", lv, mi, err)
			}
		}
	}
	return nil
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

// maxBankDim bounds a bank's layers, channels and channel buckets.
const maxBankDim = 1 << 20

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
	// Range-check every header value before converting it, so no field
	// is truncated into range.
	for i, v := range vals[:5] {
		if v > math.MaxInt32 {
			return nil, fmt.Errorf("core: bank header value %d out of range (%d)", i, v)
		}
	}
	if vals[3] > maxBankDim {
		return nil, fmt.Errorf("core: bank has %d channel buckets, above %d", vals[3], maxBankDim)
	}
	if vals[5]&^7 != 0 {
		return nil, fmt.Errorf("core: bank has unknown flags %#x", vals[5])
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
	if layers64 == 0 || channels64 == 0 || layers64 > maxBankDim || channels64 > maxBankDim {
		return nil, fmt.Errorf("core: implausible bank geometry (%d,%d)", layers64, channels64)
	}
	// Size nothing the body cannot hold: 4 bytes per anchor scale, and per
	// table its length, its alphabet size and a byte per symbol. (uint64,
	// and the second sum only once the first, one byte per table, fits:
	// nothing overflows, even where int is 32 bits.)
	anchorModels, deltaModels := uint64(1), uint64(1)
	if !cfg.GlobalACModel {
		anchorModels = 2 * layers64
		deltaModels = anchorModels * min(uint64(cfg.ChannelBuckets), channels64)
	}
	deltaModels *= uint64(cfg.Levels())
	anchorN, deltaN := cfg.alphabets()
	scaleBytes, remain := 2*4*layers64*channels64, uint64(r.Len())
	if scaleBytes+anchorModels+deltaModels > remain ||
		scaleBytes+anchorModels*uint64(2+anchorN)+deltaModels*uint64(2+deltaN) > remain {
		return nil, fmt.Errorf("core: bank geometry (%d,%d) needs more than the %d bytes that remain",
			layers64, channels64, remain)
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
	anchors, deltas, err := b.tableSets()
	if err != nil {
		return nil, err
	}
	readTable := func(set *ac.FreqTables, i int) error {
		n, err := ru()
		if err != nil {
			return err
		}
		if n > uint64(r.Len()) {
			return errors.New("core: truncated bank table")
		}
		raw := make([]byte, n)
		if _, err := io.ReadFull(r, raw); err != nil {
			return err
		}
		// A table over any other alphabet than the config's would load,
		// then fail inside a decode: Unmarshal rejects it.
		return set.Unmarshal(i, raw)
	}
	for i := 0; i < anchors.Len(); i++ {
		if err := readTable(anchors, i); err != nil {
			return nil, fmt.Errorf("core: anchor table %d: %w", i, err)
		}
	}
	for lv, set := range deltas {
		for i := 0; i < set.Len(); i++ {
			if err := readTable(set, i); err != nil {
				return nil, fmt.Errorf("core: delta table l%d/%d: %w", lv, i, err)
			}
		}
	}
	b.buildRowTables()
	return b, nil
}
