package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ac"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Codec encodes KV caches into CacheGen bitstreams and back, using the
// probability models and anchor scales of a trained ModelBank. A Codec is
// immutable and safe for concurrent use.
type Codec struct {
	bank *ModelBank
	cfg  Config
	// workers is the codec's parallelism — Config.Workers, or GOMAXPROCS
	// when the codec was built. Read once, so the batches an encode cuts,
	// the helpers a decode recruits and the slots they run on always agree.
	workers int
	// slots is the codec-wide budget of `workers` concurrently running group
	// coders, shared by every in-flight encode and decode call; decodes
	// (loads) come before encodes (publishes) on it.
	slots *slots
	// scratch pools per-group working state (symbol/anchor rows and the
	// entropy coder with its grown output buffer) across groups and across
	// EncodeChunk/DecodeChunk calls, keeping the group hot loops
	// allocation-free.
	scratch sync.Pool
	// decodeBusyNanos and decodedElems are DecodeTotals' counters.
	decodeBusyNanos, decodedElems atomic.Int64
}

// NewCodec returns a codec over the given trained bank.
func NewCodec(bank *ModelBank) *Codec {
	c := &Codec{bank: bank, cfg: bank.Config()}
	c.workers = c.cfg.Workers
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	c.slots = newSlots(c.workers)
	channels := bank.channels
	c.scratch.New = func() any {
		return &groupScratch{
			syms: make([]int, channels),
			arow: make([]float32, channels),
		}
	}
	return c
}

// groupScratch is the pooled per-batch working state: one row's symbol
// and anchor buffers for the encoder, plus per-group entropy coders and
// the decode kernel's stream descriptors (grown on demand to the batch's
// group count).
type groupScratch struct {
	syms []int     // one row's AC symbols
	arow []float32 // dequantized anchor row
	encs []*ac.Encoder
	decs []ac.Decoder
	rows []ac.RowStream
}

func (sc *groupScratch) encoders(n int) []*ac.Encoder {
	for len(sc.encs) < n {
		sc.encs = append(sc.encs, ac.NewEncoder())
	}
	return sc.encs[:n]
}

// decodeStreams returns n stream descriptors, each bound to its own
// pooled decoder.
func (sc *groupScratch) decodeStreams(n int) []ac.RowStream {
	if len(sc.decs) < n {
		sc.decs = make([]ac.Decoder, n)
		sc.rows = make([]ac.RowStream, n)
		for i := range sc.rows {
			sc.rows[i].Dec = &sc.decs[i]
		}
	}
	return sc.rows[:n]
}

// span is one token group's [start, end) range within a chunk.
type span struct{ start, end int }

// groupSpans returns the token-group ranges of a chunk and partitions
// them into at most `workers` contiguous batches. A batch is coded by one
// goroutine with its groups interleaved layer-by-layer: every group in
// the batch advances through the same (kind, layer) block together, so
// the block's probability tables are pulled through the cache once per
// batch rather than once per group. (The bank's tables for one level are
// megabytes; per-group sweeps made every group a full pass over them.)
func groupSpans(tokens, groupSize, workers int) ([]span, [][]span) {
	groups := tokenGroups(tokens, groupSize)
	lanes := laneSpans(len(groups), workers)
	batches := make([][]span, len(lanes))
	for i, ln := range lanes {
		batches[i] = groups[ln.start:ln.end]
	}
	return groups, batches
}

// runBatches calls fn for every batch of groupSpans' partition, gi being
// the index of the batch's first group, and returns the first error. A
// single batch runs inline: no goroutine, no barrier. Each fn takes its own
// coder slot — inline too, or N concurrent single-batch calls would run N
// coder loops instead of `workers`.
func runBatches(batches [][]span, fn func(gi int, batch []span) error) error {
	if len(batches) == 1 {
		return fn(0, batches[0])
	}
	errs := make([]error, len(batches))
	var wg sync.WaitGroup
	gi := 0
	for bi, batch := range batches {
		wg.Add(1)
		go func(bi, gi int, batch []span) {
			defer wg.Done()
			errs[bi] = fn(gi, batch)
		}(bi, gi, batch)
		gi += len(batch)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tokenGroups returns the token-group spans of a chunk of `tokens`
// tokens: ⌈tokens/groupSize⌉ contiguous ranges, the last possibly short.
func tokenGroups(tokens, groupSize int) []span {
	numGroups := (tokens + groupSize - 1) / groupSize
	groups := make([]span, numGroups)
	for gi := range groups {
		start := gi * groupSize
		end := start + groupSize
		if end > tokens {
			end = tokens
		}
		groups[gi] = span{start, end}
	}
	return groups
}

// laneSpans partitions numGroups consecutive groups into at most `lanes`
// contiguous, non-empty index ranges. The split is a pure function of
// its arguments — both the encoder (laying out the wire lane table) and
// the decoder (reconstructing it from the lane count) must produce the
// same partition.
func laneSpans(numGroups, lanes int) []span {
	if lanes > numGroups {
		lanes = numGroups
	}
	out := make([]span, 0, lanes)
	for w := 0; w < lanes; w++ {
		lo := w * numGroups / lanes
		hi := (w + 1) * numGroups / lanes
		if lo < hi {
			out = append(out, span{lo, hi})
		}
	}
	return out
}

// Bank returns the codec's model bank.
func (c *Codec) Bank() *ModelBank { return c.bank }

// Config returns the codec's configuration.
func (c *Codec) Config() Config { return c.cfg }

// Fingerprint returns the trained bank's stable digest (see
// ModelBank.Fingerprint); the publisher keys its dedup index under it.
func (c *Codec) Fingerprint() (string, error) { return c.bank.Fingerprint() }

// DecodeTotals returns the cumulative time the codec's workers have spent
// decoding token groups — measured while holding a coder slot, so time
// queued for one is not in it — and the K and V elements they produced.
// Elements per busy second is the decode throughput of one core.
func (c *Codec) DecodeTotals() (busy time.Duration, elems int64) {
	return time.Duration(c.decodeBusyNanos.Load()), c.decodedElems.Load()
}

// Load is one load in flight on a codec, from BeginLoad to End.
type Load struct{ slots *slots }

// BeginLoad registers a load in flight — a request waiting on this codec's
// decodes, network round trips included — until the returned Load's End.
// While loads are in flight the codec's encode paths stand back: each load
// reserves two of the codec's coder slots, so a co-located publisher
// neither takes the decode's core nor keeps every P too busy to poll the
// network. The fetch pipeline calls it around manifest, transfer and
// assembly; decode calls outside any BeginLoad still come before encodes
// slot by slot.
func (c *Codec) BeginLoad() Load {
	c.slots.beginLoad()
	return Load{c.slots}
}

// End ends the load. Ending it again, or ending the zero Load, does nothing.
func (l *Load) End() {
	if l.slots != nil {
		l.slots.endLoad()
		l.slots = nil
	}
}

// SlotTotals returns the coder-slot scheduler's counters.
func (c *Codec) SlotTotals() SlotTotals { return c.slots.totals() }

// Chunk is a decoded context chunk: the KV tensor of a contiguous token
// range plus its stream metadata.
type Chunk struct {
	Index       int   // chunk index within the context
	TokenOffset int   // absolute position of the chunk's first token
	Level       Level // encoding level the chunk was coded at
	KV          *tensor.KV
}

// ErrCorruptChunk is returned when a chunk bitstream fails validation.
var ErrCorruptChunk = errors.New("core: corrupt chunk bitstream")

// ErrShortChunk reports that a chunk prefix does not yet hold enough
// bytes for the requested operation. Unlike ErrCorruptChunk it is not a
// verdict on the data: a streaming caller feeding ParseChunkPrefix as
// DATA frames land retries once more bytes arrive.
var ErrShortChunk = errors.New("core: chunk prefix incomplete")

const (
	chunkMagicV1   = "CGC1"
	chunkVersionV1 = 1
	chunkMagicV2   = "CGC2"
	chunkVersionV2 = 2

	// FormatV1 is the legacy chunk container: one serial payload guarded
	// by a whole-container CRC, decodable only once fully received.
	FormatV1 = 1
	// FormatV2 is the lane-interleaved container: the payload is split
	// into independently decodable coder lanes with a per-lane CRC table
	// in the (separately checksummed) header, so lanes decode out of
	// order, in parallel, and from a partial prefix of the container.
	FormatV2 = 2

	// maxWireLanes bounds the wire-declared lane count of a v2 container
	// before the lane table is allocated.
	maxWireLanes = 1 << 12
)

// EncodeChunk encodes one chunk's KV tensor (all layers and channels of a
// contiguous token range, §5.3) at the given level, producing a v2
// (lane-interleaved) container. chunkIndex and tokenOffset travel in the
// header so the receiver can reassemble and, for text fallback, resume
// recomputation at the right position.
func (c *Codec) EncodeChunk(kv *tensor.KV, chunkIndex, tokenOffset int, lv Level) ([]byte, error) {
	return c.encodeChunkRange(kv, 0, kv.Tokens, chunkIndex, tokenOffset, lv)
}

// EncodeChunkRange is EncodeChunk for tokens [lo, hi) of kv, read in place:
// a caller holding the whole context's tensor encodes each chunk without
// first copying it out. The bitstream is EncodeChunk's of that slice.
func (c *Codec) EncodeChunkRange(kv *tensor.KV, lo, hi, chunkIndex, tokenOffset int, lv Level) ([]byte, error) {
	return c.encodeChunkRange(kv, lo, hi, chunkIndex, tokenOffset, lv)
}

// encodeChunkRange encodes tokens [lo, hi) of kv as one v2 chunk.
func (c *Codec) encodeChunkRange(kv *tensor.KV, lo, hi, chunkIndex, tokenOffset int, lv Level) ([]byte, error) {
	if err := c.bank.CheckGeometry(kv); err != nil {
		return nil, err
	}
	if !c.cfg.ValidLevel(lv) {
		return nil, fmt.Errorf("core: invalid level %d (codec has %d)", lv, c.cfg.Levels())
	}
	if lo < 0 || hi > kv.Tokens || lo > hi {
		return nil, fmt.Errorf("core: token range [%d,%d) out of range 0..%d", lo, hi, kv.Tokens)
	}
	tokens := hi - lo
	if tokens == 0 {
		return nil, errors.New("core: empty chunk")
	}
	if chunkIndex < 0 || tokenOffset < 0 {
		return nil, fmt.Errorf("core: negative chunk index %d or offset %d", chunkIndex, tokenOffset)
	}

	g := c.cfg.GroupSize
	groups, batches := groupSpans(tokens, g, c.workers)
	numGroups := len(groups)

	// Encode token groups in parallel batches; each group is an
	// independent arithmetic-coded stream (§5.2: the anchor referencing
	// lets groups compress and decompress in parallel), and a batch walks
	// its groups through each (kind, layer) block in lockstep for cache
	// locality.
	streams := make([][]byte, numGroups)
	var err error
	if len(batches) == 1 {
		// Called directly: a chunk that fits one batch allocates no closure.
		err = c.encodeGroupBatch(kv, lo, batches[0], lv, streams)
	} else {
		err = runBatches(batches, func(gi int, batch []span) error {
			return c.encodeGroupBatch(kv, lo, batch, lv, streams[gi:gi+len(batch)])
		})
	}
	if err != nil {
		return nil, err
	}

	return c.assembleChunkV2(streams, kv, tokens, chunkIndex, tokenOffset, g, lv), nil
}

// assembleChunkV2 lays out the lane-interleaved CGC2 container:
//
//	"CGC2" | version | level
//	uvarints: chunkIndex, tokenOffset, layers, tokens, channels, groupSize, lanes
//	lanes × uint32: CRC-32 (IEEE) of each lane's payload bytes
//	numGroups × uvarint: per-group stream lengths
//	uint32: CRC-32 (IEEE) of every header byte above
//	payload: group streams concatenated in group (= lane) order
//
// The header CRC plus the per-lane CRCs cover every container byte, so
// the trailing whole-container checksum of v1 is gone — and with it the
// need to hold the full container before any byte can be trusted. The
// lane partition is pinned in the wire format (Config.CoderLanes at
// encode time), never derived from the decoder's worker count, so the
// container bytes are deterministic for a given config.
func (c *Codec) assembleChunkV2(streams [][]byte, kv *tensor.KV, tokens, chunkIndex, tokenOffset, groupSize int, lv Level) []byte {
	payload := 0
	for _, s := range streams {
		payload += len(s)
	}
	wantLanes := c.cfg.CoderLanes
	if wantLanes <= 0 {
		wantLanes = DefaultConfig().CoderLanes
	}
	lanes := laneSpans(len(streams), wantLanes)
	out := make([]byte, 0, chunkHeaderSizeV2(len(streams), len(lanes))+payload)
	out = append(out, chunkMagicV2...)
	out = append(out, chunkVersionV2, byte(lv))
	out = binary.AppendUvarint(out, uint64(chunkIndex))
	out = binary.AppendUvarint(out, uint64(tokenOffset))
	out = binary.AppendUvarint(out, uint64(kv.Layers))
	out = binary.AppendUvarint(out, uint64(tokens))
	out = binary.AppendUvarint(out, uint64(kv.Channels))
	out = binary.AppendUvarint(out, uint64(groupSize))
	out = binary.AppendUvarint(out, uint64(len(lanes)))
	for _, ln := range lanes {
		crc := uint32(0)
		for _, s := range streams[ln.start:ln.end] {
			crc = crc32.Update(crc, crc32.IEEETable, s)
		}
		out = binary.BigEndian.AppendUint32(out, crc)
	}
	for _, s := range streams {
		out = binary.AppendUvarint(out, uint64(len(s)))
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}

func chunkHeaderSizeV2(groups, lanes int) int { return 80 + 5*groups + 4*lanes }

// encodeGroupBatch encodes a batch of token groups (whose spans are
// relative to chunk-base token `base` of kv), each as one independent
// arithmetic-coded stream written to the matching out slot: per
// (kind, layer), the anchor row (8-bit, static scales) followed by the
// remaining tokens' delta rows quantized with the level's layer bins.
//
// Two hot-path properties, both bitstream-neutral:
//   - quantization and entropy coding are fused row-wise: each row is
//     quantized into a pooled symbol buffer and bulk-encoded against the
//     bank's precomputed per-row model slice, so no per-symbol table
//     lookup, model-index arithmetic, or error-checked call survives in
//     the inner loop;
//   - the batch's groups advance through each (kind, layer) block
//     together (one encoder per group), so the block's tables are hot in
//     cache for every group instead of re-fetched per group.
//
// The batch runs on a publish-class coder slot, which it offers back at
// every block boundary (≈0.3 ms of work on a 1500-token chunk), where it
// also gives the processor back.
func (c *Codec) encodeGroupBatch(kv *tensor.KV, base int, batch []span, lv Level, out [][]byte) error {
	b := c.bank
	vq, err := quant.NewVectorwise(c.cfg.AnchorBits)
	if err != nil {
		return err
	}
	var standing publishBatch
	c.slots.acquirePublish(&standing)
	defer c.slots.release(classPublish)
	bins := c.cfg.binsFor(lv)
	channels := kv.Channels
	sc := c.scratch.Get().(*groupScratch)
	defer c.scratch.Put(sc)
	syms, arow := sc.syms, sc.arow
	encs := sc.encoders(len(batch))
	for gi, g := range batch {
		encs[gi].Reset()
		// Rough size hint: symbols typically entropy-code below 4 bits each.
		encs[gi].Grow((g.end - g.start) * channels * kv.Layers / 2)
	}

	for _, kind := range tensor.Kinds {
		for l := 0; l < kv.Layers; l++ {
			c.slots.yieldPublish(&standing)
			yieldCoder()
			scales := b.anchorScales[kind][l*channels : (l+1)*channels]
			inv := b.anchorInv[kind][l*channels : (l+1)*channels]
			u, err := quant.NewUniform(bins.BinFor(l, kv.Layers), c.cfg.DeltaClamp)
			if err != nil {
				return err
			}
			deltaRow := b.rowTables(lv, kind, l)

			if c.cfg.DisableDelta {
				// Ablation: raw uniform quantization of every token.
				for gi, g := range batch {
					enc := encs[gi]
					for t := g.start; t < g.end; t++ {
						u.QuantizeRow(kv.Row(kind, l, base+t), nil, syms)
						if err := enc.EncodeSymbolsMulti(deltaRow, syms); err != nil {
							return err
						}
					}
				}
				continue
			}

			anchorTab := b.anchorTables[b.anchorIndex(kind, l)]
			for gi, g := range batch {
				enc := encs[gi]
				// Anchor row.
				vq.QuantizeRow(kv.Row(kind, l, base+g.start), scales, inv, syms, arow)
				if err := enc.EncodeSymbols(anchorTab, syms); err != nil {
					return err
				}
				// Delta rows against the dequantized anchor.
				for t := g.start + 1; t < g.end; t++ {
					u.QuantizeRow(kv.Row(kind, l, base+t), arow, syms)
					if err := enc.EncodeSymbolsMulti(deltaRow, syms); err != nil {
						return err
					}
				}
			}
		}
	}
	// Copy out of the pooled buffers: the streams outlive the scratch.
	for gi := range batch {
		flushed := encs[gi].Bytes()
		stream := make([]byte, len(flushed))
		copy(stream, flushed)
		out[gi] = stream
	}
	return nil
}

// ChunkHeader is the parsed metadata of a chunk container.
type ChunkHeader struct {
	Index       int
	TokenOffset int
	Level       Level
	Layers      int
	Tokens      int
	Channels    int
	// Format is the container layout the chunk was parsed from
	// (FormatV1 or FormatV2).
	Format int
	// Lanes is the number of independently decodable coder lanes. For a
	// v2 container this is the wire-declared lane count; a v1 container
	// has no lane table, so its single serial payload is split into the
	// decoder's runtime batches and Lanes reports that batch count.
	Lanes int

	groupSize int // wire-declared token-group length, checked against the codec
}

// maxChunkTokens bounds the wire-declared token count of a chunk before
// any allocation is sized from it.
const maxChunkTokens = 1 << 22

// ParsedChunk indexes a chunk container for lane-granular decode: which
// token groups belong to which lane, and where each group's stream lives
// in the container. Parsing validates everything structural (magic,
// version, header checksum, length-table consistency); payload integrity
// is verified per lane at decode time (v2) or already covered by the
// container CRC (v1). A ParsedChunk is immutable and may have its lanes
// decoded concurrently.
type ParsedChunk struct {
	Header ChunkHeader

	total    int      // declared container length in bytes
	groups   []span   // token-group spans (chunk-relative token ranges)
	groupOff []int    // len(groups)+1 absolute byte offsets of each group's stream
	lanes    []span   // lane → [start, end) group-index ranges
	laneCRC  []uint32 // v2: per-lane payload CRCs; nil for v1 (container CRC already verified)
}

// Lanes returns the number of independently decodable coder lanes.
func (p *ParsedChunk) Lanes() int { return len(p.lanes) }

// Size returns the full container length in bytes.
func (p *ParsedChunk) Size() int { return p.total }

// LaneEnd returns the container byte offset at which the lane's payload
// is complete: once a prefix holds at least LaneEnd(lane) bytes, that
// lane can decode. Lanes occupy consecutive payload ranges, so a growing
// prefix completes lanes in order 0, 1, 2, …
func (p *ParsedChunk) LaneEnd(lane int) int { return p.groupOff[p.lanes[lane].end] }

// ParseChunk validates and indexes a complete chunk container of either
// format.
func (c *Codec) ParseChunk(data []byte) (*ParsedChunk, error) {
	return c.ParseChunkPrefix(data, len(data))
}

// ParseChunkPrefix parses a chunk container of which only the first
// len(data) of `total` bytes have arrived. It returns ErrShortChunk when
// the prefix is too short to hold the header — the caller retries with
// more bytes — and ErrCorruptChunk on a structural verdict that more
// bytes cannot fix. A v2 header parses as soon as it has fully arrived;
// lanes then decode incrementally as their payload ranges land, every lane
// landed by the time a coder slot frees in one DecodeLandedInto call. A v1
// container carries only a trailing whole-container checksum, so it
// parses — and decodes — only complete.
func (c *Codec) ParseChunkPrefix(data []byte, total int) (*ParsedChunk, error) {
	if total <= 0 {
		return nil, fmt.Errorf("%w: declared size %d", ErrCorruptChunk, total)
	}
	if len(data) > total {
		return nil, fmt.Errorf("%w: %d bytes exceed declared size %d", ErrCorruptChunk, len(data), total)
	}
	if len(data) < 6 {
		if len(data) < total {
			return nil, ErrShortChunk
		}
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptChunk, len(data))
	}
	magic, version := string(data[:4]), data[4]
	switch {
	case magic == chunkMagicV2 && version == chunkVersionV2:
		return c.parseChunkV2(data, total)
	case magic == chunkMagicV1 && version == chunkVersionV1:
		if len(data) < total {
			return nil, ErrShortChunk
		}
		return c.parseChunkV1(data)
	default:
		return nil, fmt.Errorf("%w: bad magic %q version %d", ErrCorruptChunk, data[:4], version)
	}
}

// parseChunkV1 validates a complete legacy container (whole-container
// CRC, header, length table) and indexes it as runtime-batch lanes.
func (c *Codec) parseChunkV1(data []byte) (*ParsedChunk, error) {
	if len(data) < len(chunkMagicV1)+2+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptChunk, len(data))
	}
	body, sum := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorruptChunk)
	}
	hdr := ChunkHeader{Format: FormatV1, Level: Level(body[5])}
	p := body[6:]
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
	hdr.Index, hdr.TokenOffset = int(vals[0]), int(vals[1])
	hdr.Layers, hdr.Tokens, hdr.Channels = int(vals[2]), int(vals[3]), int(vals[4])
	groupSize, numGroups := int(vals[5]), int(vals[6])

	if hdr.Tokens > maxChunkTokens {
		return nil, fmt.Errorf("%w: implausible chunk of %d tokens", ErrCorruptChunk, hdr.Tokens)
	}
	if groupSize <= 0 || hdr.Tokens <= 0 || numGroups != (hdr.Tokens+groupSize-1)/groupSize {
		return nil, fmt.Errorf("%w: %d tokens / %d groups inconsistent", ErrCorruptChunk, hdr.Tokens, numGroups)
	}

	groupOff := make([]int, numGroups+1)
	total := 0
	for i := 0; i < numGroups; i++ {
		v, err := read()
		if err != nil {
			return nil, err
		}
		// Bound each length by the remaining payload before converting:
		// a 2^63-scale uvarint would wrap int and slip past the sum
		// check below into a slice-bounds panic.
		if v > uint64(len(p)) {
			return nil, fmt.Errorf("%w: group stream length %d exceeds %d payload bytes", ErrCorruptChunk, v, len(p))
		}
		total += int(v)
		groupOff[i+1] = total
	}
	if total != len(p) {
		return nil, fmt.Errorf("%w: stream lengths sum to %d, have %d bytes", ErrCorruptChunk, total, len(p))
	}
	hdr.groupSize = groupSize
	// Rebase the group offsets onto the container: the payload starts
	// where the header ended.
	payloadStart := len(body) - total
	for i := range groupOff {
		groupOff[i] += payloadStart
	}
	pc := &ParsedChunk{
		Header:   hdr,
		total:    len(data),
		groups:   tokenGroups(hdr.Tokens, groupSize),
		groupOff: groupOff,
		lanes:    laneSpans(numGroups, c.workers),
	}
	pc.Header.Lanes = len(pc.lanes)
	return pc, nil
}

// parseChunkV2 parses a lane-interleaved container from a (possibly
// partial) prefix. The header — everything up to and including its own
// CRC — must have arrived; the payload need not.
func (c *Codec) parseChunkV2(data []byte, total int) (*ParsedChunk, error) {
	short := func(what string) error {
		if len(data) < total {
			return ErrShortChunk
		}
		return fmt.Errorf("%w: truncated %s", ErrCorruptChunk, what)
	}
	hdr := ChunkHeader{Format: FormatV2, Level: Level(data[5])}
	pos := 6
	read := func(what string) (uint64, error) {
		if pos >= len(data) {
			return 0, short(what)
		}
		v, n := binary.Uvarint(data[pos:])
		if n == 0 {
			return 0, short(what)
		}
		if n < 0 {
			return 0, fmt.Errorf("%w: %s overflows uvarint", ErrCorruptChunk, what)
		}
		pos += n
		return v, nil
	}
	var vals [7]uint64
	names := [7]string{"chunk index", "token offset", "layers", "tokens", "channels", "group size", "lanes"}
	for i := range vals {
		v, err := read(names[i])
		if err != nil {
			return nil, err
		}
		// Bound every header field before int conversion: a 2^63-scale
		// value would wrap negative and slip past the checks below.
		if v > maxChunkTokens<<8 {
			return nil, fmt.Errorf("%w: implausible %s %d", ErrCorruptChunk, names[i], v)
		}
		vals[i] = v
	}
	hdr.Index, hdr.TokenOffset = int(vals[0]), int(vals[1])
	hdr.Layers, hdr.Tokens, hdr.Channels = int(vals[2]), int(vals[3]), int(vals[4])
	groupSize, numLanes := int(vals[5]), int(vals[6])

	if hdr.Tokens > maxChunkTokens {
		return nil, fmt.Errorf("%w: implausible chunk of %d tokens", ErrCorruptChunk, hdr.Tokens)
	}
	if groupSize <= 0 || hdr.Tokens <= 0 {
		return nil, fmt.Errorf("%w: %d tokens / group size %d", ErrCorruptChunk, hdr.Tokens, groupSize)
	}
	numGroups := (hdr.Tokens + groupSize - 1) / groupSize
	if numLanes < 1 || numLanes > numGroups || numLanes > maxWireLanes {
		return nil, fmt.Errorf("%w: %d lanes for %d groups", ErrCorruptChunk, numLanes, numGroups)
	}

	if len(data) < pos+4*numLanes {
		return nil, short("lane table")
	}
	laneCRC := make([]uint32, numLanes)
	for i := range laneCRC {
		laneCRC[i] = binary.BigEndian.Uint32(data[pos:])
		pos += 4
	}

	groupOff := make([]int, numGroups+1)
	sum := 0
	for i := 0; i < numGroups; i++ {
		v, err := read("group length")
		if err != nil {
			return nil, err
		}
		if v > uint64(total) {
			return nil, fmt.Errorf("%w: group stream length %d exceeds container size %d", ErrCorruptChunk, v, total)
		}
		sum += int(v)
		if sum > total {
			return nil, fmt.Errorf("%w: stream lengths overflow container size %d", ErrCorruptChunk, total)
		}
		groupOff[i+1] = sum
	}
	if len(data) < pos+4 {
		return nil, short("header checksum")
	}
	if crc32.ChecksumIEEE(data[:pos]) != binary.BigEndian.Uint32(data[pos:]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrCorruptChunk)
	}
	pos += 4
	if sum != total-pos {
		return nil, fmt.Errorf("%w: stream lengths sum to %d, payload is %d bytes", ErrCorruptChunk, sum, total-pos)
	}
	for i := range groupOff {
		groupOff[i] += pos
	}
	hdr.groupSize = groupSize
	hdr.Lanes = numLanes
	return &ParsedChunk{
		Header:   hdr,
		total:    total,
		groups:   tokenGroups(hdr.Tokens, groupSize),
		groupOff: groupOff,
		lanes:    laneSpans(numGroups, numLanes),
		laneCRC:  laneCRC,
	}, nil
}

// DecodeChunk decodes a chunk bitstream produced by EncodeChunk (either
// container format), verifying integrity and geometry against the
// codec's bank. Coder lanes decode in parallel.
func (c *Codec) DecodeChunk(data []byte) (*Chunk, error) {
	p, err := c.ParseChunk(data)
	if err != nil {
		return nil, err
	}
	hdr := p.Header
	kv := tensor.New(hdr.Layers, hdr.Tokens, hdr.Channels)
	if err := c.DecodeParsedInto(kv, 0, p, data); err != nil {
		return nil, err
	}
	return &Chunk{Index: hdr.Index, TokenOffset: hdr.TokenOffset, Level: hdr.Level, KV: kv}, nil
}

// DecodeChunkInto decodes a chunk bitstream directly into dst's token
// range [dstOff, dstOff+tokens) — the zero-copy assembly path: a caller
// reassembling a context decodes every chunk straight into one
// preallocated destination instead of concatenating per-chunk tensors.
// Returns the chunk's parsed header.
func (c *Codec) DecodeChunkInto(dst *tensor.KV, dstOff int, data []byte) (ChunkHeader, error) {
	p, err := c.ParseChunk(data)
	if err != nil {
		return ChunkHeader{}, err
	}
	return p.Header, c.DecodeParsedInto(dst, dstOff, p, data)
}

// DecodeParsedInto is DecodeChunkInto for a caller that already parsed
// the container (to inspect its header or lane layout before deciding
// where the payload lands). data must be the complete container p was
// parsed from; every lane decodes, in parallel when the codec has more
// than one worker.
func (c *Codec) DecodeParsedInto(dst *tensor.KV, dstOff int, p *ParsedChunk, data []byte) error {
	return c.decodeLanes(dst, dstOff, p, 0, len(p.lanes), data)
}

// DecodeLaneInto decodes one coder lane of a parsed chunk into dst's
// token range. data must be (a prefix of) the container p was parsed
// from, holding at least LaneEnd(lane) bytes. Lanes of one chunk may
// decode concurrently and in any order: each lane writes a disjoint set of
// destination token rows. For a v2 container the lane's payload CRC is
// verified here; a v1 container was already verified whole at parse.
func (c *Codec) DecodeLaneInto(dst *tensor.KV, dstOff int, p *ParsedChunk, lane int, data []byte) error {
	return c.decodeLanes(dst, dstOff, p, lane, lane+1, data)
}

// DecodeLandedInto is the fetch pipeline's decode of a chunk whose
// container arrives in pieces: it waits for a coder slot and only then asks
// landed which lanes to decode — [lo, hi), with data a prefix of the
// container holding at least LaneEnd(hi-1) bytes — so every lane that
// landed while the caller queued decodes in this one call. The lanes are
// CRC-verified first (an error names the failing lane, and then no group
// of the range has decoded); their token groups are then cut into
// kernel-width jobs across lane boundaries, as for a whole container,
// which the caller's slot and helpers recruited from free slots decode
// together. A single lane is one job, decoded on the caller's slot alone.
// landed runs exactly once, on the calling goroutine.
func (c *Codec) DecodeLandedInto(dst *tensor.KV, dstOff int, p *ParsedChunk, landed func() (lo, hi int, data []byte)) error {
	c.slots.acquireLoad()
	lo, hi, data := landed()
	if err := c.checkLanes(dst, dstOff, p, lo, hi, data); err != nil {
		c.slots.release(classLoad)
		return err
	}
	if hi-lo == 1 {
		// One lane is one job — about a worker's share of a chunk, whose
		// groups share each block's tables in one pass of the kernel — and
		// the streaming unit allocates nothing.
		ln := p.lanes[lo]
		c.decodeGroups(dst, dstOff, p, data, ln.start, ln.end)
		yieldCoder()
		c.slots.release(classLoad)
		return nil
	}
	run := newDecodeRun()
	run.cut(p, data, dstOff, span{p.lanes[lo].start, p.lanes[hi-1].end}, c.workers)
	c.runDecodeJobs(dst, run)
	return nil
}

// decodeLanes decodes lanes [lo, hi) of p from data, which holds them.
func (c *Codec) decodeLanes(dst *tensor.KV, dstOff int, p *ParsedChunk, lo, hi int, data []byte) error {
	return c.DecodeLandedInto(dst, dstOff, p, func() (int, int, []byte) { return lo, hi, data })
}

// checkParsed verifies a parsed chunk against the codec's configuration
// and the destination's geometry — the per-chunk (not per-lane) half of
// decode validation.
func (c *Codec) checkParsed(dst *tensor.KV, dstOff int, p *ParsedChunk) error {
	hdr := &p.Header
	if hdr.Layers != c.bank.layers || hdr.Channels != c.bank.channels {
		return fmt.Errorf("%w (chunk %d,·,%d)", ErrGeometry, hdr.Layers, hdr.Channels)
	}
	if dst.Layers != hdr.Layers || dst.Channels != hdr.Channels {
		return fmt.Errorf("%w: destination (%d,·,%d) vs chunk (%d,·,%d)",
			ErrGeometry, dst.Layers, dst.Channels, hdr.Layers, hdr.Channels)
	}
	if dstOff < 0 || dstOff+hdr.Tokens > dst.Tokens {
		return fmt.Errorf("core: chunk of %d tokens does not fit destination [%d,%d)",
			hdr.Tokens, dstOff, dst.Tokens)
	}
	if hdr.groupSize != c.cfg.GroupSize {
		return fmt.Errorf("%w: group size %d, codec uses %d", ErrCorruptChunk, hdr.groupSize, c.cfg.GroupSize)
	}
	if !c.cfg.ValidLevel(hdr.Level) {
		return fmt.Errorf("%w: invalid level %d", ErrCorruptChunk, hdr.Level)
	}
	return nil
}

// checkLanes validates lanes [lo, hi) of a parsed chunk for decode into
// dst from data: geometry, that data holds them, every lane checksum.
func (c *Codec) checkLanes(dst *tensor.KV, dstOff int, p *ParsedChunk, lo, hi int, data []byte) error {
	if lo < 0 || hi > len(p.lanes) || lo >= hi {
		return fmt.Errorf("core: lanes [%d,%d) out of range 0..%d", lo, hi, len(p.lanes))
	}
	if err := c.checkParsed(dst, dstOff, p); err != nil {
		return err
	}
	if end := p.LaneEnd(hi - 1); len(data) < end {
		return fmt.Errorf("%w: lanes [%d,%d) need %d bytes, have %d", ErrShortChunk, lo, hi, end, len(data))
	}
	for lane := lo; lane < hi; lane++ {
		if err := p.verifyLane(lane, data); err != nil {
			return err
		}
	}
	return nil
}

// verifyLane checks a v2 lane's payload against its header CRC; a v1
// container was verified whole at parse.
func (p *ParsedChunk) verifyLane(lane int, data []byte) error {
	ln := p.lanes[lane]
	if p.laneCRC != nil && crc32.ChecksumIEEE(data[p.groupOff[ln.start]:p.groupOff[ln.end]]) != p.laneCRC[lane] {
		return fmt.Errorf("%w: lane %d checksum mismatch", ErrCorruptChunk, lane)
	}
	return nil
}

// decodeJob is one unit of lane-range decode work: a run of consecutive
// token groups of one parsed chunk.
type decodeJob struct {
	p      *ParsedChunk
	data   []byte
	dstOff int
	groups span // group-index range within p
}

// decodeRun is the shared state of one runDecodeJobs call: the job list
// and the counter its workers pull from. One allocation holds both for
// any single chunk (a 1500-token chunk is 19 jobs).
type decodeRun struct {
	jobs   []decodeJob
	next   atomic.Int64
	wg     sync.WaitGroup
	inline [24]decodeJob
}

func newDecodeRun() *decodeRun {
	run := new(decodeRun)
	run.jobs = run.inline[:0]
	return run
}

// decodeJobGroups is how many token groups a decodeJob takes: two passes
// of the lockstep kernel per (kind, layer) block, so a block's tables are
// pulled through the cache once for eight groups, while a 1500-token chunk
// still splits into enough jobs to keep the workers level.
const decodeJobGroups = 2 * ac.MaxRowStreams

// cut appends the jobs that decode token groups g of a verified chunk for
// `parts` workers. Once its lanes are verified the lane table is only a
// checksum boundary: jobs are cut in kernel-width multiples across lanes,
// so a short chunk with one or two groups per lane still fills the
// kernel's streams. When several workers share the groups, their last
// stretch is cut into single-width jobs, so the workers finish within one
// such job of each other.
func (run *decodeRun) cut(p *ParsedChunk, data []byte, dstOff int, g span, parts int) {
	for lo := g.start; lo < g.end; {
		size := decodeJobGroups
		if parts > 1 && g.end-lo <= decodeJobGroups*parts {
			size = ac.MaxRowStreams
		}
		hi := min(lo+size, g.end)
		run.jobs = append(run.jobs, decodeJob{p: p, data: data, dstOff: dstOff, groups: span{lo, hi}})
		lo = hi
	}
}

// runDecodeJobs decodes every job of run into dst on the load slot the
// caller holds, which it releases. The caller and up to workers-1 helper
// goroutines pull jobs off the shared counter, each holding a slot of the
// codec-wide coder budget while it works and yielding the processor after
// every job. Helpers never queue for a slot:
// before each of its own jobs the caller recruits one for every slot that
// is free at that moment, so a busy codec decodes on the caller alone and
// picks the other cores up as they come free.
func (c *Codec) runDecodeJobs(dst *tensor.KV, run *decodeRun) {
	spare := min(c.workers, len(run.jobs)) - 1
	for {
		for spare > 0 && int(run.next.Load()) < len(run.jobs) && c.recruitDecoder(dst, run) {
			spare--
		}
		if !c.decodeNextJob(dst, run) {
			break
		}
	}
	c.slots.release(classLoad)
	run.wg.Wait()
}

// recruitDecoder starts a helper goroutine on run's jobs if a coder slot
// is free right now, and reports whether it did.
func (c *Codec) recruitDecoder(dst *tensor.KV, run *decodeRun) bool {
	if !c.slots.tryAcquireLoad() {
		return false
	}
	run.wg.Add(1)
	go func() {
		defer run.wg.Done()
		defer c.slots.release(classLoad)
		for c.decodeNextJob(dst, run) {
		}
	}()
	return true
}

// decodeNextJob claims and decodes run's next job, then yields the
// processor, or reports that none is left. The caller holds a coder slot.
func (c *Codec) decodeNextJob(dst *tensor.KV, run *decodeRun) bool {
	i := int(run.next.Add(1)) - 1
	if i >= len(run.jobs) {
		return false
	}
	j := &run.jobs[i]
	c.decodeGroups(dst, j.dstOff, j.p, j.data, j.groups.start, j.groups.end)
	yieldCoder()
	return true
}

// decodeGroups decodes token groups [lo, hi) of a parsed chunk, whose
// streams the caller has verified, into dst: group g's chunk tokens
// [g.start, g.end) land on dst tokens dstOff+g.start onward. It is
// encodeGroupBatch's mirror. Per (kind, layer) block every group's anchor
// row, then every group's delta rows, go through ac.DecodeRows, which
// advances the groups' coders in lockstep and writes dequantized values
// straight into the destination rows; the block's tables are fetched into
// cache once for the whole batch.
func (c *Codec) decodeGroups(dst *tensor.KV, dstOff int, p *ParsedChunk, data []byte, lo, hi int) {
	begin := time.Now()
	b := c.bank
	lv := p.Header.Level
	batch := p.groups[lo:hi]
	sc := c.scratch.Get().(*groupScratch)
	rows := sc.decodeStreams(len(batch))
	for i := range batch {
		rows[i].Dec.Reset(data[p.groupOff[lo+i]:p.groupOff[lo+i+1]])
	}
	// Lockstep streams decode equally many rows. Only a chunk's last group
	// can be short; it decodes in a call of its own.
	full := len(batch)
	if last := batch[full-1]; last.end-last.start != batch[0].end-batch[0].start {
		full--
	}

	channels := dst.Channels
	for _, kind := range tensor.Kinds {
		for l := 0; l < dst.Layers; l++ {
			deltaTabs := b.rowTables(lv, kind, l)
			deltaVals := b.deltaVals[lv][c.cfg.BaseBins.GroupOf(l, dst.Layers)]

			if c.cfg.DisableDelta {
				// Ablation: every token is a raw row, no anchor, no base.
				for i, g := range batch {
					rows[i].Dst = dst.Rows(kind, l, dstOff+g.start, dstOff+g.end)
				}
			} else {
				scales := b.anchorScales[kind][l*channels : (l+1)*channels]
				for i, g := range batch {
					rows[i].Dst, rows[i].Base = dst.Row(kind, l, dstOff+g.start), nil
				}
				ac.DecodeRows(b.rowAnchorTables[int(kind)*b.layers+l], b.anchorVals, scales, rows)
				// Delta rows against the dequantized anchor just written.
				for i, g := range batch {
					rows[i].Base = rows[i].Dst
					rows[i].Dst = dst.Rows(kind, l, dstOff+g.start+1, dstOff+g.end)
				}
			}
			ac.DecodeRows(deltaTabs, deltaVals, nil, rows[:full])
			ac.DecodeRows(deltaTabs, deltaVals, nil, rows[full:])
		}
	}

	// Parked scratch must not pin the chunk payload or the destination;
	// drop the references before the scratch returns to the pool.
	for i := range rows {
		rows[i].Dec.Reset(nil)
		rows[i].Dst, rows[i].Base = nil, nil
	}
	c.scratch.Put(sc)
	c.decodeBusyNanos.Add(int64(time.Since(begin)))
	c.decodedElems.Add(int64(2 * dst.Layers * (batch[len(batch)-1].end - batch[0].start) * dst.Channels))
}

// SplitOffsets returns the chunk boundaries for a context of the given
// length under the codec's ChunkTokens: [0, ChunkTokens, …, tokens].
func (c *Codec) SplitOffsets(tokens int) []int {
	var offs []int
	for t := 0; t < tokens; t += c.cfg.ChunkTokens {
		offs = append(offs, t)
	}
	return append(offs, tokens)
}

// EncodeContext splits a full-context KV cache into chunks of ChunkTokens
// and encodes each at level lv. The i-th bitstream decodes independently
// to tokens [offsets[i], offsets[i+1]). Chunks encode in parallel —
// each chunk's bitstream is independent (§5.3), so a long context
// saturates the cores even when its chunks are too short for the
// group-level parallelism inside EncodeChunk to do so alone.
func (c *Codec) EncodeContext(kv *tensor.KV, lv Level) ([][]byte, error) {
	offs := c.SplitOffsets(kv.Tokens)
	jobs := make([]levelChunkJob, 0, len(offs)-1)
	for i := 0; i+1 < len(offs); i++ {
		jobs = append(jobs, levelChunkJob{chunk: i, lo: offs[i], hi: offs[i+1], lv: lv})
	}
	streams, err := c.encodeJobs(kv, jobs)
	if err != nil {
		return nil, err
	}
	return streams, nil
}

// EncodeAllLevels encodes every chunk of a context at every level —
// the offline multi-version encoding the streamer adapts across (§5.3).
// The result is indexed [level][chunk]. All (level, chunk) pairs encode
// in parallel.
func (c *Codec) EncodeAllLevels(kv *tensor.KV) ([][][]byte, error) {
	offs := c.SplitOffsets(kv.Tokens)
	nChunks := len(offs) - 1
	var jobs []levelChunkJob
	for lv := 0; lv < c.cfg.Levels(); lv++ {
		for i := 0; i < nChunks; i++ {
			jobs = append(jobs, levelChunkJob{chunk: i, lo: offs[i], hi: offs[i+1], lv: Level(lv)})
		}
	}
	streams, err := c.encodeJobs(kv, jobs)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, c.cfg.Levels())
	for lv := range out {
		out[lv] = streams[lv*nChunks : (lv+1)*nChunks]
	}
	return out, nil
}

// levelChunkJob is one (chunk, level) encode of a context.
type levelChunkJob struct {
	chunk, lo, hi int
	lv            Level
}

// encodeJobs runs a set of chunk encodes in parallel, bounded by the
// codec's worker budget. Results are positionally aligned with jobs.
func (c *Codec) encodeJobs(kv *tensor.KV, jobs []levelChunkJob) ([][]byte, error) {
	out := make([][]byte, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.workers)
	for ji, job := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func(ji int, job levelChunkJob) {
			defer wg.Done()
			defer func() { <-sem }()
			// Encode the token range in place: no per-chunk tensor copy.
			out[ji], errs[ji] = c.encodeChunkRange(kv, job.lo, job.hi, job.chunk, job.lo, job.lv)
		}(ji, job)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeContext decodes a sequence of chunk bitstreams (possibly at mixed
// levels) into the full KV cache, verifying the chunks are contiguous and
// start at token 0. The destination is allocated once, sized from the
// chunk headers, and every chunk decodes directly into its token range —
// no per-chunk tensors, no concatenation pass.
func (c *Codec) DecodeContext(chunks [][]byte) (*tensor.KV, error) {
	if len(chunks) == 0 {
		return nil, errors.New("core: decode of zero chunks")
	}
	// One parse per chunk: the sizing walk keeps the parsed containers
	// for the decode walk.
	ps := make([]*ParsedChunk, len(chunks))
	total := 0
	for i, data := range chunks {
		p, err := c.ParseChunk(data)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		if p.Header.Index != i || p.Header.TokenOffset != total {
			return nil, fmt.Errorf("core: chunk %d out of order (index %d, offset %d, want offset %d)",
				i, p.Header.Index, p.Header.TokenOffset, total)
		}
		ps[i] = p
		total += p.Header.Tokens
	}
	kv := tensor.New(c.bank.layers, total, c.bank.channels)
	// One job list over every chunk rather than a walk of chunks: each job
	// writes a disjoint destination range, so the whole context's group
	// population — not one chunk's — is what keeps the cores busy. This is
	// where decode throughput scales with GOMAXPROCS past a single chunk.
	run := newDecodeRun()
	parts := (c.workers + len(ps) - 1) / len(ps)
	off := 0
	for i, p := range ps {
		if err := c.checkLanes(kv, off, p, 0, len(p.lanes), chunks[i]); err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		run.cut(p, chunks[i], off, span{0, len(p.groups)}, parts)
		off += p.Header.Tokens
	}
	c.slots.acquireLoad()
	c.runDecodeJobs(kv, run)
	return kv, nil
}
