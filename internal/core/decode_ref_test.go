package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ac"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// referenceDecode is the decode the lockstep kernel replaced, kept as the
// differential reference: one group, one row, one symbol at a time
// through scalar ac.Decode, each row dequantized by quant's row methods.
func referenceDecode(t *testing.T, c *Codec, data []byte) *tensor.KV {
	t.Helper()
	p, err := c.ParseChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	hdr := p.Header
	kv := tensor.New(hdr.Layers, hdr.Tokens, hdr.Channels)
	b := c.bank
	vq, err := quant.NewVectorwise(c.cfg.AnchorBits)
	if err != nil {
		t.Fatal(err)
	}
	bins := c.cfg.binsFor(hdr.Level)
	channels := hdr.Channels
	syms := make([]int, channels)
	decodeRow := func(dec *ac.Decoder, tabs []*ac.FreqTable) {
		for ch := range syms {
			s, err := dec.Decode(tabs[ch])
			if err != nil {
				t.Fatal(err)
			}
			syms[ch] = s
		}
	}
	for gi, g := range p.groups {
		dec := ac.NewDecoder(data[p.groupOff[gi]:p.groupOff[gi+1]])
		for _, kind := range tensor.Kinds {
			for l := 0; l < hdr.Layers; l++ {
				u, err := quant.NewUniform(bins.BinFor(l, hdr.Layers), c.cfg.DeltaClamp)
				if err != nil {
					t.Fatal(err)
				}
				deltaRow := b.rowTables(hdr.Level, kind, l)
				if c.cfg.DisableDelta {
					for tok := g.start; tok < g.end; tok++ {
						decodeRow(dec, deltaRow)
						u.DequantizeRow(syms, nil, kv.Row(kind, l, tok))
					}
					continue
				}
				anchorRow := kv.Row(kind, l, g.start)
				decodeRow(dec, b.rowAnchorTables[int(kind)*b.layers+l])
				vq.DequantizeRow(syms, b.anchorScales[kind][l*channels:(l+1)*channels], anchorRow)
				for tok := g.start + 1; tok < g.end; tok++ {
					decodeRow(dec, deltaRow)
					u.DequantizeRow(syms, anchorRow, kv.Row(kind, l, tok))
				}
			}
		}
	}
	return kv
}

// sameBits fails unless got's tokens [off, off+want.Tokens) carry want's
// exact float32 bits and every other token of got is still zero.
func sameBits(t *testing.T, what string, got *tensor.KV, off int, want *tensor.KV) {
	t.Helper()
	for _, kind := range tensor.Kinds {
		for l := 0; l < got.Layers; l++ {
			for tok := 0; tok < got.Tokens; tok++ {
				row := got.Row(kind, l, tok)
				var ref []float32
				if tok >= off && tok < off+want.Tokens {
					ref = want.Row(kind, l, tok-off)
				}
				for ch, x := range row {
					var w float32
					if ref != nil {
						w = ref[ch]
					}
					if math.Float32bits(x) != math.Float32bits(w) {
						t.Fatalf("%s: %v layer %d token %d channel %d: got %v, reference %v", what, kind, l, tok, ch, x, w)
					}
				}
			}
		}
	}
}

// TestDecodeMatchesReference decodes chunks whose group counts hit every
// shape the kernel's callers cut — one group, a short last group, lanes
// of one group, lane and job sizes that are not multiples of the kernel
// width — in both container formats, lane by lane in reverse order and
// whole, into an offset window of a larger destination, and wants the
// reference decode's exact bits.
func TestDecodeMatchesReference(t *testing.T) {
	m := testModel(t)
	samples := []*tensor.KV{m.CalculateKV(testTokens(1000, 400)), m.CalculateKV(testTokens(1001, 400))}
	full := m.CalculateKV(testTokens(77, 1628))
	variants := []struct {
		name string
		cfg  func(*Config)
	}{
		{"default", func(*Config) {}},
		{"1worker-5lanes", func(c *Config) { c.Workers, c.CoderLanes = 1, 5 }},
		{"3workers-raw", func(c *Config) { c.Workers, c.DisableDelta = 3, true }},
	}
	for _, v := range variants {
		cfg := DefaultConfig()
		cfg.ChunkTokens = 2000
		v.cfg(&cfg)
		bank, err := Train(cfg, samples)
		if err != nil {
			t.Fatal(err)
		}
		codec := NewCodec(bank)
		g, lanes := cfg.GroupSize, cfg.CoderLanes
		for i, tokens := range []int{1, g - 1, g + 1, 4*g*lanes - 1, 4*g*lanes + 1, 1628} {
			kv, err := full.SliceTokens(0, tokens)
			if err != nil {
				t.Fatal(err)
			}
			lv := Level(i % cfg.Levels())
			v2, err := codec.EncodeChunk(kv, 0, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range []int{FormatV1, FormatV2} {
				name := fmt.Sprintf("%s/%dtok/v%d", v.name, tokens, format)
				data := v2
				if format == FormatV1 {
					data = reframeV1(t, codec, v2)
				}
				want := referenceDecode(t, codec, data)
				p, err := codec.ParseChunk(data)
				if err != nil {
					t.Fatal(err)
				}
				const off = 3
				dst := tensor.New(kv.Layers, tokens+7, kv.Channels)
				for lane := p.Lanes() - 1; lane >= 0; lane-- {
					if err := codec.DecodeLaneInto(dst, off, p, lane, data); err != nil {
						t.Fatalf("%s: lane %d: %v", name, lane, err)
					}
				}
				sameBits(t, name+" by lane", dst, off, want)
				dst = tensor.New(kv.Layers, tokens+7, kv.Channels)
				if err := codec.DecodeParsedInto(dst, off, p, data); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameBits(t, name+" whole", dst, off, want)
			}
		}
	}
}

// codecWith is a codec over bank that runs `workers` coders and encodes
// `lanes` coder lanes per chunk — the two settings outside the bank.
func codecWith(bank *ModelBank, workers, lanes int) *Codec {
	c := NewCodec(bank)
	c.cfg.CoderLanes = lanes
	c.workers, c.slots = workers, newSlots(workers)
	return c
}

// partitions returns every way to cut lanes [0, n) into contiguous ranges,
// each as its range boundaries 0 = b0 < b1 < … < bk = n.
func partitions(n int) [][]int {
	var out [][]int
	for mask := 0; mask < 1<<(n-1); mask++ {
		cuts := []int{0}
		for i := 1; i < n; i++ {
			if mask&(1<<(i-1)) != 0 {
				cuts = append(cuts, i)
			}
		}
		out = append(out, append(cuts, n))
	}
	return out
}

// randomPartition cuts lanes [0, n) into contiguous ranges at random.
func randomPartition(rng *rand.Rand, n int) []int {
	cuts := []int{0}
	for i := 1; i < n; i++ {
		if rng.Intn(3) == 0 {
			cuts = append(cuts, i)
		}
	}
	return append(cuts, n)
}

// TestDecodeLanesMatchReference decodes a chunk with a short last group
// range by range — every contiguous partition of its lanes at up to five
// lanes, 200 random ones at sixteen, last range first — in both container
// formats on codecs of 1, 2 and 4 workers, and wants the reference
// decode's exact bits, in an offset window of a larger destination.
func TestDecodeLanesMatchReference(t *testing.T) {
	m := testModel(t)
	cfg := DefaultConfig()
	cfg.ChunkTokens = 2000
	bank, err := Train(cfg, []*tensor.KV{m.CalculateKV(testTokens(1000, 400)), m.CalculateKV(testTokens(1001, 400))})
	if err != nil {
		t.Fatal(err)
	}
	kv := m.CalculateKV(testTokens(78, 397)) // 40 groups, the last of 7 tokens
	rng := rand.New(rand.NewSource(11))
	const off = 3
	var want *tensor.KV
	for _, workers := range []int{1, 2, 4} {
		for _, lanes := range []int{1, 2, 3, 4, 5, 16} {
			codec := codecWith(bank, workers, lanes)
			for _, format := range []int{FormatV1, FormatV2} {
				if format == FormatV1 && lanes > 1 {
					continue // a v1 container's lanes are the decoding codec's workers
				}
				data, err := codec.EncodeChunk(kv, 0, 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				if format == FormatV1 {
					data = reframeV1(t, codec, data)
				}
				if want == nil { // every lane count and format carries the same group streams
					want = referenceDecode(t, codec, data)
				}
				p, err := codec.ParseChunk(data)
				if err != nil {
					t.Fatal(err)
				}
				var parts [][]int
				if p.Lanes() <= 5 {
					parts = partitions(p.Lanes())
				} else {
					// The race detector needs a few cross-lane job lists per
					// worker count, not two hundred at ten times the cost.
					random := 200
					if raceEnabled {
						random = 20
					}
					for i := 0; i < random; i++ {
						parts = append(parts, randomPartition(rng, p.Lanes()))
					}
				}
				for _, cuts := range parts {
					name := fmt.Sprintf("workers %d, v%d, %d lanes, ranges %v", workers, format, p.Lanes(), cuts)
					dst := tensor.New(kv.Layers, kv.Tokens+7, kv.Channels)
					for i := len(cuts) - 1; i > 0; i-- {
						if err := codec.decodeLanes(dst, off, p, cuts[i-1], cuts[i], data); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					sameBits(t, name, dst, off, want)
				}
			}
		}
	}
}

// TestDecodeLanesCorruptLane: a corrupt lane anywhere in a range fails the
// range with an ErrCorruptChunk naming that lane, before any group of the
// range has decoded.
func TestDecodeLanesCorruptLane(t *testing.T) {
	codec, m := testCodec(t, DefaultConfig())
	kv := m.CalculateKV(testTokens(79, 400))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codec.ParseChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	zero := tensor.New(kv.Layers, 0, kv.Channels)
	for _, r := range []struct{ lo, bad, hi int }{{0, 0, 16}, {0, 15, 16}, {3, 7, 12}, {5, 5, 6}, {9, 10, 11}} {
		bad := append([]byte(nil), data...)
		bad[p.groupOff[p.lanes[r.bad].start]] ^= 0x10
		dst := tensor.New(kv.Layers, kv.Tokens, kv.Channels)
		err := codec.decodeLanes(dst, 0, p, r.lo, r.hi, bad)
		if !errors.Is(err, ErrCorruptChunk) || !strings.Contains(err.Error(), fmt.Sprintf("lane %d ", r.bad)) {
			t.Errorf("lanes [%d,%d) with lane %d corrupt: %v, want ErrCorruptChunk naming lane %d", r.lo, r.hi, r.bad, err, r.bad)
		}
		sameBits(t, fmt.Sprintf("lanes [%d,%d) after the corrupt lane %d", r.lo, r.hi, r.bad), dst, 0, zero)
	}
}

// TestDecodeLaneAllocs pins the streaming unit at zero steady-state
// allocations — decoders, stream descriptors and value tables all live in
// pooled scratch or the bank — on a codec with coders to spare and lanes
// of ten groups, which a range cuts into several jobs: one lane is still
// one job on the caller. A range of lanes allocates its job list and a
// closure per helper it recruits, nothing else.
//
// It also bounds the codec's whole-call allocations on allocRig at
// GOMAXPROCS=1: each row may allocate at most 10% more per call than the
// count recorded in its table (sync.Pool refills after a GC move the
// count a little), and zero stays zero. Record the new count when a
// change moves one.
func TestDecodeLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newAllocRig(t)
	chunks, err := r.codec.EncodeContext(r.kv, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := r.codec.EncodeChunk(r.chunkKV, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := r.codec.ParseChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	laneDst := tensor.New(r.chunkKV.Layers, r.chunkKV.Tokens, r.chunkKV.Channels)
	lane := 0
	for _, row := range []struct {
		name   string
		runs   int
		allocs float64 // per call, when last recorded
		op     func() error
	}{
		{"encode_context_l1", 10, 250, func() error { _, err := r.codec.EncodeContext(r.kv, 1); return err }},
		{"decode_context_l1", 10, 85, func() error { _, err := r.codec.DecodeContext(chunks); return err }},
		{"decode_lane_l1", 50, 0, func() error {
			lane = (lane + 1) % parsed.Lanes()
			return r.codec.DecodeLaneInto(laneDst, 0, parsed, lane, chunk)
		}},
	} {
		allocs := testing.AllocsPerRun(row.runs, func() {
			if err := row.op(); err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
		})
		t.Logf("%s: %v allocs per call, %v recorded", row.name, allocs, row.allocs)
		if allocs > row.allocs*1.1 {
			t.Errorf("%s: %v allocs per call, more than 10%% over the recorded %v", row.name, allocs, row.allocs)
		}
	}

	cfg := smallConfig()
	cfg.Workers, cfg.CoderLanes = 4, 4
	codec, m := testCodec(t, cfg)
	kv := m.CalculateKV(testTokens(5, 400))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := codec.ParseChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	dst := tensor.New(kv.Layers, kv.Tokens, kv.Channels)
	allocs := testing.AllocsPerRun(50, func() {
		for lane := 0; lane < p.Lanes(); lane++ {
			if err := codec.DecodeLaneInto(dst, 0, p, lane, data); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeLaneInto over %d lanes: %v allocs, want 0", p.Lanes(), allocs)
	}
	for _, r := range [][2]int{{0, 2}, {1, 4}, {0, 4}} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := codec.decodeLanes(dst, 0, p, r[0], r[1], data); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(1 + codec.workers - 1); allocs > limit {
			t.Errorf("lanes [%d,%d): %v allocs, want at most %v (the job list and %d helpers)", r[0], r[1], allocs, limit, codec.workers-1)
		}
	}
}
