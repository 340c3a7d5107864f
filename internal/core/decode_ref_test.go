package core

import (
	"fmt"
	"math"
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
			for _, format := range []int{FormatV1, FormatV2} {
				name := fmt.Sprintf("%s/%dtok/v%d", v.name, tokens, format)
				data, err := codec.encodeChunkRange(kv, 0, tokens, 0, 0, lv, format)
				if err != nil {
					t.Fatal(err)
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

// TestDecodeLaneAllocs pins the streaming unit at zero steady-state
// allocations: decoders, stream descriptors and value tables all live in
// pooled scratch or the bank.
func TestDecodeLaneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(5, 100))
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
}
