package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/llm"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// testModel returns a small simulated LLM for codec tests.
func testModel(t testing.TB) *llm.Model {
	t.Helper()
	m, err := llm.New(llm.Config{
		Name: "codec-test", Layers: 6, KVChannels: 24, Channels: 24,
		Hidden: 128, Params: 1e8, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testTokens(seed int64, n int) []llm.Token {
	rng := rand.New(rand.NewSource(seed))
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

// testCodec trains a codec on sample contexts from the model.
func testCodec(t testing.TB, cfg Config) (*Codec, *llm.Model) {
	t.Helper()
	m := testModel(t)
	var samples []*tensor.KV
	for s := int64(0); s < 3; s++ {
		samples = append(samples, m.CalculateKV(testTokens(1000+s, 400)))
	}
	bank, err := Train(cfg, samples)
	if err != nil {
		t.Fatal(err)
	}
	return NewCodec(bank), m
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.ChunkTokens = 100 // multiple of GroupSize so chunking is exact
	return cfg
}

func TestConfigNormalize(t *testing.T) {
	cfg, err := (Config{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GroupSize != 10 || cfg.AnchorBits != 8 || cfg.ChunkTokens != 1500 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	bad := []Config{
		{GroupSize: 1},
		{AnchorBits: 1},
		{ChunkTokens: 5, GroupSize: 10},
		{DeltaClamp: -1},
		{DeltaClamp: maxDeltaClamp + 1}, // alphabet wider than a FreqTable
		{LevelMultipliers: []float64{0}},
		{LevelMultipliers: []float64{math.NaN()}},
		{LevelMultipliers: []float64{math.Inf(1)}},
		{BaseBins: quant.LayerGroupBins{Bins: [3]float64{0.5, math.NaN(), 1.5}}},
	}
	for i, c := range bad {
		if _, err := c.Normalize(); err == nil {
			t.Errorf("case %d: Normalize accepted invalid config", i)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(DefaultConfig(), nil); err == nil {
		t.Error("Train accepted no samples")
	}
	a := tensor.New(2, 50, 4)
	b := tensor.New(3, 50, 4)
	if _, err := Train(DefaultConfig(), []*tensor.KV{a, b}); err == nil {
		t.Error("Train accepted mismatched geometry")
	}
	tiny := tensor.New(2, 5, 4)
	if _, err := Train(DefaultConfig(), []*tensor.KV{tiny}); err == nil {
		t.Error("Train accepted sample below group size")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(7, 230)) // includes a partial final group

	for lv := 0; lv < codec.Config().Levels(); lv++ {
		data, err := codec.EncodeChunk(kv, 0, 0, Level(lv))
		if err != nil {
			t.Fatalf("level %d: %v", lv, err)
		}
		ch, err := codec.DecodeChunk(data)
		if err != nil {
			t.Fatalf("level %d decode: %v", lv, err)
		}
		if ch.Level != Level(lv) || ch.Index != 0 || ch.TokenOffset != 0 {
			t.Errorf("level %d metadata: %+v", lv, ch)
		}
		if ch.KV.Tokens != kv.Tokens {
			t.Fatalf("level %d tokens: got %d want %d", lv, ch.KV.Tokens, kv.Tokens)
		}
		// Reconstruction error bounded: ≤ half the coarsest bin plus
		// anchor quantization error (clamping can add tail error, so allow
		// a small margin).
		bins := codec.Config().binsFor(Level(lv))
		maxErr, err := kv.MaxAbsDiff(ch.KV)
		if err != nil {
			t.Fatal(err)
		}
		bound := bins.Bins[2]/2 + 0.5
		if maxErr > bound {
			t.Errorf("level %d max error %.3f exceeds bound %.3f", lv, maxErr, bound)
		}
	}
}

// TestEncodeInfinityDecodesToPositiveExtreme: a +Inf delta element
// saturates to the top of its row's range — the anchor plus Clamp bins,
// bit-identical to any huge finite value — on every architecture. (When the
// quantizer converted to int32 before clamping it became −Clamp on amd64.)
func TestEncodeInfinityDecodesToPositiveExtreme(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(13, 40))
	const l, tok, ch, lv = 2, 3, 5, 1 // token 3 is a delta row of group 0
	kv.Row(tensor.Kinds[0], l, tok)[ch] = float32(math.Inf(1))
	data, err := codec.EncodeChunk(kv, 0, 0, lv)
	if err != nil {
		t.Fatal(err)
	}
	finite := kv.Clone()
	finite.Row(tensor.Kinds[0], l, tok)[ch] = 1e6
	want, err := codec.EncodeChunk(finite, 0, 0, lv)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Error("+Inf encodes differently from a huge finite value")
	}
	dec, err := codec.DecodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	anchor := float64(dec.KV.Row(tensor.Kinds[0], l, 0)[ch])
	top := anchor + float64(codec.Config().DeltaClamp)*codec.Config().binsFor(lv).BinFor(l, kv.Layers)
	if got := float64(dec.KV.Row(tensor.Kinds[0], l, tok)[ch]); math.Abs(got-top) > 1e-4*math.Abs(top)+1e-4 {
		t.Errorf("+Inf decoded to %v, want the row's positive extreme %v (anchor %v)", got, top, anchor)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(8, 150))
	a, err := codec.EncodeChunk(kv, 2, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := codec.EncodeChunk(kv, 2, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("parallel encoding is not deterministic")
	}
}

func TestLevelsTradeOffSizeForError(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(9, 300))
	var prevSize int
	var prevErr float64
	for lv := 0; lv < codec.Config().Levels(); lv++ {
		data, err := codec.EncodeChunk(kv, 0, 0, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		ch, err := codec.DecodeChunk(data)
		if err != nil {
			t.Fatal(err)
		}
		rmse, err := kv.LayerRMSE(ch.KV)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, r := range rmse {
			total += r
		}
		if lv > 0 {
			if len(data) >= prevSize {
				t.Errorf("level %d size %d not below level %d size %d", lv, len(data), lv-1, prevSize)
			}
			if total <= prevErr {
				t.Errorf("level %d error %v not above level %d error %v", lv, total, lv-1, prevErr)
			}
		}
		prevSize, prevErr = len(data), total
	}
}

// TestCompressionRatioVs8Bit checks the headline claim: CacheGen's encoder
// produces bitstreams 3.5–4.3× smaller than 8-bit quantization (§7.2).
// The 8-bit baseline size is 1 byte/element plus scales.
func TestCompressionRatioVs8Bit(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(10, 400))
	data, err := codec.EncodeChunk(kv, 0, 0, 1) // default medium level
	if err != nil {
		t.Fatal(err)
	}
	baseline8 := 2 * kv.Elems() // bytes: K and V at 1 byte each
	ratio := float64(baseline8) / float64(len(data))
	if ratio < 3.0 || ratio > 5.5 {
		t.Errorf("compression vs 8-bit = %.2fx, want ≈3.5–4.3x (paper §7.2)", ratio)
	}
}

// TestPerChannelModelsBeatGlobal reproduces the §5.2 claim that
// per-(layer,channel) AC models reduce bitstream size versus one global
// distribution (up to 53%).
func TestPerChannelModelsBeatGlobal(t *testing.T) {
	perChan, m := testCodec(t, smallConfig())
	globalCfg := smallConfig()
	globalCfg.GlobalACModel = true
	global, _ := testCodec(t, globalCfg)

	kv := m.CalculateKV(testTokens(11, 400))
	a, err := perChan.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := global.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	saving := 1 - float64(len(a))/float64(len(b))
	if saving < 0.10 {
		t.Errorf("per-channel models save only %.1f%% vs global (want >10%%, paper: up to 53%%)", 100*saving)
	}
}

// TestAblationOrdering reproduces Figure 15's ordering at matched level:
// raw-quantized+AC > +delta (change-based) ≥ full CacheGen in size.
func TestAblationOrdering(t *testing.T) {
	base := smallConfig()

	noDelta := base
	noDelta.DisableDelta = true
	noDelta.DisableLayerwise = true

	deltaOnly := base
	deltaOnly.DisableLayerwise = true

	full := base

	sizes := map[string]int{}
	var m *llm.Model
	for name, cfg := range map[string]Config{"quantAC": noDelta, "deltaAC": deltaOnly, "full": full} {
		codec, model := testCodec(t, cfg)
		m = model
		kv := m.CalculateKV(testTokens(12, 400))
		data, err := codec.EncodeChunk(kv, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = len(data)
	}
	if !(sizes["quantAC"] > sizes["deltaAC"]) {
		t.Errorf("delta encoding did not shrink bitstream: %v", sizes)
	}
	if sizes["full"] > sizes["quantAC"] {
		t.Errorf("full CacheGen larger than quant+AC: %v", sizes)
	}
}

func TestEncodeChunkValidation(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(13, 50))
	if _, err := codec.EncodeChunk(kv, 0, 0, Level(99)); err == nil {
		t.Error("accepted invalid level")
	}
	if _, err := codec.EncodeChunk(kv, -1, 0, 0); err == nil {
		t.Error("accepted negative chunk index")
	}
	empty := tensor.New(6, 0, 24)
	if _, err := codec.EncodeChunk(empty, 0, 0, 0); err == nil {
		t.Error("accepted empty chunk")
	}
	wrong := tensor.New(2, 50, 8)
	if _, err := codec.EncodeChunk(wrong, 0, 0, 0); err == nil {
		t.Error("accepted wrong geometry")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(14, 120))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Bit flips anywhere must be caught by the checksum.
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 20; trial++ {
		bad := append([]byte{}, data...)
		bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
		if _, err := codec.DecodeChunk(bad); err == nil {
			t.Fatal("DecodeChunk accepted corrupted data")
		}
	}
	// Truncations.
	for _, n := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := codec.DecodeChunk(data[:n]); err == nil {
			t.Errorf("DecodeChunk accepted truncation to %d bytes", n)
		}
	}
	// Garbage of plausible length must error, never panic.
	garbage := make([]byte, len(data))
	rng.Read(garbage)
	if _, err := codec.DecodeChunk(garbage); err == nil {
		t.Error("DecodeChunk accepted garbage")
	}
}

func TestDecodeWrongBank(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(16, 60))
	data, err := codec.EncodeChunk(kv, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A codec trained for different geometry must reject the chunk.
	other := tensor.New(3, 60, 8)
	rng := rand.New(rand.NewSource(17))
	for i := range other.K {
		other.K[i] = float32(rng.NormFloat64())
		other.V[i] = float32(rng.NormFloat64())
	}
	bank2, err := Train(smallConfig(), []*tensor.KV{other})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodec(bank2).DecodeChunk(data); err == nil {
		t.Error("decode with mismatched bank geometry succeeded")
	}
}

func TestChunkedContextRoundTrip(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(18, 350)) // 4 chunks: 100+100+100+50

	offs := codec.SplitOffsets(kv.Tokens)
	want := []int{0, 100, 200, 300, 350}
	if len(offs) != len(want) {
		t.Fatalf("SplitOffsets = %v", offs)
	}
	for i := range want {
		if offs[i] != want[i] {
			t.Fatalf("SplitOffsets = %v, want %v", offs, want)
		}
	}

	chunks, err := codec.EncodeContext(kv, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	got, err := codec.DecodeContext(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tokens != kv.Tokens {
		t.Fatalf("reassembled %d tokens, want %d", got.Tokens, kv.Tokens)
	}

	// Chunked encoding must equal whole-context encoding element-wise
	// (chunks are independent because boundaries align with token groups).
	whole, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wholeDec, err := codec.DecodeChunk(whole)
	if err != nil {
		t.Fatal(err)
	}
	d, err := got.MaxAbsDiff(wholeDec.KV)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("chunked and whole decodes differ by %v", d)
	}
}

func TestDecodeContextMixedLevels(t *testing.T) {
	// Chunks sent at different levels decode and concatenate (§5.3).
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(19, 300))
	offs := codec.SplitOffsets(kv.Tokens)
	var chunks [][]byte
	for i := 0; i+1 < len(offs); i++ {
		part, err := kv.SliceTokens(offs[i], offs[i+1])
		if err != nil {
			t.Fatal(err)
		}
		lv := Level(i % codec.Config().Levels())
		data, err := codec.EncodeChunk(part, i, offs[i], lv)
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, data)
	}
	got, err := codec.DecodeContext(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tokens != kv.Tokens {
		t.Errorf("mixed-level reassembly has %d tokens, want %d", got.Tokens, kv.Tokens)
	}
}

func TestDecodeContextRejectsDisorder(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(20, 200))
	chunks, err := codec.EncodeContext(kv, 0)
	if err != nil {
		t.Fatal(err)
	}
	swapped := [][]byte{chunks[1], chunks[0]}
	if _, err := codec.DecodeContext(swapped); err == nil {
		t.Error("DecodeContext accepted out-of-order chunks")
	}
}

func TestEncodeAllLevels(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(21, 200))
	for lv := 0; lv < codec.Config().Levels(); lv++ {
		chunks, err := codec.EncodeContext(kv, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		if len(chunks) != 2 {
			t.Errorf("level %d: %d chunks, want 2", lv, len(chunks))
		}
	}
}

func TestBankSerializationRoundTrip(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(22, 150))
	want, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	data, err := codec.Bank().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bank2, err := UnmarshalBank(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCodec(bank2).EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Error("restored bank produces different bitstreams")
	}

	// Corruption detection.
	bad := append([]byte{}, data...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := UnmarshalBank(bad); err == nil {
		t.Error("UnmarshalBank accepted corruption")
	}
	if _, err := UnmarshalBank(data[:10]); err == nil {
		t.Error("UnmarshalBank accepted truncation")
	}
}

func BenchmarkEncodeChunk(b *testing.B) {
	codec, m := testCodec(b, smallConfig())
	kv := m.CalculateKV(testTokens(30, 300))
	data, _ := codec.EncodeChunk(kv, 0, 0, 1)
	b.SetBytes(int64(kv.Elems() * 2 * 4))
	b.ReportMetric(float64(len(data)*8)/float64(kv.Elems()*2), "bits/elem")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeChunk(kv, 0, 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeChunk(b *testing.B) {
	codec, m := testCodec(b, smallConfig())
	kv := m.CalculateKV(testTokens(31, 300))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(kv.Elems() * 2 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeChunk(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeChunkRejectsOverflowingGroupLengths: a checksum-valid
// container whose group-length uvarints wrap int must fail with
// ErrCorruptChunk, not panic on slice bounds — in both container
// formats, each re-sealed with its own CRC so the forgery reaches the
// length checks.
func TestDecodeChunkRejectsOverflowingGroupLengths(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(77, 20))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("DecodeChunk panicked on forged lengths: %v", r)
		}
	}()

	huge := uint64(1) << 63
	readVals := func(t *testing.T, p []byte, n int) ([]uint64, []byte) {
		t.Helper()
		vals := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			v, k := binary.Uvarint(p)
			if k <= 0 {
				t.Fatal("truncated header")
			}
			vals = append(vals, v)
			p = p[k:]
		}
		return vals, p
	}

	t.Run("v1", func(t *testing.T) {
		data := readGolden(t, "golden_chunk_v1_l0.bin")
		// Rebuild the container with two absurd group lengths whose int
		// sum wraps to the real payload size, then re-seal the CRC.
		hdr := data[:6]
		vals, rest := readVals(t, data[6:len(data)-4], 7)
		numGroups := int(vals[6])
		payload := rest
		for i := 0; i < numGroups; i++ {
			_, n := binary.Uvarint(payload)
			payload = payload[n:]
		}
		if numGroups < 2 {
			t.Fatalf("need >= 2 groups, have %d", numGroups)
		}
		// numGroups is validated against tokens/groupSize, so keep the
		// real group count and forge only the lengths.
		forged := append([]byte{}, hdr...)
		for _, v := range vals {
			forged = binary.AppendUvarint(forged, v)
		}
		forged = binary.AppendUvarint(forged, huge)
		forged = binary.AppendUvarint(forged, huge+uint64(len(payload)))
		for i := 2; i < numGroups; i++ {
			forged = binary.AppendUvarint(forged, 0)
		}
		forged = append(forged, payload...)
		var sum [4]byte
		binary.BigEndian.PutUint32(sum[:], crc32.ChecksumIEEE(forged))
		forged = append(forged, sum[:]...)
		if _, err := codec.DecodeChunk(forged); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("DecodeChunk = %v, want ErrCorruptChunk", err)
		}
	})

	t.Run("v2", func(t *testing.T) {
		data, err := codec.EncodeChunk(kv, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Take the v2 container apart: fixed prefix, 7 header uvarints
		// (the last is the lane count), the lane-CRC table, the group
		// lengths, the header CRC, then the payload.
		hdr := data[:6]
		vals, rest := readVals(t, data[6:], 7)
		groupSize, lanes := int(vals[5]), int(vals[6])
		numGroups := (int(vals[3]) + groupSize - 1) / groupSize
		laneTab := rest[:4*lanes]
		_, rest = readVals(t, rest[4*lanes:], numGroups)
		payload := rest[4:] // skip the header CRC
		if numGroups < 2 {
			t.Fatalf("need >= 2 groups, have %d", numGroups)
		}
		// Forge int-wrapping lengths and re-seal the header CRC: the
		// length bound must reject before any offset arithmetic runs.
		forged := append([]byte{}, hdr...)
		for _, v := range vals {
			forged = binary.AppendUvarint(forged, v)
		}
		forged = append(forged, laneTab...)
		forged = binary.AppendUvarint(forged, huge)
		forged = binary.AppendUvarint(forged, huge+uint64(len(payload)))
		for i := 2; i < numGroups; i++ {
			forged = binary.AppendUvarint(forged, 0)
		}
		forged = binary.BigEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
		forged = append(forged, payload...)
		if _, err := codec.DecodeChunk(forged); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("DecodeChunk = %v, want ErrCorruptChunk", err)
		}
	})
}

// TestParseChunkPrefixIncremental drives the streaming consumer's
// contract directly: feeding ever-longer prefixes of a v2 container to
// ParseChunkPrefix must return ErrShortChunk until the header has
// arrived, then a ParsedChunk whose lanes become decodable exactly when
// their LaneEnd offset is covered — and the lane-assembled KV must be
// bit-identical to the whole-chunk decode.
func TestParseChunkPrefixIncremental(t *testing.T) {
	codec, m := testCodec(t, smallConfig())
	kv := m.CalculateKV(testTokens(78, 40))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := codec.DecodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}

	var p *ParsedChunk
	headerLen := 0
	for n := 0; n <= len(data); n++ {
		got, err := codec.ParseChunkPrefix(data[:n], len(data))
		if err == nil {
			p = got
			headerLen = n
			break
		}
		if !errors.Is(err, ErrShortChunk) {
			t.Fatalf("prefix of %d bytes: %v, want ErrShortChunk", n, err)
		}
	}
	if p == nil {
		t.Fatal("no prefix parsed")
	}
	if p.Lanes() < 2 {
		t.Fatalf("want multiple lanes, got %d", p.Lanes())
	}
	if p.Size() != len(data) {
		t.Fatalf("Size() = %d, want %d", p.Size(), len(data))
	}

	dst := tensor.New(kv.Layers, p.Header.Tokens, kv.Channels)
	for lane := 0; lane < p.Lanes(); lane++ {
		end := p.LaneEnd(lane)
		if end <= headerLen || end > len(data) {
			t.Fatalf("lane %d ends at %d outside (%d,%d]", lane, end, headerLen, len(data))
		}
		// One byte short of the lane's range: must refuse as short.
		if err := codec.DecodeLaneInto(dst, 0, p, lane, data[:end-1]); !errors.Is(err, ErrShortChunk) {
			t.Fatalf("lane %d with short prefix: %v, want ErrShortChunk", lane, err)
		}
		if err := codec.DecodeLaneInto(dst, 0, p, lane, data[:end]); err != nil {
			t.Fatalf("lane %d: %v", lane, err)
		}
	}
	d, err := whole.KV.MaxAbsDiff(dst)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("lane-assembled KV differs from whole-chunk decode (max abs diff %v)", d)
	}

	// A flipped payload bit must surface as that lane's corruption.
	bad := append([]byte{}, data...)
	bad[headerLen] ^= 0x40
	pb, err := codec.ParseChunkPrefix(bad, len(bad))
	if err != nil {
		t.Fatalf("header should still parse: %v", err)
	}
	if err := codec.DecodeLaneInto(dst, 0, pb, 0, bad); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("corrupt lane 0 decode = %v, want ErrCorruptChunk", err)
	}
}
