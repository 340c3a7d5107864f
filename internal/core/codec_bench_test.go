package core

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/tensor"
)

// Codec micro-benchmarks: encode/decode throughput, chunk-parallel
// EncodeContext vs the chunk-serial loop it replaced, and the all-levels
// publish workload. Run them with `go test -bench`; the end-to-end
// benchmark (bench/) measures the same kernels inside a serving run.

// allocRig is the shape TestDecodeLaneAllocs pins allocation counts on:
// Mistral-7B at 16 channels, a codec trained with 64-token chunks on one
// 512-token context, a 1024-token context of 16 chunks, and one
// paper-sized 1500-token chunk for the lane decode. Build it under the
// GOMAXPROCS it is measured at: the codec sizes its coders then.
type allocRig struct {
	codec   *Codec
	kv      *tensor.KV
	chunkKV *tensor.KV
}

func newAllocRig(tb testing.TB) allocRig {
	tb.Helper()
	m := llm.MustNew(llm.Mistral7B().WithChannels(16))
	rng := rand.New(rand.NewSource(7))
	tokens := func(n int) []llm.Token {
		out := make([]llm.Token, n)
		for i := range out {
			out[i] = llm.Token(rng.Intn(32000))
		}
		return out
	}
	cfg := DefaultConfig()
	cfg.ChunkTokens = 64
	bank, err := Train(cfg, []*tensor.KV{m.CalculateKV(tokens(512))})
	if err != nil {
		tb.Fatal(err)
	}
	kv := m.CalculateKV(tokens(1024))
	return allocRig{codec: NewCodec(bank), kv: kv, chunkKV: m.CalculateKV(tokens(1500))}
}

// benchCodec builds a small trained codec and a KV cache with many short
// chunks — the shape where chunk-level parallelism matters (each chunk is
// too short for the group-level parallelism inside EncodeChunk to
// saturate the cores on its own).
func benchCodec(b *testing.B, chunkTokens, tokens int) (*Codec, *tensor.KV) {
	b.Helper()
	cfg := DefaultConfig()
	cfg.ChunkTokens = chunkTokens
	rng := rand.New(rand.NewSource(7))
	sample := randomKV(rng, 8, 256, 16)
	bank, err := Train(cfg, []*tensor.KV{sample})
	if err != nil {
		b.Fatal(err)
	}
	kv := randomKV(rng, 8, tokens, 16)
	return NewCodec(bank), kv
}

func randomKV(rng *rand.Rand, layers, tokens, channels int) *tensor.KV {
	kv := tensor.New(layers, tokens, channels)
	for _, kind := range tensor.Kinds {
		for l := 0; l < layers; l++ {
			for t := 0; t < tokens; t++ {
				row := kv.Row(kind, l, t)
				for c := range row {
					row[c] = float32(rng.NormFloat64())
				}
			}
		}
	}
	return kv
}

func kvBytes(kv *tensor.KV) int64 { return int64(kv.Elems()) * 2 * 4 }

// encodeContextSerial is the pre-refactor chunk-serial loop, kept as the
// benchmark baseline for the parallel EncodeContext.
func encodeContextSerial(c *Codec, kv *tensor.KV, lv Level) ([][]byte, error) {
	offs := c.SplitOffsets(kv.Tokens)
	out := make([][]byte, 0, len(offs)-1)
	for i := 0; i+1 < len(offs); i++ {
		part, err := kv.SliceTokens(offs[i], offs[i+1])
		if err != nil {
			return nil, err
		}
		data, err := c.EncodeChunk(part, i, offs[i], lv)
		if err != nil {
			return nil, err
		}
		out = append(out, data)
	}
	return out, nil
}

func BenchmarkEncodeContextSerial(b *testing.B) {
	codec, kv := benchCodec(b, 64, 1024)
	b.SetBytes(kvBytes(kv))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeContextSerial(codec, kv, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeContextParallel(b *testing.B) {
	codec, kv := benchCodec(b, 64, 1024)
	b.SetBytes(kvBytes(kv))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeContext(kv, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeAllLevels(b *testing.B) {
	codec, kv := benchCodec(b, 64, 512)
	b.SetBytes(kvBytes(kv))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncodeAllLevels(kv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeContext(b *testing.B) {
	codec, kv := benchCodec(b, 64, 1024)
	chunks, err := codec.EncodeContext(kv, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(kvBytes(kv))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.DecodeContext(chunks); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeContextParallelMatchesSerial pins the refactor: the parallel
// path must produce bit-identical bitstreams to the serial loop, in
// order.
func TestEncodeContextParallelMatchesSerial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChunkTokens = 48
	rng := rand.New(rand.NewSource(9))
	sample := randomKV(rng, 6, 200, 12)
	bank, err := Train(cfg, []*tensor.KV{sample})
	if err != nil {
		t.Fatal(err)
	}
	codec := NewCodec(bank)
	kv := randomKV(rng, 6, 200, 12)
	for lv := 0; lv < cfg.Levels(); lv++ {
		serial, err := encodeContextSerial(codec, kv, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := codec.EncodeContext(kv, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("level %d: %d serial vs %d parallel chunks", lv, len(serial), len(parallel))
		}
		for i := range serial {
			if string(serial[i]) != string(parallel[i]) {
				t.Errorf("level %d chunk %d: parallel bitstream differs", lv, i)
			}
		}
	}
	// And EncodeAllLevels agrees with per-level EncodeContext.
	all, err := codec.EncodeAllLevels(kv)
	if err != nil {
		t.Fatal(err)
	}
	for lv := range all {
		want, err := codec.EncodeContext(kv, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if string(all[lv][i]) != string(want[i]) {
				t.Errorf("EncodeAllLevels level %d chunk %d differs", lv, i)
			}
		}
	}
}

// mistralChunk is the end-to-end benchmark's decode unit: one 1500-token
// chunk of the Mistral-7B simulator at 32 channels.
func mistralChunk(b *testing.B) (*Codec, *ParsedChunk, []byte, *tensor.KV) {
	return mistralShape(b, 32, 1500)
}

// mistralShape encodes one chunk of the Mistral-7B simulator at L1 with a
// bank trained the way bench/ trains it, and returns the codec, the parsed
// container, its bytes and a destination to decode into.
func mistralShape(b *testing.B, channels, tokens int) (*Codec, *ParsedChunk, []byte, *tensor.KV) {
	b.Helper()
	m := llm.MustNew(llm.Mistral7B().WithChannels(channels))
	bank, err := Train(DefaultConfig(), benchTrainingSet(m))
	if err != nil {
		b.Fatal(err)
	}
	codec := NewCodec(bank)
	kv := m.CalculateKV(testTokens(3, tokens))
	data, err := codec.EncodeChunk(kv, 0, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := codec.ParseChunk(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(kvBytes(kv))
	return codec, p, data, tensor.New(kv.Layers, kv.Tokens, kv.Channels)
}

// benchTrainingSet is the end-to-end benchmark's bank training shape: two
// 600-token contexts of the model.
func benchTrainingSet(m *llm.Model) []*tensor.KV {
	return []*tensor.KV{m.CalculateKV(testTokens(1, 600)), m.CalculateKV(testTokens(2, 600))}
}

// BenchmarkTrain trains the end-to-end benchmark's bank (Mistral-7B at 32
// channels: 64 (kind, layer) blocks) on every core the -cpu flag allows.
func BenchmarkTrain(b *testing.B) {
	samples := benchTrainingSet(llm.MustNew(llm.Mistral7B().WithChannels(32)))
	reportMinOp(b, func() {
		if _, err := Train(DefaultConfig(), samples); err != nil {
			b.Fatal(err)
		}
	})
}

// reportMinOp runs op b.N times and also reports the fastest single run:
// on a shared host the minimum is what survives CPU steal.
func reportMinOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		op()
		best = min(best, time.Since(t0))
	}
	b.ReportMetric(float64(best)/1e6, "min-ms/op")
}

// BenchmarkDecodeLanesMistral decodes the chunk lane by lane on the
// calling goroutine — the fetch pipeline's streaming unit, one core.
func BenchmarkDecodeLanesMistral(b *testing.B) {
	codec, p, data, dst := mistralChunk(b)
	reportMinOp(b, func() {
		for lane := 0; lane < p.Lanes(); lane++ {
			if err := codec.DecodeLaneInto(dst, 0, p, lane, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeParsedMistral decodes the whole container at once, on
// every core the codec may use.
func BenchmarkDecodeParsedMistral(b *testing.B) {
	codec, p, data, dst := mistralChunk(b)
	reportMinOp(b, func() {
		if err := codec.DecodeParsedInto(dst, 0, p, data); err != nil {
			b.Fatal(err)
		}
	})
}

// decodeLanded decodes the chunk the way the fetch pipeline does on
// loopback: the first lane as it lands, then every other lane, landed
// while the first decoded, in one call.
func decodeLanded(b *testing.B, codec *Codec, p *ParsedChunk, data []byte, dst *tensor.KV) {
	for _, r := range [][2]int{{0, 1}, {1, p.Lanes()}} {
		if err := codec.DecodeLandedInto(dst, 0, p, func() (int, int, []byte) { return r[0], r[1], data }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeLandedMistral decodes the chunk as the fetch pipeline's
// decode pump hands it over on a fast link: two cross-lane job lists.
func BenchmarkDecodeLandedMistral(b *testing.B) {
	codec, p, data, dst := mistralChunk(b)
	reportMinOp(b, func() { decodeLanded(b, codec, p, data, dst) })
}

// BenchmarkDecodeLanesFleet is the short-chunk shape of the fleet
// workloads (600 tokens × 16 channels: three or four groups per lane, so
// most lanes never fill the four-wide kernel), lane by lane.
func BenchmarkDecodeLanesFleet(b *testing.B) {
	codec, p, data, dst := mistralShape(b, 16, 600)
	reportMinOp(b, func() {
		for lane := 0; lane < p.Lanes(); lane++ {
			if err := codec.DecodeLaneInto(dst, 0, p, lane, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecodeParsedFleet decodes the same short chunk whole, where
// jobs are cut across lane boundaries.
func BenchmarkDecodeParsedFleet(b *testing.B) {
	codec, p, data, dst := mistralShape(b, 16, 600)
	reportMinOp(b, func() {
		if err := codec.DecodeParsedInto(dst, 0, p, data); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkDecodeLandedFleet is BenchmarkDecodeLandedMistral on the short
// fleet chunk.
func BenchmarkDecodeLandedFleet(b *testing.B) {
	codec, p, data, dst := mistralShape(b, 16, 600)
	reportMinOp(b, func() { decodeLanded(b, codec, p, data, dst) })
}
