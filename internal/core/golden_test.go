package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/tensor"
)

// updateGolden regenerates the committed golden-bitstream corpus:
//
//	go test ./internal/core -run TestGoldenBitstreams -update-golden
//
// The fixtures pin the codec's exact output bytes: the bank, the input KV
// and every level's chunk bitstream are committed, so any change to the
// encoder hot path (bulk symbol coding, fused quantize loops, pooled
// scratch) is proven bitstream-identical to the coder that produced them.
// Only regenerate when an intentional format change invalidates them.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden bitstream fixtures")

const goldenDir = "testdata"

// goldenConfig is the corpus geometry: small enough to commit, but with
// multiple token groups (including a partial trailing group), multiple
// layer thirds, and more channels than buckets exercised.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.ChunkTokens = 50
	return cfg
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with -update-golden): %v", name, err)
	}
	return data
}

// goldenKV derives the corpus input tensor deterministically from the test
// model; the committed kv.bin guards against the generator drifting.
func goldenKV(t *testing.T) *tensor.KV {
	t.Helper()
	m := testModel(t)
	return m.CalculateKV(testTokens(4242, 45)) // 4 full groups + a 5-token tail
}

func TestGoldenBitstreams(t *testing.T) {
	if *updateGolden {
		writeGoldenFixtures(t)
	}

	bankData := readGolden(t, "golden_bank.bin")
	bank, err := UnmarshalBank(bankData)
	if err != nil {
		t.Fatalf("golden bank: %v", err)
	}
	codec := NewCodec(bank)

	kv := decodeGoldenKV(t, readGolden(t, "golden_kv.bin"))
	// The committed KV must equal the generator's output, or the corpus no
	// longer matches its own provenance.
	if d, err := goldenKV(t).MaxAbsDiff(kv); err != nil || d != 0 {
		t.Errorf("golden_kv.bin no longer matches the deterministic generator output (diff %v, err %v)", d, err)
	}

	for lv := 0; lv < codec.Config().Levels(); lv++ {
		lv := Level(lv)
		t.Run(fmt.Sprintf("L%d", lv), func(t *testing.T) {
			want := readGolden(t, fmt.Sprintf("golden_chunk_l%d.bin", lv))
			got, err := codec.EncodeChunk(kv, 0, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeChunk(L%d) produced %d bytes differing from the %d-byte golden fixture: the optimized encoder is no longer bitstream-identical",
					lv, len(got), len(want))
			}
			// And the decoder must round-trip the committed bytes exactly.
			ch, err := codec.DecodeChunk(want)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := codec.EncodeChunk(ch.KV, 0, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rt, want) {
				t.Errorf("L%d: re-encoding the decoded golden chunk is not idempotent", lv)
			}
		})
	}
}

// TestGoldenV1Compat pins the legacy read path: the committed CGC1
// fixtures (written before the v2 lane-interleaved container shipped)
// must keep decoding through today's codec to exactly the KV the v2
// encoding decodes to, and that v2 encoding, re-framed as v1, must still
// reproduce their bytes. There is deliberately no -update-golden escape hatch
// here: the golden_chunk_v1_l*.bin fixtures are never regenerated —
// breaking them means breaking every v1 bitstream already in a store.
func TestGoldenV1Compat(t *testing.T) {
	bank, err := UnmarshalBank(readGolden(t, "golden_bank.bin"))
	if err != nil {
		t.Fatalf("golden bank: %v", err)
	}
	codec := NewCodec(bank)
	kv := decodeGoldenKV(t, readGolden(t, "golden_kv.bin"))

	for lv := 0; lv < codec.Config().Levels(); lv++ {
		lv := Level(lv)
		t.Run(fmt.Sprintf("L%d", lv), func(t *testing.T) {
			v1 := readGolden(t, fmt.Sprintf("golden_chunk_v1_l%d.bin", lv))
			p, err := codec.ParseChunk(v1)
			if err != nil {
				t.Fatalf("v1 fixture no longer parses: %v", err)
			}
			if p.Header.Format != FormatV1 {
				t.Fatalf("v1 fixture parsed as format %d", p.Header.Format)
			}
			fromV1, err := codec.DecodeChunk(v1)
			if err != nil {
				t.Fatalf("v1 fixture no longer decodes: %v", err)
			}
			// The v2 encoding of the same tokens must decode to the
			// byte-identical KV: lanes change the container layout, not
			// the coded streams.
			v2, err := codec.EncodeChunk(kv, 0, 0, lv)
			if err != nil {
				t.Fatal(err)
			}
			fromV2, err := codec.DecodeChunk(v2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeGoldenKV(fromV1.KV), encodeGoldenKV(fromV2.KV)) {
				t.Errorf("L%d: v1 fixture and v2 encoding decode to different KV bytes", lv)
			}
			// And its group streams must still be bit-exact against the
			// fixture written before v2 existed.
			if re := reframeV1(t, codec, v2); !bytes.Equal(re, v1) {
				t.Errorf("L%d: the v2 encoding re-framed as v1 no longer reproduces the committed v1 fixture (%d vs %d bytes)",
					lv, len(re), len(v1))
			}
		})
	}
}

// encodeGoldenKV lays a KV out as golden_kv.bin holds it: "KVT1", the
// layer, token and channel counts as big-endian uint32s, every K then V
// element's float32 bits big-endian, and a CRC-32 of all of that.
func encodeGoldenKV(kv *tensor.KV) []byte {
	out := []byte("KVT1")
	for _, v := range []int{kv.Layers, kv.Tokens, kv.Channels} {
		out = binary.BigEndian.AppendUint32(out, uint32(v))
	}
	for _, data := range [][]float32{kv.K, kv.V} {
		for _, x := range data {
			out = binary.BigEndian.AppendUint32(out, math.Float32bits(x))
		}
	}
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeGoldenKV reads a KV written by encodeGoldenKV.
func decodeGoldenKV(t *testing.T, data []byte) *tensor.KV {
	t.Helper()
	n := len(data) - 4
	if n < 16 || string(data[:4]) != "KVT1" || crc32.ChecksumIEEE(data[:n]) != binary.BigEndian.Uint32(data[n:]) {
		t.Fatal("golden kv: not a checksummed KVT1 tensor")
	}
	dim := func(i int) int { return int(binary.BigEndian.Uint32(data[4+4*i:])) }
	kv := tensor.New(dim(0), dim(1), dim(2))
	body := data[16:n]
	if len(body) != 8*kv.Elems() {
		t.Fatalf("golden kv: %d payload bytes for %d elements per tensor", len(body), kv.Elems())
	}
	for i := range kv.K {
		kv.K[i] = math.Float32frombits(binary.BigEndian.Uint32(body[4*i:]))
		kv.V[i] = math.Float32frombits(binary.BigEndian.Uint32(body[4*(len(kv.K)+i):]))
	}
	return kv
}

// reframeV1 lays a v2 container's group streams out as the legacy CGC1
// container: header uvarints, per-group stream lengths, concatenated
// streams, whole-container CRC. The group streams of the two formats are
// identical, so this is the container a v1 encoder wrote for the same
// tokens.
func reframeV1(t testing.TB, codec *Codec, v2 []byte) []byte {
	t.Helper()
	p, err := codec.ParseChunk(v2)
	if err != nil {
		t.Fatal(err)
	}
	h, groups := p.Header, len(p.groups)
	out := append([]byte(chunkMagicV1), chunkVersionV1, byte(h.Level))
	for _, v := range []int{h.Index, h.TokenOffset, h.Layers, h.Tokens, h.Channels, h.groupSize, groups} {
		out = binary.AppendUvarint(out, uint64(v))
	}
	for g := 0; g < groups; g++ {
		out = binary.AppendUvarint(out, uint64(p.groupOff[g+1]-p.groupOff[g]))
	}
	out = append(out, v2[p.groupOff[0]:p.groupOff[groups]]...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// writeGoldenFixtures regenerates the corpus from the deterministic rig.
// It rewrites only the current-format fixtures — the golden_chunk_v1_*
// compat corpus is frozen and has no regeneration path.
func writeGoldenFixtures(t *testing.T) {
	t.Helper()
	codec, _ := testCodec(t, goldenConfig())
	kv := goldenKV(t)
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bankData, err := codec.Bank().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", goldenPath(name), len(data))
	}
	write("golden_bank.bin", bankData)
	write("golden_kv.bin", encodeGoldenKV(kv))
	for lv := 0; lv < codec.Config().Levels(); lv++ {
		stream, err := codec.EncodeChunk(kv, 0, 0, Level(lv))
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("golden_chunk_l%d.bin", lv), stream)
	}
}
