package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestTrainReproducesGoldenBank pins the trainer itself: the committed
// golden bank is what Train makes of the test rig's samples, byte for
// byte.
func TestTrainReproducesGoldenBank(t *testing.T) {
	codec, _ := testCodec(t, goldenConfig())
	got, err := codec.Bank().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if want := readGolden(t, "golden_bank.bin"); !bytes.Equal(got, want) {
		t.Fatalf("Train produced a %d-byte bank differing from the %d-byte golden_bank.bin", len(got), len(want))
	}
}

// TestTrainBankDigests pins the SHA-256 of MarshalBinary for the
// ablations and for sample shapes the golden bank does not cover, at
// several worker counts: 1, 2, and 5, which does not divide the test
// model's 12 (kind, layer) blocks. The digests were recorded from the
// single-goroutine trainer the parallel one replaced.
func TestTrainBankDigests(t *testing.T) {
	m := testModel(t)
	var even []*tensor.KV
	for s := int64(0); s < 3; s++ {
		even = append(even, m.CalculateKV(testTokens(1000+s, 400)))
	}
	// Token counts that are not a multiple of GroupSize: every sample
	// ends in a partial group.
	ragged := []*tensor.KV{m.CalculateKV(testTokens(2000, 403)), m.CalculateKV(testTokens(2001, 417))}
	cases := []struct {
		name    string
		mod     func(*Config)
		samples []*tensor.KV
		digest  string
	}{
		{"golden", func(*Config) {}, even,
			"e0fd1514b40aa00c13815ca6fe0953e324dfb8f16cbab1c4446e3a7cc53c537e"},
		{"disable-delta", func(c *Config) { c.DisableDelta = true }, even,
			"98e9b68366e399474289595608046db247fb6fb2c1f045c50a25cd87285402f2"},
		{"disable-layerwise", func(c *Config) { c.DisableLayerwise = true }, even,
			"8c1ac2c3954810f2be97c7d5cc71c6653dd1657279e8a1f53b1b8c4d3df9fb91"},
		{"global-ac-model", func(c *Config) { c.GlobalACModel = true }, even,
			"42de49f8f9fccdb0af035c60741d847671f8b49a30660701ac7ed528eb0ce27e"},
		{"ragged-samples", func(*Config) {}, ragged,
			"04fec9fd3231e2ab4f90e6a02d44f48664ae30007db1f4a3a5a0e45398d4b7a5"},
		{"ragged-disable-delta", func(c *Config) { c.DisableDelta = true }, ragged,
			"4469f7cda49a1e4082b7feeb377f105bf02a7b4d7dad97e68829fb0ba53663fb"},
		// Fewer buckets than channels (24 channels share 5 models per
		// block) and a group size that leaves ragged groups.
		{"shared-buckets", func(c *Config) { c.ChannelBuckets = 5; c.GroupSize = 7 }, ragged,
			"db84201f809ae8e9b60d9c5c0214204c26097bce250209267933471d4376cdfb"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 5} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				cfg := goldenConfig()
				c.mod(&cfg)
				cfg.Workers = workers
				bank, err := Train(cfg, c.samples)
				if err != nil {
					t.Fatal(err)
				}
				data, err := bank.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				if got := hex.EncodeToString(sum[:]); got != c.digest {
					t.Errorf("bank digest %s, want %s", got, c.digest)
				}
			})
		}
	}
}

// forgedBank is a marshalled bank cut into the parts a forgery rewrites.
type forgedBank struct {
	header           [7]uint64 // group size, anchor bits, chunk tokens, buckets, delta clamp, flags, levels
	floats           []byte    // level multipliers and base bins
	layers, channels uint64
	rest             []byte // anchor scales and tables
}

func parseBank(t testing.TB, data []byte) forgedBank {
	t.Helper()
	var f forgedBank
	body := data[len(bankMagic) : len(data)-4]
	next := func() uint64 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			t.Fatal("bank header does not parse")
		}
		body = body[n:]
		return v
	}
	for i := range f.header {
		f.header[i] = next()
	}
	nf := 8 * (int(f.header[6]) + 3)
	f.floats, body = body[:nf], body[nf:]
	f.layers, f.channels = next(), next()
	f.rest = body
	return f
}

// seal marshals the parts back with a valid CRC, so the forgery reaches
// the body parser.
func (f forgedBank) seal() []byte {
	out := []byte(bankMagic)
	for _, v := range f.header {
		out = binary.AppendUvarint(out, v)
	}
	out = append(out, f.floats...)
	out = binary.AppendUvarint(out, f.layers)
	out = binary.AppendUvarint(out, f.channels)
	out = append(out, f.rest...)
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// hugeGeometryBank is a valid bank's header declaring 2^20 layers × 2^20
// channels, with no body behind it: under 100 bytes that once made
// UnmarshalBank allocate 8 TiB of anchor scales.
func hugeGeometryBank(t testing.TB, valid []byte) []byte {
	f := parseBank(t, valid)
	f.layers, f.channels, f.rest = maxBankDim, maxBankDim, nil
	return f.seal()
}

// tinyBank is a trained bank small enough to fuzz: 2 layers × 4
// channels, 15-symbol alphabets, two levels.
func tinyBank(t testing.TB) []byte {
	cfg := Config{AnchorBits: 4, DeltaClamp: 7, ChannelBuckets: 2, LevelMultipliers: []float64{1, 2}}
	bank, err := Train(cfg, []*tensor.KV{randomKV(rand.New(rand.NewSource(5)), 2, 45, 4)})
	if err != nil {
		t.Fatal(err)
	}
	data, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestUnmarshalBankRejectsHugeGeometry(t *testing.T) {
	fuzzSetup(t)
	crafted := hugeGeometryBank(t, fuzzBank)
	if len(crafted) >= 200 {
		t.Fatalf("crafted bank is %d bytes", len(crafted))
	}
	if _, err := UnmarshalBank(crafted); err == nil {
		t.Fatal("UnmarshalBank accepted a bank whose geometry its body cannot hold")
	}
	// Rejected before any allocation the header sizes: what remains is
	// the error message.
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		_, _ = UnmarshalBank(crafted)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Errorf("rejecting a %d-byte bank allocated %d bytes per call", len(crafted), perCall)
	}
}

func TestUnmarshalBankRejectsOutOfRangeHeader(t *testing.T) {
	fuzzSetup(t)
	valid := parseBank(t, fuzzBank)
	cases := []struct {
		name string
		edit func(*forgedBank)
	}{
		{"channel buckets above 2^20", func(f *forgedBank) { f.header[3] = 1 << 40 }},
		// int32 truncation would read this clamp as the valid 127.
		{"delta clamp truncating to 127", func(f *forgedBank) { f.header[4] = 1<<32 + 127 }},
		{"delta clamp wider than a table", func(f *forgedBank) { f.header[4] = maxDeltaClamp + 1 }},
		{"anchor bits truncating to 8", func(f *forgedBank) { f.header[1] = 1<<32 + 8 }},
		{"unknown flag", func(f *forgedBank) { f.header[5] |= 8 }},
		{"scales but no tables", func(f *forgedBank) { f.rest = f.rest[:2*4*f.layers*f.channels] }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := valid
			c.edit(&f)
			if _, err := UnmarshalBank(f.seal()); err == nil {
				t.Error("UnmarshalBank accepted the forged header")
			}
		})
	}
	if _, err := UnmarshalBank(valid.seal()); err != nil {
		t.Fatalf("re-sealed valid bank rejected: %v", err)
	}
}

// TestUnmarshalBankRejectsForeignAlphabet: tables whose alphabet is not
// the config's used to load and then panic inside a decode worker.
func TestUnmarshalBankRejectsForeignAlphabet(t *testing.T) {
	fuzzSetup(t)
	for _, c := range []struct {
		name string
		edit func(*forgedBank)
	}{
		// The delta tables keep 255 symbols; the config now asks for 201.
		{"delta clamp 100", func(f *forgedBank) { f.header[4] = 100 }},
		// The anchor tables keep 255 symbols; 7 bits need 127.
		{"anchor bits 7", func(f *forgedBank) { f.header[1] = 7 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := parseBank(t, fuzzBank)
			c.edit(&f)
			if _, err := UnmarshalBank(f.seal()); err == nil {
				t.Fatal("UnmarshalBank accepted tables over the wrong alphabet")
			}
		})
	}
}
