package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"testing"
)

// Shared fuzz fixture: building a codec is too slow to do per input.
var (
	fuzzOnce  sync.Once
	fuzzCodec *Codec
	// Valid seeds: a v2 chunk, the same chunk as a legacy v1 container,
	// and the codec's bank.
	fuzzChunk, fuzzChunkV1, fuzzBank []byte
)

func fuzzSetup(t testing.TB) *Codec {
	fuzzOnce.Do(func() {
		codec, m := testCodec(t, smallConfig())
		fuzzCodec = codec
		kv := m.CalculateKV(testTokens(1000, 120))
		chunk, err := codec.EncodeChunk(kv, 0, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		chunkV1 := reframeV1(t, codec, chunk)
		bank, err := codec.Bank().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fuzzChunk, fuzzChunkV1, fuzzBank = chunk, chunkV1, bank
	})
	return fuzzCodec
}

// corruptV2Seeds derives adversarial v2 containers from a valid one:
// truncated lane tables, lying lane lengths, flipped lane/header CRCs,
// and v1/v2 mixed magic bytes. They seed both the fuzzer and the
// deterministic rejection test below.
func corruptV2Seeds(valid []byte) [][]byte {
	seeds := [][]byte{}
	mut := func(f func(b []byte) []byte) {
		b := append([]byte{}, valid...)
		if out := f(b); out != nil {
			seeds = append(seeds, out)
		}
	}
	// Truncations that cut the lane table / length table / payload.
	for _, n := range []int{5, 8, 16, 24, len(valid) / 2, len(valid) - 1} {
		if n < len(valid) {
			mut(func(b []byte) []byte { return b[:n] })
		}
	}
	// v1 magic with v2 version byte and vice versa.
	mut(func(b []byte) []byte { copy(b, chunkMagicV1); return b })
	mut(func(b []byte) []byte { b[4] = chunkVersionV1; return b })
	// Flip a byte in the lane-CRC table (the header CRC must catch it).
	mut(func(b []byte) []byte { b[14] ^= 0xff; return b })
	// Flip a payload byte (a lane CRC must catch it).
	mut(func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	// Lying length table: rewrite the first group length to claim the
	// whole container, re-sealing the header CRC so the forgery gets
	// past it to the length-consistency checks.
	mut(func(b []byte) []byte {
		var vals [7]uint64
		pos := 6
		for i := range vals {
			v, n := binary.Uvarint(b[pos:])
			if n <= 0 {
				return nil
			}
			vals[i] = v
			pos += n
		}
		groupSize, lanes := int(vals[5]), int(vals[6])
		if groupSize <= 0 || lanes <= 0 || lanes > maxWireLanes {
			return nil
		}
		numGroups := (int(vals[3]) + groupSize - 1) / groupSize
		pos += 4 * lanes
		forged := append([]byte{}, b[:pos]...)
		rest := b[pos:]
		for i := 0; i < numGroups; i++ {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil
			}
			if i == 0 {
				v = uint64(len(b))
			}
			forged = binary.AppendUvarint(forged, v)
			rest = rest[n:]
		}
		if len(rest) < 4 {
			return nil
		}
		forged = binary.BigEndian.AppendUint32(forged, crc32.ChecksumIEEE(forged))
		return append(forged, rest[4:]...)
	})
	return seeds
}

// FuzzDecodeChunk: arbitrary bytes must never panic the chunk decoder —
// they either decode (valid stream) or fail with a clean, typed error.
// Silent wrong decodes of mutated containers are the other failure mode
// guarded here: any mutation that decodes successfully must have left
// the container semantically identical, which the CRC layers make
// unreachable in practice.
func FuzzDecodeChunk(f *testing.F) {
	codec := fuzzSetup(f)
	f.Add(fuzzChunk)
	f.Add(fuzzChunkV1) // legacy v1 container
	f.Add([]byte{})
	f.Add([]byte("CGC1garbage"))
	f.Add([]byte("CGC2garbage"))
	for _, s := range corruptV2Seeds(fuzzChunk) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := codec.DecodeChunk(data); err != nil {
			if !errors.Is(err, ErrCorruptChunk) && !errors.Is(err, ErrShortChunk) && !errors.Is(err, ErrGeometry) {
				t.Fatalf("decode failed with untyped error: %v", err)
			}
		}
	})
}

// TestRejectCorruptV2Containers drives the corrupt-container corpus
// deterministically (the fuzz target only runs it under -fuzz): every
// forged v2 container must be rejected with ErrCorruptChunk — never a
// panic, never a silent wrong decode, and (complete inputs) never a
// "short" verdict that would make a streaming consumer wait forever.
func TestRejectCorruptV2Containers(t *testing.T) {
	codec := fuzzSetup(t)
	valid, err := codec.DecodeChunk(fuzzChunk)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range corruptV2Seeds(fuzzChunk) {
		ch, err := codec.DecodeChunk(seed)
		if err == nil {
			// A mutation may only pass if it decodes to the identical
			// KV (e.g. a no-op splice); anything else is silent
			// corruption.
			d, derr := valid.KV.MaxAbsDiff(ch.KV)
			if derr != nil || d != 0 {
				t.Errorf("seed %d: corrupted container decoded to different KV (diff %v, %v)", i, d, derr)
			}
			continue
		}
		if !errors.Is(err, ErrCorruptChunk) && !errors.Is(err, ErrShortChunk) {
			t.Errorf("seed %d: err = %v, want ErrCorruptChunk", i, err)
		}
		if errors.Is(err, ErrShortChunk) && len(seed) >= len(fuzzChunk) {
			t.Errorf("seed %d: full-length container reported short", i)
		}
	}
	// The header CRC must reject every single-byte flip inside the
	// header, including the lane-CRC table.
	p, err := codec.ParseChunk(fuzzChunk)
	if err != nil {
		t.Fatal(err)
	}
	headerLen := p.LaneEnd(p.Lanes()-1) - payloadLen(p)
	for pos := 0; pos < headerLen; pos++ {
		bad := append([]byte{}, fuzzChunk...)
		bad[pos] ^= 0x10
		if _, err := codec.DecodeChunk(bad); err == nil {
			t.Fatalf("header byte %d flip decoded successfully", pos)
		}
	}
}

// payloadLen returns the total payload bytes of a parsed chunk.
func payloadLen(p *ParsedChunk) int {
	return p.LaneEnd(p.Lanes()-1) - p.groupOff[p.lanes[0].start]
}

// FuzzUnmarshalBank: arbitrary bank bytes must never panic, and a bank
// that loads must marshal to bytes that load again. Each input is parsed
// twice: as given, and with its trailing CRC-32 re-sealed, so mutations
// reach the body parser instead of stopping at the checksum.
func FuzzUnmarshalBank(f *testing.F) {
	// A real bank, but a tiny one: mutations of the codec rig's 300 KB
	// bank parse too slowly to fuzz.
	tiny := tinyBank(f)
	f.Add(tiny)
	f.Add(hugeGeometryBank(f, tiny))
	f.Add([]byte{})
	f.Add([]byte("CGBKxx"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = UnmarshalBank(data)
		if len(data) < 4 {
			return
		}
		body := data[:len(data)-4]
		sealed := binary.BigEndian.AppendUint32(append([]byte{}, body...), crc32.ChecksumIEEE(body))
		bank, err := UnmarshalBank(sealed)
		if err != nil {
			return
		}
		again, err := bank.MarshalBinary()
		if err != nil {
			t.Fatalf("loaded bank does not marshal: %v", err)
		}
		if _, err := UnmarshalBank(again); err != nil {
			t.Fatalf("loaded bank marshals to bytes that do not load: %v", err)
		}
	})
}
