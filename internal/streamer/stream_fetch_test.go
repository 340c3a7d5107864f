package streamer

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// TestFetchStreamedBitForBit: the multiplexed server-push path must
// reassemble exactly the KV the request/response path does — same
// bytes, same decode — on a static link at a fixed level.
func TestFetchStreamedBitForBit(t *testing.T) {
	s := newStack(t)
	mk := func(disable bool) *Fetcher {
		return &Fetcher{
			Source:           s.client,
			Codec:            s.codec,
			Model:            s.model,
			Device:           llm.A40x4(),
			Planner:          Planner{Adapt: false, DefaultLevel: 0},
			DisableStreaming: disable,
		}
	}
	ctx := context.Background()
	streamed, sRep, err := mk(false).Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	legacy, lRep, err := mk(true).Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if !sRep.Streamed {
		t.Error("stream-capable source did not take the streaming path")
	}
	if lRep.Streamed {
		t.Error("DisableStreaming still streamed")
	}
	diff, err := streamed.MaxAbsDiff(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("streamed KV differs from request/response KV: max |Δ| = %g", diff)
	}
	if sRep.BytesReceived != lRep.BytesReceived {
		t.Errorf("streamed moved %d bytes, request/response %d", sRep.BytesReceived, lRep.BytesReceived)
	}
	if sRep.Bandwidth <= 0 {
		t.Error("streamed report has no bandwidth estimate")
	}
	if got := sRep.LevelBytes["L0"]; got != sRep.BytesReceived {
		t.Errorf("level byte counters: L0 = %d, want %d", got, sRep.BytesReceived)
	}
	if len(sRep.Decisions) != s.meta.NumChunks() {
		t.Errorf("streamed decisions = %d, want %d", len(sRep.Decisions), s.meta.NumChunks())
	}
	var totalTransfer time.Duration
	for _, d := range sRep.Decisions {
		if d.Choice.Text || d.Choice.Level != 0 {
			t.Errorf("chunk %d streamed at %s, want L0", d.Chunk, d.Choice)
		}
		// Per-chunk Transfer subtracts decode-handoff stalls and may
		// legitimately clamp to zero for a tiny chunk on loopback; it
		// must never be negative, and the fetch as a whole must have
		// measured wire time.
		if d.Throughput <= 0 || d.Transfer < 0 {
			t.Errorf("chunk %d missing transfer telemetry: %+v", d.Chunk, d)
		}
		totalTransfer += d.Transfer
	}
	if totalTransfer <= 0 {
		t.Error("no wire time measured across the whole streamed fetch")
	}
}

// TestFetchStreamedAdaptiveUnderTrace runs the full adaptive loop over a
// live traced link: the fetch must succeed and the report must carry the
// frame-granularity telemetry.
func TestFetchStreamedAdaptiveUnderTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	s := newStack(t)
	trace, err := netsim.ParseTrace("40Mbps:150ms,2Mbps")
	if err != nil {
		t.Fatal(err)
	}
	f := &Fetcher{
		Source: serve(t, s.store, transport.WithEgressTrace(trace)),
		Codec:  s.codec,
		Model:  s.model,
		Device: llm.A40x4(),
		Planner: Planner{
			Adapt: true, SLO: 2 * time.Second, DefaultLevel: 0,
			PriorBandwidth: 40e6,
		},
		FrameSize:      4 << 10,
		DecisionFrames: 2,
	}
	kv, rep, err := f.Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if kv.Tokens != len(s.tokens) {
		t.Fatalf("assembled %d tokens, want %d", kv.Tokens, len(s.tokens))
	}
	if !rep.Streamed || rep.Bandwidth <= 0 {
		t.Errorf("report = streamed %v bandwidth %.0f", rep.Streamed, rep.Bandwidth)
	}
	if len(rep.LevelBytes) == 0 {
		t.Error("no per-level byte counters")
	}
}

// coarsestOnceMeasured delivers L0 while the fetch has no bandwidth
// estimate and the given (coarsest) level once it has one, so the first
// decision point of a stream finds the L0 chunk in flight worth
// cancelling.
type coarsestOnceMeasured core.Level

func (p coarsestOnceMeasured) Choose(_ int, _ time.Duration, bps float64, _ []ChunkInfo) (Choice, error) {
	if bps <= 0 {
		return Choice{Level: 0}, nil
	}
	return Choice{Level: core.Level(p)}, nil
}

// TestFetchStreamedCancelRestartsChunk drives the stream acquirer's
// CANCEL against a live server. The server's egress is shaped so a chunk
// spans many 2 KiB frames, and the policy turns to the coarsest level at
// the first decision point, so the L0 chunk in flight is abandoned and
// resent there. The assembled KV must be the direct decode of each chunk
// at the level the report says it landed at.
func TestFetchStreamedCancelRestartsChunk(t *testing.T) {
	s := newStackShape(t, 0, 1000, 2000)
	coarsest := s.meta.Levels - 1
	f := &Fetcher{
		Source: serve(t, s.store, transport.WithEgressTrace(netsim.Constant(2e6))),
		Codec:  s.codec, Model: s.model, Device: llm.A40x4(),
		Policy:    coarsestOnceMeasured(coarsest),
		FrameSize: 2 << 10, DecisionFrames: 1,
	}
	kv, rep, err := f.Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Streamed || rep.Cancels < 1 {
		t.Errorf("streamed %v with %d cancels, want a streamed fetch with at least one", rep.Streamed, rep.Cancels)
	}
	restarted := false
	payloads := make([][]byte, len(rep.Decisions))
	for i, d := range rep.Decisions {
		if d.Choice.Text {
			t.Fatalf("chunk %d delivered as text", d.Chunk)
		}
		restarted = restarted || d.Abandoned > 0 && int(d.Choice.Level) == coarsest
		payloads[i], _ = payload(t, s, int(d.Choice.Level), d.Chunk)
	}
	if !restarted {
		t.Errorf("no chunk abandoned bytes and landed at L%d: %+v", coarsest, rep.Decisions)
	}
	want, err := s.codec.DecodeContext(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if diff, err := kv.MaxAbsDiff(want); err != nil || diff != 0 {
		t.Errorf("assembled KV differs from the direct decode at the reported levels: max |Δ| = %g, err %v", diff, err)
	}
}

// TestStreamChunksSkipsMissingText: contexts published without a text
// pseudo-level still stream (the planner just can't pick text).
func TestStreamChunksSkipsMissingText(t *testing.T) {
	man := storage.Manifest{
		Meta: storage.ContextMeta{
			ContextID: "x", Model: "m", TokenCount: 100,
			ChunkTokens: []int{50, 50}, Levels: 1,
			SizesBytes: [][]int64{{10, 10}},
		},
		Hashes: map[int][]string{0: {"a", "b"}},
	}
	chunks, err := streamChunks(man, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	if _, ok := chunks[0].Hashes[storage.TextLevel]; ok {
		t.Error("text hash invented for a context without one")
	}
	if chunks[1].Hashes[0] != "b" {
		t.Errorf("chunk 1 level-0 hash = %q", chunks[1].Hashes[0])
	}
}

// TestFetchStreamedSmallFramesLaneIdentity: with DATA frames far smaller
// than a chunk, the container header parses mid-transfer and coder lanes
// dispatch to the codec pool across many frames, out of order with later
// chunks' transfers. The assembled KV must still be bit-for-bit the
// request/response baseline's.
func TestFetchStreamedSmallFramesLaneIdentity(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	mk := func(disable bool) *Fetcher {
		return &Fetcher{
			Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner:          Planner{Adapt: false, DefaultLevel: 1},
			DisableStreaming: disable,
			FrameSize:        256, // dozens of frames per chunk
			PipelineDepth:    3,
		}
	}
	streamed, rep, err := mk(false).Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Streamed {
		t.Fatal("small-frame fetch did not stream")
	}
	legacy, _, err := mk(true).Fetch(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	diff, err := streamed.MaxAbsDiff(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("lane-decoded streamed KV differs from baseline: max |Δ| = %g", diff)
	}
	for _, d := range rep.Decisions {
		if d.Compute <= 0 {
			t.Errorf("chunk %d reports no decode compute", d.Chunk)
		}
	}
}

// mixedFormatClient serves a copy of s's store holding both container
// formats — chunks 1 and 3 at level 1 re-framed as the v1 containers
// published before the lane-interleaved v2 shipped, under their original
// content addresses (the manifest is format-agnostic; each payload
// declares its own format).
func mixedFormatClient(t *testing.T, s *testStack) *transport.Client {
	t.Helper()
	replace := map[string][]byte{}
	for _, si := range []int{1, 3} {
		h, err := s.man.ChunkHash(1, si)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := s.store.GetChunk(context.Background(), h)
		if err != nil {
			t.Fatal(err)
		}
		replace[h] = reframeV1(t, v2)
	}
	return serve(t, storeWith(t, s, replace))
}

// reframeV1 lays a v2 chunk container's group streams out as the legacy
// CGC1 container (both layouts are documented in internal/core/codec.go).
// The group streams of the two formats are identical, so this is the
// container a v1 encoder wrote for the same tokens.
func reframeV1(t *testing.T, v2 []byte) []byte {
	t.Helper()
	p := v2[6:] // past magic, version and level
	read := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatal("truncated v2 header")
		}
		p = p[n:]
		return v
	}
	// chunk index, token offset, layers, tokens, channels, group size, lanes
	var hdr [7]uint64
	for i := range hdr {
		hdr[i] = read()
	}
	p = p[4*hdr[6]:] // the lane CRC table
	groups := (hdr[3] + hdr[5] - 1) / hdr[5]
	out := append([]byte("CGC1"), 1, v2[5])
	for _, v := range hdr[:6] {
		out = binary.AppendUvarint(out, v)
	}
	out = binary.AppendUvarint(out, groups)
	for g := uint64(0); g < groups; g++ {
		out = binary.AppendUvarint(out, read())
	}
	out = append(out, p[4:]...) // past the header CRC: the group streams
	return binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// TestFetchMixedFormatContext: a store holding both container formats
// must fetch transparently on both paths.
func TestFetchMixedFormatContext(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	ref := mustDecodeReference(t, s) // direct decode, all chunks at L1
	client := mixedFormatClient(t, s)

	for _, disable := range []bool{false, true} {
		f := &Fetcher{
			Source: client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner:          Planner{Adapt: false, DefaultLevel: 1},
			DisableStreaming: disable,
			FrameSize:        1 << 10,
		}
		kv, rep, err := f.Fetch(ctx, "ctx-1")
		if err != nil {
			t.Fatalf("disable=%v: %v", disable, err)
		}
		if rep.Streamed == disable {
			t.Errorf("disable=%v: streamed=%v", disable, rep.Streamed)
		}
		diff, err := kv.MaxAbsDiff(ref)
		if err != nil {
			t.Fatal(err)
		}
		if diff != 0 {
			t.Errorf("disable=%v: mixed-format fetch differs from reference: max |Δ| = %g", disable, diff)
		}
	}
}

// TestFetchStreamedDecodeErrorSurfaces: a corrupt chunk payload must
// surface as the decode failure, not as the context cancellation the
// failing worker triggers to stop the stream.
func TestFetchStreamedDecodeErrorSurfaces(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()

	// Chunk 1's level-0 payload is garbage under its original content
	// address.
	badHash, err := s.man.ChunkHash(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := storeWith(t, s, map[string][]byte{badHash: []byte("garbage bitstream")})

	f := &Fetcher{
		Source:  serve(t, corrupt),
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	_, _, err = f.Fetch(ctx, "ctx-1")
	if err == nil {
		t.Fatal("fetch of a corrupt chunk succeeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("decode failure masked as cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), "chunk 1") {
		t.Errorf("error does not name the corrupt chunk: %v", err)
	}
}
