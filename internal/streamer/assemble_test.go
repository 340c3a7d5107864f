package streamer

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// serve puts store behind a transport server on loopback and returns a
// connected client.
func serve(t *testing.T, store storage.Store, opts ...transport.ServerOption) *transport.Client {
	t.Helper()
	srv := transport.NewServer(store, opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// storeWith copies s's store with the payloads under the given content
// addresses replaced. (PutChunk ignores writes to existing hashes, so the
// replacements go first into a fresh store.)
func storeWith(t *testing.T, s *testStack, replace map[string][]byte) *storage.MemStore {
	t.Helper()
	ctx := context.Background()
	out := storage.NewMemStore()
	for h, data := range replace {
		if err := out.PutChunk(ctx, h, data); err != nil {
			t.Fatal(err)
		}
	}
	for _, row := range s.man.Hashes {
		for _, h := range row {
			data, err := s.store.GetChunk(ctx, h)
			if err != nil {
				t.Fatal(err)
			}
			if err := out.PutChunk(ctx, h, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := out.PutManifest(ctx, s.man); err != nil {
		t.Fatal(err)
	}
	return out
}

// chunkPolicy delivers the listed suffix chunks as text and the rest at
// level 1, whatever the link does.
type chunkPolicy map[int]bool

func (p chunkPolicy) Choose(idx int, _ time.Duration, _ float64, _ []ChunkInfo) (Choice, error) {
	if p[idx] {
		return Choice{Text: true}, nil
	}
	return Choice{Level: 1}, nil
}

// pinnedSource makes a stream deliver what chunkPolicy chooses per
// chunk: a stream has one level for the chunks not yet started, moved by
// SWITCH messages that race the sender, so the test pins every position
// in the open itself.
type pinnedSource struct {
	StreamSource
	text chunkPolicy
}

func (p pinnedSource) OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error) {
	for i := range req.Chunks {
		level := 1
		if p.text[i] {
			level = storage.TextLevel
		}
		req.Chunks[i].Level = &level
	}
	return p.StreamSource.OpenChunkStream(ctx, req)
}

// expectKV is the tensor a fetch of s's context must assemble: the
// resident prefix as given, level-1 chunks as the direct decode has them,
// text chunks recomputed from whatever precedes them.
func expectKV(t *testing.T, s *testStack, ref *tensor.KV, resident int, text chunkPolicy, fromChunk int) *tensor.KV {
	t.Helper()
	want := tensor.New(ref.Layers, ref.Tokens, ref.Channels)
	if err := want.CopyTokensAt(0, s.kv, 0, resident); err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, n := range s.meta.ChunkTokens {
		switch {
		case i < fromChunk:
		case text[i-fromChunk]:
			part, err := s.model.ExtendKV(want, off, s.tokens[off:off+n])
			if err != nil {
				t.Fatal(err)
			}
			if err := want.CopyTokensAt(off, part, 0, n); err != nil {
				t.Fatal(err)
			}
		default:
			if err := want.CopyTokensAt(off, ref, off, off+n); err != nil {
				t.Fatal(err)
			}
		}
		off += n
	}
	return want
}

// TestAcquirersAgree is the differential test of the one pipeline: the
// stream acquirer and the per-chunk acquirer must assemble bit-identical
// KV — the KV the inputs determine — and report the same (chunk, choice,
// bytes) decisions, whatever the resident prefix, the mix of text and
// bitstream chunks, the container formats, the pipeline depth and the
// frame size.
func TestAcquirersAgree(t *testing.T) {
	s := newStack(t)
	ref := mustDecodeReference(t, s) // direct decode, every chunk at L1
	for _, tc := range []struct {
		name      string
		source    StreamSource // nil: s.client
		text      chunkPolicy  // suffix chunks delivered as text
		resident  int          // resident prefix tokens (chunks are 80)
		fromChunk int          // chunks the prefix covers
		depth     int
		frame     int
	}{
		{name: "cold"},
		{name: "resident-ends-on-chunk", resident: 160, fromChunk: 2},
		{name: "resident-ends-inside-chunk", resident: 200, fromChunk: 2, depth: 4},
		{name: "text-mid-context", text: chunkPolicy{1: true}},
		{name: "text-behind-resident", text: chunkPolicy{0: true}, resident: 80, fromChunk: 1, depth: 4},
		{name: "mixed-v1-v2", source: mixedFormatClient(t, s), frame: 1 << 10},
		{name: "depth-1", depth: 1},
		{name: "depth-4", depth: 4},
		{name: "frames-256", frame: 256, depth: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var source StreamSource = s.client
			if tc.source != nil {
				source = tc.source
			}
			var resident *tensor.KV
			if tc.resident > 0 {
				var err error
				if resident, err = s.kv.SliceTokens(0, tc.resident); err != nil {
					t.Fatal(err)
				}
			}
			prefix := tc.fromChunk * 80
			want := expectKV(t, s, ref, prefix, tc.text, tc.fromChunk)
			var decisions [2]string
			for i, streaming := range []bool{true, false} {
				f := &Fetcher{
					Source: pinnedSource{source, tc.text}, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
					Policy: tc.text, PipelineDepth: tc.depth, FrameSize: tc.frame,
					DisableStreaming: !streaming,
					DecisionFrames:   1 << 30, // no SWITCH: the open pins the levels
				}
				kv, rep, err := f.FetchFrom(context.Background(), "ctx-1", resident)
				if err != nil {
					t.Fatalf("streaming=%v: %v", streaming, err)
				}
				if rep.Streamed != streaming || rep.ResidentTokens != prefix {
					t.Errorf("streaming=%v: report says streamed %v, resident %d (want %d)", streaming, rep.Streamed, rep.ResidentTokens, prefix)
				}
				if diff, err := kv.MaxAbsDiff(want); err != nil || diff != 0 {
					t.Errorf("streaming=%v: assembled KV differs from the expected tensor: max |Δ| = %g, err %v", streaming, diff, err)
				}
				hasText, hasBits := false, false
				for si, d := range rep.Decisions {
					if d.Chunk != tc.fromChunk+si || d.Choice.Text != tc.text[si] || d.Bytes <= 0 {
						t.Errorf("streaming=%v: decision %d = %+v", streaming, si, d)
					}
					hasText = hasText || d.Choice.Text
					hasBits = hasBits || !d.Choice.Text
					decisions[i] += fmt.Sprintf("(%d %s %d)", d.Chunk, d.Choice, d.Bytes)
				}
				if len(rep.Decisions) != s.meta.NumChunks()-tc.fromChunk {
					t.Errorf("streaming=%v: %d decisions, want %d", streaming, len(rep.Decisions), s.meta.NumChunks()-tc.fromChunk)
				}
				// (In a mixed fetch a recompute can hide entirely behind
				// another chunk's decode, and the attribution is exclusive.)
				mixed := hasText && hasBits
				if (rep.DecodeTime > 0) != hasBits || (!mixed && (rep.RecomputeTime > 0) != hasText) {
					t.Errorf("streaming=%v: recompute %v, decode %v for text=%v bitstream=%v",
						streaming, rep.RecomputeTime, rep.DecodeTime, hasText, hasBits)
				}
			}
			if decisions[0] != decisions[1] {
				t.Errorf("decisions differ:\n stream    %s\n per-chunk %s", decisions[0], decisions[1])
			}
		})
	}
}

// countingCache is a PayloadCache that records what the Fetcher does to
// it.
type countingCache struct {
	mu    sync.Mutex
	data  map[string][]byte
	puts  map[string]int
	drops map[string]int
}

func newCountingCache() *countingCache {
	return &countingCache{data: map[string][]byte{}, puts: map[string]int{}, drops: map[string]int{}}
}

func (c *countingCache) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, ok := c.data[hash]
	return data, ok
}

func (c *countingCache) Put(hash string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[hash] = data
	c.puts[hash]++
}

func (c *countingCache) Drop(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.data, hash)
	c.drops[hash]++
}

// TestWriteThroughBitstreamsOnly: whichever acquirer delivered it, a
// bitstream payload is written through the payload cache once and a text
// payload never.
func TestWriteThroughBitstreamsOnly(t *testing.T) {
	s := newStack(t)
	text := chunkPolicy{1: true}
	for _, streaming := range []bool{true, false} {
		cache := newCountingCache()
		f := &Fetcher{
			Source: pinnedSource{s.client, text}, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Policy: text, Local: cache, PipelineDepth: 2,
			DisableStreaming: !streaming, DecisionFrames: 1 << 30,
		}
		if _, _, err := f.Fetch(context.Background(), "ctx-1"); err != nil {
			t.Fatalf("streaming=%v: %v", streaming, err)
		}
		for i := 0; i < s.meta.NumChunks(); i++ {
			bits, err := s.man.ChunkHash(1, i)
			if err != nil {
				t.Fatal(err)
			}
			txt, err := s.man.ChunkHash(storage.TextLevel, i)
			if err != nil {
				t.Fatal(err)
			}
			wantBits := 1
			if text[i] {
				wantBits = 0
			}
			if cache.puts[bits] != wantBits || cache.puts[txt] != 0 {
				t.Errorf("streaming=%v chunk %d: %d bitstream puts (want %d), %d text puts (want 0)",
					streaming, i, cache.puts[bits], wantBits, cache.puts[txt])
			}
		}
	}
}

// flipSource flips the byte at payload offset `at` of stream position 1
// on the wire and paces the frames of that position behind it like a slow
// link would. Refetches of any payload are held for `hold` so their wall
// time is visible in the attribution; it notes when one was asked for and
// when position 1's last frame arrived.
type flipSource struct {
	StreamSource
	at                 int64
	pace, hold         time.Duration
	refetch, lastFrame time.Time
}

func (f *flipSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	f.refetch = time.Now()
	time.Sleep(f.hold)
	return f.StreamSource.GetChunkData(ctx, hash)
}

func (f *flipSource) OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error) {
	st, err := f.StreamSource.OpenChunkStream(ctx, req)
	return &flipStream{ChunkStream: st, src: f}, err
}

type flipStream struct {
	transport.ChunkStream
	src     *flipSource
	flipped bool
}

func (s *flipStream) Recv(ctx context.Context) (transport.StreamFrame, error) {
	fr, err := s.ChunkStream.Recv(ctx)
	if err != nil || fr.Pos != 1 {
		return fr, err
	}
	switch i := s.src.at - fr.Offset; {
	case s.flipped:
		time.Sleep(s.src.pace)
	case i >= 0 && i < int64(len(fr.Data)):
		s.flipped = true
		fr.Data = append([]byte(nil), fr.Data...)
		fr.Data[i] ^= 0x40
	}
	if fr.Last {
		s.src.lastFrame = time.Now()
	}
	return fr, err
}

// TestFetchStreamedCorruptFrameRefetches: a byte flipped on the wire
// inside one DATA frame fails a lane's checksum, or the header's checks;
// the assembler rejects the payload, refetches the chunk once by content
// hash and the fetch succeeds with the clean fetch's KV — on the stream
// acquirer exactly as on the per-chunk one. A header that fails is
// refetched as soon as it has, not once the rest of the chunk has arrived.
func TestFetchStreamedCorruptFrameRefetches(t *testing.T) {
	s := newStack(t)
	mk := func(src ChunkSource, cache PayloadCache) *Fetcher {
		return &Fetcher{
			Source: src, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner: Planner{DefaultLevel: 0}, FrameSize: 256, Local: cache,
		}
	}
	clean, cleanRep, err := mk(s.client, nil).Fetch(context.Background(), "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := s.man.ChunkHash(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := s.client.GetChunkData(context.Background(), hash)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(stored))

	const hold = 30 * time.Millisecond
	for _, tc := range []struct {
		name string
		at   int64
		pace time.Duration
	}{
		{name: "lane", at: 1024 + 128}, // well past the container header
		{name: "header", at: 0, pace: 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &flipSource{StreamSource: s.client, at: tc.at, pace: tc.pace, hold: hold}
			cache := newCountingCache()
			tr := telemetry.NewTracer(0)
			ctx, root := tr.StartRequest(context.Background(), "request")
			kv, rep, err := mk(src, cache).Fetch(ctx, "ctx-1")
			root.End()
			if err != nil {
				t.Fatalf("fetch over a corrupting stream failed: %v", err)
			}
			if !rep.Streamed || rep.CorruptRejected != 1 {
				t.Errorf("streamed %v, CorruptRejected %d, want true and 1", rep.Streamed, rep.CorruptRejected)
			}
			if diff, err := kv.MaxAbsDiff(clean); err != nil || diff != 0 {
				t.Errorf("KV after the refetch differs from the clean fetch: max |Δ| = %g, err %v", diff, err)
			}
			if tc.pace > 0 && !src.refetch.Before(src.lastFrame) {
				t.Errorf("refetch asked for %v after the corrupt chunk's last frame, want before", src.refetch.Sub(src.lastFrame))
			}
			if rep.BytesReceived != cleanRep.BytesReceived+size {
				t.Errorf("BytesReceived = %d, want the clean fetch's %d plus the %d refetched", rep.BytesReceived, cleanRep.BytesReceived, size)
			}
			if rep.TransferTime < hold/2 {
				t.Errorf("TransferTime %v does not hold the refetch's %v", rep.TransferTime, hold)
			}
			// Only a verified copy is written through: the refetched one.
			if cache.drops[hash] != 1 || cache.puts[hash] != 1 || !bytes.Equal(cache.data[hash], stored) {
				t.Errorf("payload cache: %d drops and %d puts of the chunk, holds the stored bytes: %v; want 1, 1, true",
					cache.drops[hash], cache.puts[hash], bytes.Equal(cache.data[hash], stored))
			}
			refetches := 0
			for _, r := range tr.Snapshot() {
				if r.Name != "transfer" {
					continue
				}
				attrs := map[string]any{}
				for _, a := range r.Attrs {
					attrs[a.Key] = a.Value
				}
				if attrs["refetch"] == true {
					refetches++
					if attrs["chunk"] != 1 || attrs["bytes"] != int(size) || r.Dur < hold {
						t.Errorf("refetch span = %+v (dur %v)", attrs, r.Dur)
					}
				}
			}
			if refetches != 1 {
				t.Errorf("trace holds %d refetch transfer spans, want 1", refetches)
			}
		})
	}
}

// TestFailedFetchJoinsItsDecodes: a fetch that fails — here on a store
// that answers chunk 0's address with chunk 1's container, which no
// refetch can mend — names the chunk and returns with no decode of the
// chunks behind it still running, on either acquirer.
func TestFailedFetchJoinsItsDecodes(t *testing.T) {
	s := newStack(t)
	ctx := context.Background()
	h0, err := s.man.ChunkHash(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := s.man.ChunkHash(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	chunk1, err := s.store.GetChunk(ctx, h1)
	if err != nil {
		t.Fatal(err)
	}
	client := serve(t, storeWith(t, s, map[string][]byte{h0: chunk1}))
	for _, streaming := range []bool{true, false} {
		lanes := new(telemetry.Gauge)
		f := &Fetcher{
			Source: client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner: Planner{DefaultLevel: 1}, PipelineDepth: 4, FrameSize: 256,
			DisableStreaming: !streaming, LanesGauge: lanes,
		}
		_, _, err := f.Fetch(ctx, "ctx-1")
		if err == nil || !strings.Contains(err.Error(), "chunk 0: chunk metadata mismatch") {
			t.Errorf("streaming=%v: fetch of a misdelivered chunk returned %v", streaming, err)
		}
		if n := lanes.Value(); n != 0 {
			t.Errorf("streaming=%v: %v lane decodes still in flight after the fetch returned", streaming, n)
		}
	}
}
