package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// streamFixture is a store holding one context whose chunk payloads have
// controllable sizes, plus the hash tables a stream open needs.
type streamFixture struct {
	store    storage.Store
	payloads map[int][][]byte // level → per-chunk payload
	chunks   []StreamChunk
}

// newStreamFixture seeds nChunks chunks; level 0 payloads are sizeL0
// bytes, level 1 payloads sizeL1, and the text pseudo-level a few bytes.
func newStreamFixture(t *testing.T, nChunks, sizeL0, sizeL1 int) *streamFixture {
	t.Helper()
	fx := &streamFixture{store: storage.NewMemStore(), payloads: map[int][][]byte{}}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	fx.chunks = make([]StreamChunk, nChunks)
	for c := 0; c < nChunks; c++ {
		fx.chunks[c] = StreamChunk{Index: c, Hashes: map[int]string{}}
	}
	for _, lv := range []int{0, 1, storage.TextLevel} {
		fx.payloads[lv] = make([][]byte, nChunks)
		for c := 0; c < nChunks; c++ {
			size := sizeL0
			switch lv {
			case 1:
				size = sizeL1
			case storage.TextLevel:
				size = 8
			}
			data := make([]byte, size)
			rng.Read(data)
			h := storage.HashChunk(data)
			if err := fx.store.PutChunk(ctx, h, data); err != nil {
				t.Fatal(err)
			}
			fx.payloads[lv][c] = data
			fx.chunks[c].Hashes[lv] = h
		}
	}
	return fx
}

// drain consumes the stream to EOF, reassembling per-position payloads
// and recording the level each position was finally delivered at. A
// restart (offset 0 at a new level) discards the position's prefix.
func drain(t *testing.T, s ChunkStream) (map[int][]byte, map[int]int, []StreamFrame) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	got := map[int][]byte{}
	levels := map[int]int{}
	var frames []StreamFrame
	for {
		f, err := s.Recv(ctx)
		if errors.Is(err, io.EOF) {
			return got, levels, frames
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		frames = append(frames, f)
		if lv, seen := levels[f.Pos]; !seen || lv != f.Level {
			if f.Offset != 0 && !seen {
				// resumed chunk: prefix intentionally absent
			} else if f.Offset == 0 {
				got[f.Pos] = nil // restart
			}
			levels[f.Pos] = f.Level
		}
		got[f.Pos] = append(got[f.Pos], f.Data...)
	}
}

func TestStreamPushBasic(t *testing.T) {
	fx := newStreamFixture(t, 3, 200_000, 50_000)
	client := pipeClient(t, fx.store)
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{Chunks: fx.chunks, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, levels, frames := drain(t, s)
	for c := 0; c < 3; c++ {
		if !bytes.Equal(got[c], fx.payloads[0][c]) {
			t.Errorf("chunk %d payload mismatch (%d vs %d bytes)", c, len(got[c]), len(fx.payloads[0][c]))
		}
		if levels[c] != 0 {
			t.Errorf("chunk %d delivered at level %d", c, levels[c])
		}
	}
	// 200 KB chunks at the 64 KiB default frame bound: ≥4 frames each,
	// in order, with coherent offsets and a terminal Last.
	if len(frames) < 12 {
		t.Fatalf("got %d frames, want ≥12", len(frames))
	}
	var offset int64
	var prevArrived time.Time
	pos := 0
	for _, f := range frames {
		if f.Arrived.IsZero() || f.Arrived.Before(prevArrived) {
			t.Fatalf("frame arrival timestamps not monotonic: %v after %v", f.Arrived, prevArrived)
		}
		prevArrived = f.Arrived
		if f.Pos != pos {
			if f.Pos != pos+1 || offset != int64(len(fx.payloads[0][pos])) {
				t.Fatalf("chunk advanced at offset %d of %d", offset, len(fx.payloads[0][pos]))
			}
			pos, offset = f.Pos, 0
		}
		if f.Offset != offset || f.Total != int64(len(fx.payloads[0][pos])) {
			t.Fatalf("frame (pos %d offset %d total %d), want offset %d", f.Pos, f.Offset, f.Total, offset)
		}
		if len(f.Data) > DefaultFrameSize {
			t.Fatalf("frame of %d bytes exceeds the default bound", len(f.Data))
		}
		offset += int64(len(f.Data))
		if f.Last != (offset == f.Total) {
			t.Fatalf("Last flag wrong at offset %d/%d", offset, f.Total)
		}
	}

	// A subsequent Recv keeps returning io.EOF.
	if _, err := s.Recv(context.Background()); !errors.Is(err, io.EOF) {
		t.Errorf("Recv after EOF = %v", err)
	}
}

// TestStreamSwitchMidStream switches the level before later chunks
// start; the credit window guarantees the server cannot have started
// them yet. The steering tests set a 16 KiB window (four frames, the
// smallest the client allows): the default 1 MiB would let the server
// push all of chunk 0 before the control frame lands.
func TestStreamSwitchMidStream(t *testing.T) {
	fx := newStreamFixture(t, 3, 64_000, 16_000)
	client := pipeClient(t, fx.store)
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{
		Chunks: fx.chunks, Level: 0, FrameSize: 4 << 10, Window: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// First frame of chunk 0: with ≥2 windows of chunk 0 still unsent,
	// the server cannot be past it.
	f, err := s.Recv(ctx)
	if err != nil || f.Pos != 0 || f.Level != 0 {
		t.Fatalf("first frame = %+v, %v", f, err)
	}
	if err := s.Switch(1); err != nil {
		t.Fatal(err)
	}
	got, levels, _ := drain(t, s)
	got[0] = append(append([]byte{}, f.Data...), got[0]...)
	if !bytes.Equal(got[0], fx.payloads[0][0]) || levels[0] != 0 {
		t.Errorf("chunk 0 should finish at level 0 (got level %d, %d bytes)", levels[0], len(got[0]))
	}
	for c := 1; c < 3; c++ {
		if levels[c] != 1 {
			t.Errorf("chunk %d delivered at level %d after switch", c, levels[c])
		}
		if !bytes.Equal(got[c], fx.payloads[1][c]) {
			t.Errorf("chunk %d payload mismatch after switch", c)
		}
	}
}

// TestStreamCancelInFlight abandons chunk 0 mid-transfer and restarts it
// at level 1; later chunks stay at the stream level.
func TestStreamCancelInFlight(t *testing.T) {
	fx := newStreamFixture(t, 2, 64_000, 12_000)
	client := pipeClient(t, fx.store)
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{
		Chunks: fx.chunks, Level: 0, FrameSize: 4 << 10, Window: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := s.Recv(ctx)
	if err != nil || f.Pos != 0 || f.Level != 0 {
		t.Fatalf("first frame = %+v, %v", f, err)
	}
	if err := s.Cancel(0, 1); err != nil {
		t.Fatal(err)
	}
	got, levels, _ := drain(t, s)
	if levels[0] != 1 || !bytes.Equal(got[0], fx.payloads[1][0]) {
		t.Errorf("cancelled chunk 0: level %d, match %v", levels[0], bytes.Equal(got[0], fx.payloads[1][0]))
	}
	if levels[1] != 0 || !bytes.Equal(got[1], fx.payloads[0][1]) {
		t.Errorf("chunk 1 should stay at level 0 (got level %d)", levels[1])
	}
}

// TestStreamCancelToText restarts the in-flight chunk as the text
// pseudo-level — the "resend as text and recompute" fallback.
func TestStreamCancelToText(t *testing.T) {
	fx := newStreamFixture(t, 1, 64_000, 12_000)
	client := pipeClient(t, fx.store)
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{
		Chunks: fx.chunks, Level: 0, FrameSize: 4 << 10, Window: 16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(0, storage.TextLevel); err != nil {
		t.Fatal(err)
	}
	got, levels, _ := drain(t, s)
	if levels[0] != storage.TextLevel || !bytes.Equal(got[0], fx.payloads[storage.TextLevel][0]) {
		t.Errorf("text restart: level %d, %d bytes", levels[0], len(got[0]))
	}
}

// TestStreamResumeOffset opens a stream whose first chunk resumes
// mid-payload — the replica-failover path.
func TestStreamResumeOffset(t *testing.T) {
	fx := newStreamFixture(t, 2, 100_000, 20_000)
	client := pipeClient(t, fx.store)
	chunks := append([]StreamChunk{}, fx.chunks...)
	const resume = 37_000
	chunks[0].Offset = resume
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{Chunks: chunks, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	f, err := s.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Pos != 0 || f.Offset != resume || f.Total != 100_000 {
		t.Fatalf("resumed first frame = pos %d offset %d total %d", f.Pos, f.Offset, f.Total)
	}
	got, _, _ := drain(t, s)
	tail := append(append([]byte{}, f.Data...), got[0]...)
	if !bytes.Equal(tail, fx.payloads[0][0][resume:]) {
		t.Errorf("resumed tail mismatch: %d bytes, want %d", len(tail), 100_000-resume)
	}
	if !bytes.Equal(got[1], fx.payloads[0][1]) {
		t.Errorf("chunk 1 mismatch after resume")
	}
}

// TestStreamInterleavesWithRoundTrips runs control-plane requests while
// a stream is pushing on the same connection.
func TestStreamInterleavesWithRoundTrips(t *testing.T) {
	fx := newStreamFixture(t, 4, 150_000, 30_000)
	store := seededStore(t) // adds the doc-1 manifest context
	// Merge the fixture chunks into the seeded store.
	ctx := context.Background()
	for lv, payloads := range fx.payloads {
		for c, data := range payloads {
			if err := store.PutChunk(ctx, fx.chunks[c].Hashes[lv], data); err != nil {
				t.Fatal(err)
			}
		}
	}
	client := pipeClient(t, store)
	s, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: fx.chunks, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			if _, err := client.GetManifest(ctx, "doc-1"); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got, _, _ := drain(t, s)
	if err := <-done; err != nil {
		t.Fatalf("round trips during stream: %v", err)
	}
	for c := 0; c < 4; c++ {
		if !bytes.Equal(got[c], fx.payloads[0][c]) {
			t.Errorf("chunk %d corrupted by interleaved round trips", c)
		}
	}
}

// TestStreamBackpressure: a receiver that stops consuming stalls the
// push within one credit window instead of buffering the whole context.
func TestStreamBackpressure(t *testing.T) {
	fx := newStreamFixture(t, 1, 2_000_000, 100_000)
	client := pipeClient(t, fx.store)
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{
		Chunks: fx.chunks, Level: 0, FrameSize: 16 << 10, Window: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Do not Recv: the server may push at most the initial window, which
	// bounds how many frames can pile up in the stream's inbox.
	time.Sleep(200 * time.Millisecond)
	inflight := len(s.(*Stream).inbox)
	if max := (64<<10)/(16<<10) + 2; inflight > max {
		t.Errorf("%d frames buffered while unconsumed, want ≤ %d (credit window)", inflight, max)
	}
	got, _, _ := drain(t, s)
	if !bytes.Equal(got[0], fx.payloads[0][0]) {
		t.Errorf("payload corrupted after stall")
	}
}

type countingStore struct {
	storage.Store
	bytesServed atomic.Int64
}

func (c *countingStore) GetChunk(ctx context.Context, hash string) ([]byte, error) {
	data, err := c.Store.GetChunk(ctx, hash)
	c.bytesServed.Add(int64(len(data)))
	return data, err
}

// TestStreamErrors: missing payloads and unknown levels surface as
// stream errors without disturbing the connection.
func TestStreamErrors(t *testing.T) {
	fx := newStreamFixture(t, 1, 10_000, 5_000)
	client := pipeClient(t, fx.store)
	ctx := context.Background()

	// Unknown level.
	s, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: fx.chunks, Level: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(ctx); err == nil || errors.Is(err, io.EOF) {
		t.Errorf("unknown level Recv = %v, want error", err)
	}

	// Missing payload hash.
	bogus := []StreamChunk{{Index: 0, Hashes: map[int]string{0: storage.HashChunk([]byte("gone"))}}}
	s2, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: bogus, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Recv(ctx); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing payload Recv = %v, want ErrNotFound", err)
	}

	// The connection survives: a healthy stream still works.
	s3, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: fx.chunks, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := drain(t, s3)
	if !bytes.Equal(got[0], fx.payloads[0][0]) {
		t.Errorf("healthy stream after errors corrupted")
	}

	// Empty requests are rejected locally.
	if _, err := client.OpenChunkStream(ctx, StreamRequest{}); err == nil {
		t.Error("empty stream request accepted")
	}
}

// TestStreamCloseEarly abandons a stream mid-push; the connection stays
// usable and the server's pusher exits (observed via Server.Close not
// hanging on the connection teardown).
func TestStreamCloseEarly(t *testing.T) {
	fx := newStreamFixture(t, 2, 1_000_000, 100_000)
	client := pipeClient(t, fx.store)
	ctx := context.Background()
	s, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: fx.chunks, Level: 0, Window: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// Control plane still works after abandoning the stream.
	if _, err := client.OpenChunkStream(ctx, StreamRequest{Chunks: fx.chunks[1:], Level: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamEmptyPayload delivers a zero-byte chunk as one empty Last
// frame.
func TestStreamEmptyPayload(t *testing.T) {
	store := storage.NewMemStore()
	ctx := context.Background()
	empty := []byte{}
	h := storage.HashChunk(empty)
	if err := store.PutChunk(ctx, h, empty); err != nil {
		t.Fatal(err)
	}
	client := pipeClient(t, store)
	s, err := client.OpenChunkStream(ctx, StreamRequest{
		Chunks: []StreamChunk{{Index: 0, Hashes: map[int]string{0: h}}}, Level: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := s.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total != 0 || !f.Last || len(f.Data) != 0 {
		t.Errorf("empty chunk frame = %+v", f)
	}
	if _, err := s.Recv(ctx); !errors.Is(err, io.EOF) {
		t.Errorf("after empty chunk: %v", err)
	}
}

// TestStreamOverTCPWithTrace streams through a real socket shaped by a
// bandwidth trace — the live replay path the harness and CLIs use.
func TestStreamOverTCPWithTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	fx := newStreamFixture(t, 2, 400_000, 30_000)
	trace, err := netsim.ParseTrace("40Mbps:100ms,8Mbps")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fx.store, WithEgressTrace(trace))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s, err := client.OpenChunkStream(context.Background(), StreamRequest{Chunks: fx.chunks, Level: 0, FrameSize: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, _, frames := drain(t, s)
	elapsed := time.Since(start)
	for c := 0; c < 2; c++ {
		if !bytes.Equal(got[c], fx.payloads[0][c]) {
			t.Fatalf("chunk %d mismatch over shaped TCP", c)
		}
	}
	// 800 KB total: the 40 Mbps phase carries ~500 KB in its 100 ms; the
	// remaining ~300 KB crawl at 8 Mbps ≈ 300 ms ⇒ ≳ 250 ms overall.
	// Unshaped loopback would finish in single-digit ms.
	if elapsed < 200*time.Millisecond {
		t.Errorf("traced stream finished in %v — shaping not applied", elapsed)
	}
	if len(frames) < 50 {
		t.Errorf("only %d frames for 800 KB at 8 KiB bound", len(frames))
	}
}

func TestStreamRequestNormalize(t *testing.T) {
	r := StreamRequest{Chunks: []StreamChunk{{Hashes: map[int]string{0: "h"}}}}
	if err := r.normalize(); err != nil {
		t.Fatal(err)
	}
	if r.FrameSize != DefaultFrameSize || r.Window != DefaultStreamWindow {
		t.Errorf("defaults = frame %d window %d", r.FrameSize, r.Window)
	}
	r2 := StreamRequest{Chunks: []StreamChunk{{Hashes: map[int]string{0: "h"}}}, FrameSize: 1 << 30, Window: 1}
	if err := r2.normalize(); err != nil {
		t.Fatal(err)
	}
	if r2.FrameSize != MaxStreamFrame || r2.Window != 4*int64(MaxStreamFrame) {
		t.Errorf("clamps = frame %d window %d", r2.FrameSize, r2.Window)
	}
	bad := StreamRequest{Chunks: []StreamChunk{{}}}
	if err := bad.normalize(); err == nil {
		t.Error("chunk without hashes accepted")
	}
	neg := StreamRequest{Chunks: []StreamChunk{{Offset: -1, Hashes: map[int]string{0: "h"}}}}
	if err := neg.normalize(); err == nil {
		t.Error("negative offset accepted")
	}
}

// TestShaperMidWriteTighten: SetRate during a blocked Write takes effect
// on the next refill — the property trace replay depends on.
func TestShaperMidWriteTighten(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()

	shaped := NewShaper(cConn, 80e6) // 10 MB/s
	var received atomic.Int64
	go func() {
		buf := make([]byte, 32<<10)
		for {
			n, err := sConn.Read(buf)
			received.Add(int64(n))
			if err != nil {
				return
			}
		}
	}()
	writeDone := make(chan struct{})
	go func() {
		defer close(writeDone)
		shaped.Write(make([]byte, 8<<20)) // 8 MB: ~800ms at the fast rate
	}()

	time.Sleep(100 * time.Millisecond)
	shaped.SetRate(8e5)                // tighten to 100 KB/s mid-write
	time.Sleep(100 * time.Millisecond) // let the change land
	before := received.Load()
	time.Sleep(300 * time.Millisecond)
	delta := received.Load() - before
	// 300 ms at 100 KB/s ≈ 30 KB (+ up to one 50 ms burst bucket); at the
	// old rate it would be ~3 MB.
	if delta > 500_000 {
		t.Errorf("egress after mid-write tighten: %d bytes in 300ms, want ≈30KB", delta)
	}
	if delta == 0 {
		t.Error("egress stalled entirely after SetRate")
	}
	cConn.Close() // unblock the writer
	<-writeDone
}

// TestShaperTraceSteps: a trace's segments drive the rate without any
// SetRate calls.
func TestShaperTraceSteps(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	trace, err := netsim.ParseTrace("40Mbps:60ms,4Mbps")
	if err != nil {
		t.Fatal(err)
	}
	s := NewShaper(cConn, 0)
	s.SetTrace(trace)
	if got := s.Rate(); got != 40e6 {
		t.Fatalf("initial traced rate = %v", got)
	}
	time.Sleep(80 * time.Millisecond)
	s.take(1) // refill samples the trace
	if got := s.Rate(); got != 4e6 {
		t.Errorf("post-step traced rate = %v, want 4e6", got)
	}
	// SetRate clears the trace.
	s.SetRate(1e6)
	time.Sleep(20 * time.Millisecond)
	s.take(1)
	if got := s.Rate(); got != 1e6 {
		t.Errorf("SetRate did not clear the trace: rate = %v", got)
	}
}

// TestIngressShaper paces reads, not writes.
func TestIngressShaper(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	shaped := NewIngressShaper(cConn, 8e6) // 1 MB/s
	go func() {
		sConn.Write(make([]byte, 300_000))
	}()
	start := time.Now()
	var total int
	buf := make([]byte, 32<<10)
	for total < 300_000 {
		n, err := shaped.Read(buf)
		total += n
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 150*time.Millisecond || elapsed > time.Second {
		t.Errorf("0.3 MB ingress at 1 MB/s took %v, want ≈300ms", elapsed)
	}
}

func TestStreamControlCodecs(t *testing.T) {
	if id, n, err := decodeCredit(encodeCredit(7, 12345)); err != nil || id != 7 || n != 12345 {
		t.Errorf("credit round trip = %d,%d,%v", id, n, err)
	}
	if id, lv, err := decodeSwitch(encodeSwitch(9, storage.TextLevel)); err != nil || id != 9 || lv != storage.TextLevel {
		t.Errorf("switch round trip = %d,%d,%v", id, lv, err)
	}
	if id, pos, lv, err := decodeCancel(encodeCancel(3, 14, -1)); err != nil || id != 3 || pos != 14 || lv != -1 {
		t.Errorf("cancel round trip = %d,%d,%d,%v", id, pos, lv, err)
	}
	hdr := dataHeader{id: 5, pos: 2, level: -1, offset: 100, total: 999, last: true}
	payload := appendDataHeader(nil, hdr)
	payload = append(payload, []byte("abc")...)
	got, data, err := decodeDataFrame(payload)
	if err != nil || got != (dataHeader{id: 5, pos: 2, level: -1, offset: 100, total: 999, last: true}) || string(data) != "abc" {
		t.Errorf("data frame round trip = %+v, %q, %v", got, data, err)
	}
	// Frames whose bounds lie are rejected.
	bad := appendDataHeader(nil, dataHeader{id: 1, total: 2})
	bad = append(bad, []byte("too long")...)
	if _, _, err := decodeDataFrame(bad); err == nil {
		t.Error("out-of-bounds data frame accepted")
	}
	for _, p := range [][]byte{nil, {0x80}, {1}, {1, 0x80}} {
		if _, _, err := decodeDataFrame(p); err == nil {
			t.Errorf("truncated data frame %v accepted", p)
		}
		if _, _, err := decodeCredit(p); err == nil && p == nil {
			t.Errorf("truncated credit %v accepted", p)
		}
	}
}

// TestReadFrameBoundedAllocation: a length prefix claiming a huge frame
// with no bytes behind it must fail without allocating the claimed size.
func TestReadFrameBoundedAllocation(t *testing.T) {
	var hdr bytes.Buffer
	hdr.Write([]byte{'C', 'G', typeRespChunk, 0x3F, 0xFF, 0xFF, 0xFF}) // ~1 GiB claim
	hdr.Write(make([]byte, 1000))                                      // only 1000 real bytes
	before := allocBytes()
	_, _, err := readFrame(&hdr)
	after := allocBytes()
	if err == nil {
		t.Fatal("truncated 1 GiB claim accepted")
	}
	if grew := after - before; grew > 64<<20 {
		t.Errorf("readFrame allocated %d bytes for a lying prefix", grew)
	}
	// Oversized claims are rejected outright.
	var over bytes.Buffer
	over.Write([]byte{'C', 'G', typeRespChunk, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, _, err := readFrame(&over); !errors.Is(err, ErrProtocol) {
		t.Errorf("oversized claim error = %v", err)
	}
}

func allocBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// TestRoundTripDeadlineKeepsConnection: a round trip whose deadline
// expires before any byte reaches the wire must not tear down the
// shared connection — the frame is withdrawn and later callers proceed.
func TestRoundTripDeadlineKeepsConnection(t *testing.T) {
	store := seededStore(t)
	srv := NewServer(store)
	cConn, sConn := net.Pipe()
	client := NewClient(cConn)
	t.Cleanup(func() { client.Close(); srv.Close() })

	// No reader on the server side yet: the write blocks, the deadline
	// expires, zero bytes move.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_, err := client.GetManifest(ctx, "doc-1")
	cancel()
	if err == nil {
		t.Fatal("deadline-bound request against an unread pipe succeeded")
	}
	if cerr := client.Err(); cerr != nil {
		t.Fatalf("zero-byte deadline failure killed the connection: %v", cerr)
	}

	// Attach the server; the same connection must still work.
	go srv.HandleConn(sConn)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	man, err := client.GetManifest(ctx2, "doc-1")
	if err != nil {
		t.Fatalf("connection unusable after a withdrawn round trip: %v", err)
	}
	if man.Meta.ContextID != "doc-1" {
		t.Errorf("manifest = %+v", man.Meta)
	}
}
