package streamer

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// pumpStack is a context whose chunks hold 40 token groups: sixteen coder
// lanes of two or three groups, the fleet shape.
func pumpStack(t *testing.T, workers int) *testStack { return newStackShape(t, workers, 400, 800) }

// payload returns the stored container of chunk i at level lv and its
// parsed lane layout.
func payload(t *testing.T, s *testStack, lv, i int) ([]byte, *core.ParsedChunk) {
	t.Helper()
	h, err := s.man.ChunkHash(lv, i)
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.store.GetChunk(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.codec.ParseChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	return data, p
}

// handAssembler is an assembler of s's first chunk that the test drives as
// its acquirer, landing container bytes when it chooses.
func handAssembler(t *testing.T, s *testStack) *assembler {
	t.Helper()
	infos, err := BuildChunkInfos(s.meta, s.model.Config(), llm.A40x4(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fetcher{Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4()}
	layers, channels := s.codec.Bank().Geometry()
	dest := tensor.New(layers, s.meta.TokenCount, channels)
	return f.newAssembler(context.Background(), time.Now(), s.man, infos[:1], 0, 0, dest, &FetchReport{})
}

// complete hands chunk c, delivered at level lv, to the finalizer and
// wants the first chunk of the destination to match the container's direct
// decode once the assembler is done.
func complete(t *testing.T, s *testStack, a *assembler, c *chunkAsm, lv int, data []byte) {
	t.Helper()
	a.finish(c, delivery{choice: Choice{Level: core.Level(lv)}, from: SourceRemote, start: a.start, end: time.Now()})
	if err := a.wait(nil); err != nil {
		t.Fatal(err)
	}
	want, err := s.codec.DecodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := a.dest.SliceTokens(0, want.KV.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := got.MaxAbsDiff(want.KV); err != nil || d != 0 {
		t.Errorf("assembled chunk differs from its direct decode: max |Δ| = %g, err %v", d, err)
	}
}

// holdSlot takes one of codec's coder slots — decoding a lane of some
// chunk, whose claim blocks — and returns the function that gives it back.
func holdSlot(t *testing.T, s *testStack) (release func()) {
	t.Helper()
	data, p := payload(t, s, 1, 0)
	dst := tensor.New(p.Header.Layers, p.Header.Tokens, p.Header.Channels)
	held, rel, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.codec.DecodeLandedInto(dst, 0, p, func() (int, int, []byte) {
			close(held)
			<-rel
			return 0, 1, data
		})
	}()
	<-held
	return func() { close(rel); <-done }
}

// TestPumpDecodesLanesAsTheyLand is the overlap a slow link keeps: lanes
// released one at a time, and lane 0 has decoded — its pump run done —
// before lane 15's bytes are released.
func TestPumpDecodesLanesAsTheyLand(t *testing.T) {
	s := pumpStack(t, 0)
	data, p := payload(t, s, 1, 0)
	if p.Lanes() != 16 {
		t.Fatalf("chunk has %d lanes, want 16", p.Lanes())
	}
	a := handAssembler(t, s)
	c := a.begin(0, 1, int64(len(data)))
	for lane, from := 0, 0; lane < p.Lanes(); lane++ {
		a.feed(c, data[from:p.LaneEnd(lane)])
		from = p.LaneEnd(lane)
		if lane == 0 {
			c.att.wg.Wait() // the pump has nothing left to claim
			if c.att.batches != 1 || c.att.claimed != 1 {
				t.Fatalf("lane 0 alone landed: %d batches over %d lanes, want 1 over 1", c.att.batches, c.att.claimed)
			}
		}
	}
	complete(t, s, a, c, 1, data)
}

// TestPumpClaimsEveryLandedLane: with every lane landed before the pump's
// first slot grant, the chunk decodes in at most two batches.
func TestPumpClaimsEveryLandedLane(t *testing.T) {
	s := pumpStack(t, 1)
	data, p := payload(t, s, 1, 0)
	tr := telemetry.NewTracer(0)
	ctx, root := tr.StartRequest(context.Background(), "request")
	a := handAssembler(t, s)
	a.sp = telemetry.FromContext(ctx)
	release := holdSlot(t, s)
	c := a.begin(0, 1, int64(len(data)))
	for lane, from := 0, 0; lane < p.Lanes(); lane++ {
		a.feed(c, data[from:p.LaneEnd(lane)])
		from = p.LaneEnd(lane)
	}
	release()
	complete(t, s, a, c, 1, data)
	root.End()
	found := false
	for _, r := range tr.Snapshot() {
		if r.Name != "decode" {
			continue
		}
		found = true
		attrs := map[string]any{}
		for _, at := range r.Attrs {
			attrs[at.Key] = at.Value
		}
		if attrs["lanes"] != 16 || attrs["batches"].(int) > 2 {
			t.Errorf("decode span: %v lanes in %v batches, want 16 in at most 2", attrs["lanes"], attrs["batches"])
		}
	}
	if !found {
		t.Error("no decode span recorded")
	}
}

// TestPumpChainsBehindAbandonedAttempt: a CANCEL mid-chunk restarts the
// chunk at another level while the abandoned attempt's pump is still
// waiting to decode its lanes; the new attempt's pump decodes only after
// the old one has finished writing the same rows, so the chunk ends up
// holding the new level — on a codec with a coder to spare for it.
func TestPumpChainsBehindAbandonedAttempt(t *testing.T) {
	s := pumpStack(t, 2)
	old, op := payload(t, s, 1, 0)
	fresh, _ := payload(t, s, 0, 0)
	a := handAssembler(t, s)
	release := holdSlot(t, s)
	c := a.begin(0, 1, int64(len(old)))
	a.feed(c, old[:op.LaneEnd(11)]) // twelve lanes for the old pump, which takes the other slot
	abandoned := c.att
	c = a.begin(0, 0, int64(len(fresh)))
	if c.att.prev != abandoned {
		t.Fatal("the restarted attempt does not chain behind the abandoned one")
	}
	a.feed(c, fresh)
	release()
	complete(t, s, a, c, 0, fresh)
	if abandoned.batches == 0 || c.att.first.Before(abandoned.last) {
		t.Errorf("new attempt's first batch began %v after the abandoned attempt's last ended (%d batches), want ≥ 0",
			c.att.first.Sub(abandoned.last), abandoned.batches)
	}
}

// TestFrameSizeDoesNotMoveBits: a stream of 256-byte frames, which lands a
// chunk's lanes one by one, and one of 1 MiB frames, which lands each chunk
// whole, assemble the same bits as the direct decode.
func TestFrameSizeDoesNotMoveBits(t *testing.T) {
	s := pumpStack(t, 0)
	ref := mustDecodeReference(t, s)
	for _, frame := range []int{256, 1 << 20} {
		f := &Fetcher{
			Source: s.client, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner: Planner{DefaultLevel: 1}, FrameSize: frame, PipelineDepth: 2,
		}
		kv, rep, err := f.Fetch(context.Background(), "ctx-1")
		if err != nil {
			t.Fatalf("%d-byte frames: %v", frame, err)
		}
		if !rep.Streamed {
			t.Errorf("%d-byte frames: fetch did not stream", frame)
		}
		if d, err := kv.MaxAbsDiff(ref); err != nil || d != 0 {
			t.Errorf("%d-byte frames: KV differs from the direct decode: max |Δ| = %g, err %v", frame, d, err)
		}
	}
}

// lastFrameSource paces a stream's frames like a slow link and signals
// when the last one reaches the acquirer.
type lastFrameSource struct {
	StreamSource
	chunks int
	pace   time.Duration
	once   sync.Once
	last   chan struct{}
}

func (l *lastFrameSource) OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error) {
	st, err := l.StreamSource.OpenChunkStream(ctx, req)
	return &lastFrameStream{ChunkStream: st, src: l}, err
}

type lastFrameStream struct {
	transport.ChunkStream
	src *lastFrameSource
}

func (s *lastFrameStream) Recv(ctx context.Context) (transport.StreamFrame, error) {
	fr, err := s.ChunkStream.Recv(ctx)
	time.Sleep(s.src.pace)
	if err == nil && fr.Last && fr.Pos == s.src.chunks-1 {
		s.src.once.Do(func() { close(s.src.last) })
	}
	return fr, err
}

// TestDecodeTimeExcludesSlotWait: a fetch whose decodes queue behind
// another request holding the codec's only coder slot is charged for
// decoding only from the moment it gets the slot. The slot is held while
// the whole context streams in over a paced link and given back when the
// last frame arrives, so DecodeTime — and the decisions' compute — must
// fit in the time from then to the fetch's return, not reach back to the
// first lane's arrival.
func TestDecodeTimeExcludesSlotWait(t *testing.T) {
	s := newStackWorkers(t, 1)
	src := &lastFrameSource{StreamSource: s.client, chunks: s.meta.NumChunks(), pace: time.Millisecond, last: make(chan struct{})}
	f := &Fetcher{
		Source: src, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
		Planner: Planner{DefaultLevel: 1}, FrameSize: 1024, PipelineDepth: s.meta.NumChunks() + 1,
	}
	release := holdSlot(t, s)
	type result struct {
		rep *FetchReport
		err error
		end time.Time
	}
	done := make(chan result, 1)
	go func() {
		_, rep, err := f.Fetch(context.Background(), "ctx-1")
		done <- result{rep, err, time.Now()}
	}()
	<-src.last
	freed := time.Now()
	release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if held := r.end.Sub(freed); r.rep.DecodeTime <= 0 || r.rep.DecodeTime > held {
		t.Errorf("DecodeTime %v, want positive and within the %v the fetch could hold the slot", r.rep.DecodeTime, held)
	}
	// A chunk's batches run one after another, each from its own grant.
	for _, d := range r.rep.Decisions {
		if held := r.end.Sub(freed); d.Compute <= 0 || d.Compute > held {
			t.Errorf("chunk %d charges %v of decode compute, want positive and within the %v the fetch could hold the slot", d.Chunk, d.Compute, held)
		}
	}
}
