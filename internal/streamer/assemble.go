package streamer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// laneAttempt is one delivery attempt of a chunk's bitstream and its
// decode pump. The acquirer lands coder lanes on it as their bytes arrive;
// the pump — one goroutine at a time, started when a lane lands and none
// runs — queues for a coder slot and, once granted one, claims every lane
// landed and not yet claimed and decodes them as one cross-lane job list,
// until none is left. On a fast link a chunk so decodes in one or two
// full-width calls; on a slow one lanes still decode as they land. A
// mid-stream CANCEL or a corrupt-refetch abandons the attempt and starts a
// new one for the same chunk; both write the same destination token rows,
// so a new attempt's pump waits for the abandoned chain to drain first.
type laneAttempt struct {
	prev *laneAttempt   // abandoned predecessor attempt, if any
	wg   sync.WaitGroup // the running pump

	mu          sync.Mutex
	landed      int    // lanes [0, landed) have their payload in buf
	buf         []byte // length-snapshot of the payload covering them
	claimed     int    // lanes [0, claimed) handed to the codec
	pumping     bool   // a pump goroutine is running
	err         error  // first decode error (abandoned attempts' errors are discarded)
	first, last time.Time
	busy        time.Duration // summed batch decode time, each from its slot grant
	batches     int
}

// waitChain joins this attempt and every abandoned predecessor.
// Nil-safe.
func (att *laneAttempt) waitChain() {
	for ; att != nil; att = att.prev {
		att.wg.Wait()
	}
}

// delivery is what an acquirer knows about a completed transfer and the
// assembler cannot observe from the bytes.
type delivery struct {
	choice     Choice        // the configuration delivered, with the policy's source routing
	from       string        // source class that actually served it
	start, end time.Time     // the transfer's wall interval, for the attribution
	transfer   time.Duration // Decisions[].Transfer (the stream subtracts decode-handoff stalls)
	throughput float64
}

// chunkAsm is one suffix chunk moving through the assembler. The
// acquirer that began it owns it until finish; the finalizer owns it
// after.
type chunkAsm struct {
	si               int
	level            int    // the current attempt's delivery level
	total            int64  // its payload size
	buf              []byte // its payload bytes so far
	parsed           *core.ParsedChunk
	att              *laneAttempt // attempt chain; nil until a bitstream attempt begins
	err              error        // the acquirer side's verdict on the attempt
	adopted          bool         // landed as finished KV rows, nothing to decode
	bytes, abandoned int64
	d                delivery
	ready, settled   chan struct{} // closed by finish, by the finalizer
}

// assembler is the per-request chunk state machine, everything about a
// fetch that does not depend on how bytes arrive: where each chunk lands
// in the destination, container-header validation, handing decodes to the
// codec behind the attempt chain, the in-order finalizer that joins them
// (and recomputes text chunks behind their assembled prefix), the
// corrupt-reject and single refetch, write-through to the payload cache,
// the time attribution and the report. An acquirer drives it per chunk
// with begin → feed… → finish.
type assembler struct {
	f       *Fetcher
	ctx     context.Context // cancelled by the first failure
	cancel  context.CancelFunc
	sp      *telemetry.Span
	start   time.Time
	man     storage.Manifest
	infos   []ChunkInfo // the cold suffix
	from    int         // absolute index of infos[0]
	offsets []int       // destination token offset per suffix chunk
	dest    *tensor.KV
	depth   int
	chunks  []chunkAsm
	tl      fetchTimeline
	report  *FetchReport
	done    chan struct{} // closed when the finalizer exits

	mu  sync.Mutex // guards err and the report's byte counters
	err error
}

// newAssembler prepares the assembly of infos (absolute chunks from
// `from` on) into dest behind prefixTokens already resident tokens, and
// starts the finalizer. The caller must call wait.
func (f *Fetcher) newAssembler(ctx context.Context, start time.Time, man storage.Manifest,
	infos []ChunkInfo, from, prefixTokens int, dest *tensor.KV, report *FetchReport) *assembler {

	a := &assembler{
		f: f, sp: telemetry.FromContext(ctx), start: start, man: man,
		infos: infos, from: from, dest: dest, report: report,
		depth: max(f.PipelineDepth, DefaultPipelineDepth),
		// Offsets are precomputed so decodes dispatched out of order know
		// where their rows land without any running cursor.
		offsets: make([]int, len(infos)),
		chunks:  make([]chunkAsm, len(infos)),
		done:    make(chan struct{}),
	}
	a.ctx, a.cancel = context.WithCancel(ctx)
	report.Decisions = make([]ChunkDecision, len(infos))
	for si, off := 0, prefixTokens; si < len(infos); si++ {
		a.offsets[si] = off
		off += infos[si].Tokens
		a.chunks[si] = chunkAsm{si: si, ready: make(chan struct{}), settled: make(chan struct{})}
	}
	go a.finalize()
	return a
}

// fail records the fetch's failure and cancels it. Chunks decode out of
// order, so the first failure chronologically is the real one; the
// context errors its cancellation induces elsewhere arrive later and are
// dropped.
func (a *assembler) fail(err error) {
	a.mu.Lock()
	if a.err == nil {
		a.err = err
		a.cancel()
	}
	a.mu.Unlock()
}

// plan emits the `plan` event for a chunk decision.
func (a *assembler) plan(si int, choice Choice) {
	if a.sp != nil {
		a.sp.Event("plan", telemetry.Attr{Key: "chunk", Value: a.from + si},
			telemetry.Attr{Key: "level", Value: choice.String()},
			telemetry.Attr{Key: "source", Value: sourceLabel(choice)})
	}
}

// count adds received bytes to the report, cancel waste and refetches
// included.
func (a *assembler) count(level int, n int64) {
	a.mu.Lock()
	a.report.BytesReceived += n
	a.report.addLevelBytes(levelChoice(level).String(), n)
	a.mu.Unlock()
}

// begin starts a delivery attempt of suffix chunk si: `total` payload
// bytes at `level`. Beginning a chunk again abandons the attempt in
// progress — a CANCEL landed, or the finalizer is refetching — and what
// it received at another level is waste.
func (a *assembler) begin(si, level int, total int64) *chunkAsm {
	c := &a.chunks[si]
	if c.level != level {
		c.abandoned += c.bytes
	}
	c.level, c.total, c.bytes = level, total, 0
	c.buf, c.parsed, c.err = nil, nil, nil
	if level != storage.TextLevel {
		// A fresh attempt chains behind any abandoned one: both write the
		// same destination rows. (A text restart keeps the old chain as-is;
		// the finalizer orders the recompute behind it.)
		c.att = &laneAttempt{prev: c.att}
	}
	return c
}

// feed lands the next bytes of c's payload. A slice carrying the whole
// payload is adopted, not copied — the caller must not reuse it. The
// container's header is parsed as soon as its bytes are here, and every
// coder lane whose payload range has fully landed goes to the attempt's
// decode pump, so decode of early lanes overlaps the transfer of later
// ones; a container that arrives whole (RAM, disk, GetChunkData, a
// one-frame chunk) lands all its lanes at once. Errors are kept on the
// chunk for the finalizer, which reaches them in order.
func (a *assembler) feed(c *chunkAsm, data []byte) {
	n := int64(len(data))
	a.count(c.level, n)
	c.bytes += n
	switch {
	case c.buf == nil && n == c.total:
		c.buf = data
	case c.buf == nil:
		// Allocated at full size: appends never move it, so a lane decodes
		// from a length-snapshot while later frames extend past it.
		c.buf = append(make([]byte, 0, c.total), data...)
	default:
		c.buf = append(c.buf, data...)
	}
	if c.level == storage.TextLevel || c.err != nil {
		return
	}
	if c.parsed == nil {
		if err := a.parse(c); err != nil {
			if !errors.Is(err, core.ErrShortChunk) { // else the header is still arriving
				c.err = err
			}
			return
		}
	}
	a.land(c)
}

// land publishes to c's attempt every lane c's payload now covers, and
// starts the attempt's pump if new lanes landed and none runs.
func (a *assembler) land(c *chunkAsm) {
	att, p := c.att, c.parsed
	att.mu.Lock()
	defer att.mu.Unlock()
	n := att.landed
	for n < p.Lanes() && len(c.buf) >= p.LaneEnd(n) {
		n++
	}
	if n == att.landed {
		return
	}
	// buf is a length-snapshot: the acquirer keeps appending behind it.
	att.landed, att.buf = n, c.buf
	if !att.pumping && att.err == nil {
		att.pumping = true
		att.wg.Add(1)
		go a.pump(att, p, a.offsets[c.si])
	}
}

// pump decodes att's landed lanes until none is left unclaimed, behind any
// abandoned attempt still writing the same rows: per coder-slot grant,
// every lane landed by then, in one call. A batch's interval starts at its
// grant — time queued for a slot is not decode — and feeds the timeline
// span-less; the finalizer records the one chunk-level decode span.
func (a *assembler) pump(att *laneAttempt, p *core.ParsedChunk, off int) {
	defer att.wg.Done()
	att.prev.waitChain()
	for {
		var begin time.Time
		lanes := 0
		err := a.f.Codec.DecodeLandedInto(a.dest, off, p, func() (int, int, []byte) {
			begin = time.Now()
			att.mu.Lock()
			lo, hi, buf := att.claimed, att.landed, att.buf
			att.claimed = hi
			att.mu.Unlock()
			lanes = hi - lo
			a.f.LanesGauge.Add(float64(lanes)) // nil-safe
			return lo, hi, buf
		})
		end := time.Now()
		a.f.LanesGauge.Add(-float64(lanes))
		a.tl.add(nil, phaseDecode, "decode", begin, end, nil)
		att.mu.Lock()
		if err != nil && att.err == nil {
			att.err = err
		}
		if att.batches == 0 {
			att.first = begin
		}
		att.last = end
		att.busy += end.Sub(begin)
		att.batches++
		done := att.claimed == att.landed || att.err != nil
		att.pumping = !done
		att.mu.Unlock()
		if done {
			return
		}
	}
}

// parse indexes c's container from the bytes landed so far
// (core.ErrShortChunk while the header is incomplete) and checks it is
// the chunk this position expects.
func (a *assembler) parse(c *chunkAsm) error {
	p, err := a.f.Codec.ParseChunkPrefix(c.buf, int(c.total))
	if err != nil {
		return err
	}
	idx, off, hdr := a.from+c.si, a.offsets[c.si], p.Header
	if hdr.Index != idx || hdr.TokenOffset != off {
		return fmt.Errorf("chunk metadata mismatch: got (%d,%d), want (%d,%d)", hdr.Index, hdr.TokenOffset, idx, off)
	}
	if hdr.Tokens != a.infos[c.si].Tokens {
		return fmt.Errorf("chunk has %d tokens, meta says %d", hdr.Tokens, a.infos[c.si].Tokens)
	}
	c.parsed = p
	return nil
}

// adopt lands chunk c as finished KV rows — a peer gateway's resident
// copy — instead of a payload to decode.
func (a *assembler) adopt(c *chunkAsm, part *tensor.KV) {
	if part.Tokens != a.infos[c.si].Tokens {
		c.err = fmt.Errorf("peer served %d tokens, meta says %d", part.Tokens, a.infos[c.si].Tokens)
		return
	}
	if err := a.dest.CopyTokensAt(a.offsets[c.si], part, 0, part.Tokens); err != nil {
		c.err = fmt.Errorf("adopting peer KV: %w", err)
		return
	}
	n := part.SizeBytesFP16()
	a.count(c.level, n)
	c.bytes += n
	c.adopted = true
}

// finish hands a received chunk to the finalizer, which owns it from
// here on.
func (a *assembler) finish(c *chunkAsm, d delivery) {
	// The timeline takes the raw wall interval; whatever of it overlaps
	// decode comes back out in apply()'s exclusive attribution.
	var attrs []telemetry.Attr
	if a.sp != nil {
		attrs = []telemetry.Attr{{Key: "chunk", Value: a.from + c.si}, {Key: "level", Value: d.choice.String()},
			{Key: "source", Value: d.from}, {Key: "bytes", Value: c.bytes}}
	}
	a.tl.add(a.sp, phaseTransfer, "transfer", d.start, d.end, attrs)
	c.d = d
	close(c.ready)
}

// throttle blocks while more than the pipeline depth of finished chunks
// wait ahead of the finalizer, and returns how long it blocked. The
// stream acquirer calls it after finishing chunk si: not receiving is
// what dries up the sender's credit, so a slow decoder pauses the push
// instead of buffering the context.
func (a *assembler) throttle(si int) time.Duration {
	behind := si - a.depth - 1 // the newest chunk that must have settled
	if behind < 0 {
		return 0
	}
	begin := time.Now()
	select {
	case <-a.chunks[behind].settled:
	case <-a.ctx.Done():
	}
	return time.Since(begin)
}

// finalize settles the chunks in index order while transfers — and other
// chunks' decodes — keep going.
func (a *assembler) finalize() {
	defer close(a.done)
	for si := range a.chunks {
		c := &a.chunks[si]
		select {
		case <-c.ready:
		case <-a.ctx.Done():
			a.fail(fmt.Errorf("streamer: chunk %d: %w", a.from+si, a.ctx.Err()))
			return
		}
		if err := a.settle(c); err != nil {
			a.fail(fmt.Errorf("streamer: chunk %d: %w", a.from+si, err))
			return
		}
		close(c.settled)
	}
}

// settle turns a finished transfer into assembled tokens and its
// ChunkDecision. A payload that fails its integrity checks is wire or
// storage corruption, not a protocol failure: the bytes are rejected and
// the chunk refetched once by content hash through the request/response
// plane, whichever acquirer delivered it.
//
// A bitstream payload that decoded clean is written through the payload
// cache — unless the cache is where it came from — so the next plan for a
// context sharing the chunk prices it locally. Only here, behind the lane
// checksums: a corrupt copy is never cached and the refetched one is. Text
// payloads are not written through: the scheduler prices the RAM tier per
// encoding level only, and cached text would just evict bitstreams.
func (a *assembler) settle(c *chunkAsm) error {
	compute, err := a.join(c)
	cached := c.d.from == SourceRAM
	if errors.Is(err, core.ErrCorruptChunk) {
		if payload := a.refetch(c); payload != nil {
			a.feed(a.begin(c.si, c.level, int64(len(payload))), payload)
			compute, err = a.join(c)
			cached = false
		}
	}
	if err != nil {
		return err
	}
	if a.f.Local != nil && c.parsed != nil && !cached {
		if h, err := a.man.ChunkHash(c.level, a.from+c.si); err == nil {
			a.f.Local.Put(h, c.buf)
		}
	}
	if a.sp != nil && c.parsed != nil {
		// One decode span per chunk, first batch's slot grant to last
		// batch's end; the exclusive attribution uses the batch intervals
		// already in the timeline.
		a.sp.Record("decode", c.att.first, c.att.last.Sub(c.att.first),
			telemetry.Attr{Key: "chunk", Value: a.from + c.si},
			telemetry.Attr{Key: "level", Value: c.d.choice.String()},
			telemetry.Attr{Key: "lanes", Value: c.att.claimed},
			telemetry.Attr{Key: "batches", Value: c.att.batches})
	}
	a.report.Decisions[c.si] = ChunkDecision{
		Chunk: a.from + c.si, Choice: c.d.choice, Bytes: c.bytes, Abandoned: c.abandoned,
		Transfer: c.d.transfer, Compute: compute, Throughput: c.d.throughput, Source: c.d.from,
	}
	return nil
}

// join waits for everything that ever wrote c's rows — the delivered
// attempt and any it abandoned — and returns the attempt's verdict and
// compute time. A text chunk recomputes here, on the finalizer: that is
// what keeps recompute strictly behind its assembled prefix.
func (a *assembler) join(c *chunkAsm) (time.Duration, error) {
	c.att.waitChain()
	switch {
	case c.err != nil || c.adopted:
		return 0, c.err
	case c.level != storage.TextLevel && c.parsed == nil:
		// Every byte landed yet the container never parsed: the advertised
		// total overstated the payload.
		return 0, fmt.Errorf("%w: container shorter than its advertised %d bytes", core.ErrCorruptChunk, c.total)
	case c.level != storage.TextLevel:
		return c.att.busy, c.att.err // no lock: the attempt has drained
	}
	begin, off := time.Now(), a.offsets[c.si]
	toks, err := llm.DecodeTokens(c.buf)
	if err != nil {
		// A text payload that does not parse is corrupt in transit or at rest.
		return 0, fmt.Errorf("%w: text payload: %v", core.ErrCorruptChunk, err)
	}
	if len(toks) != a.infos[c.si].Tokens {
		return 0, fmt.Errorf("%w: text payload has %d tokens, meta says %d", core.ErrCorruptChunk, len(toks), a.infos[c.si].Tokens)
	}
	// The assembled prefix lives in dest's first `off` tokens; ExtendKV
	// resumes the model state from there.
	part, err := a.f.Model.ExtendKV(a.dest, off, toks)
	if err == nil {
		err = a.dest.CopyTokensAt(off, part, 0, part.Tokens)
	}
	if err != nil {
		return 0, err
	}
	end := time.Now()
	var attrs []telemetry.Attr
	if a.sp != nil {
		attrs = []telemetry.Attr{{Key: "chunk", Value: a.from + c.si}, {Key: "level", Value: c.d.choice.String()}}
	}
	a.tl.add(a.sp, phaseRecompute, "recompute", begin, end, attrs)
	return end.Sub(begin), nil
}

// refetch rejects c's corrupt payload and fetches the chunk again by
// content hash, returning nil when it cannot. The refetch is transfer
// time and payload bytes like any other: it must not vanish from the
// attribution.
func (a *assembler) refetch(c *chunkAsm) []byte {
	a.f.rejectCorrupt(a.report)
	if a.sp != nil {
		a.sp.Event("corrupt-reject", telemetry.Attr{Key: "chunk", Value: a.from + c.si})
	}
	hash, err := a.man.ChunkHash(c.level, a.from+c.si)
	if err != nil {
		return nil
	}
	if a.f.Local != nil {
		// The cached copy may be the corrupt one; never serve it again.
		a.f.Local.Drop(hash)
	}
	begin := time.Now()
	payload, err := a.f.Source.GetChunkData(a.ctx, hash)
	if err != nil {
		return nil
	}
	var attrs []telemetry.Attr
	if a.sp != nil {
		attrs = []telemetry.Attr{{Key: "chunk", Value: a.from + c.si}, {Key: "refetch", Value: true}, {Key: "bytes", Value: len(payload)}}
	}
	a.tl.add(a.sp, phaseTransfer, "transfer", begin, time.Now(), attrs)
	return payload
}

// wait joins the finalizer once the acquirer has returned and completes
// the report.
func (a *assembler) wait(acquireErr error) error {
	if acquireErr != nil {
		a.fail(acquireErr)
	}
	<-a.done
	a.mu.Lock()
	err := a.err
	a.mu.Unlock()
	if err != nil {
		// The finalizer stopped at the first failure; decodes of the chunks
		// behind it may still be writing dest and holding coder slots. None
		// outlives the call.
		for i := range a.chunks {
			a.chunks[i].att.waitChain()
		}
		return err
	}
	a.tl.apply(a.report)
	a.report.LoadTime = time.Since(a.start)
	return nil
}
