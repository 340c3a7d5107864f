package streamer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// StreamSource is a ChunkSource that additionally speaks the multiplexed
// server-push stream protocol: a transport.Client (one connection) or a
// cluster.Pool (a fleet with failover). A Fetcher whose Source implements
// it feeds its assembler from the stream, frame by frame, and steers
// mid-chunk; otherwise it acquires per chunk with GetChunkData.
type StreamSource interface {
	ChunkSource
	OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error)
}

// DefaultDecisionFrames is how many DATA frames arrive between
// adaptation decision points when the Fetcher does not set one. At the
// 64 KiB default frame size this re-plans every 256 KB — dozens of
// times inside a paper-sized chunk, against once per chunk before.
const DefaultDecisionFrames = 4

// levelChoice maps a wire delivery level to the planner's Choice.
func levelChoice(level int) Choice {
	if level == storage.TextLevel {
		return Choice{Text: true}
	}
	return Choice{Level: core.Level(level)}
}

// choiceLevel maps a planner Choice to its wire delivery level.
func choiceLevel(c Choice) int {
	if c.Text {
		return storage.TextLevel
	}
	return int(c.Level)
}

// choiceBytes is a chunk's payload size under a choice.
func choiceBytes(info ChunkInfo, c Choice) int64 {
	if c.Text {
		return info.TextBytes
	}
	return info.SizesByLevel[c.Level]
}

// streamChunks builds the manifest slice a stream open carries: every
// stored real level plus the text pseudo-level, per suffix chunk.
func streamChunks(man storage.Manifest, fromChunk, n int) ([]transport.StreamChunk, error) {
	chunks := make([]transport.StreamChunk, n)
	for si := 0; si < n; si++ {
		idx := fromChunk + si
		hashes := map[int]string{}
		for lv := 0; lv < man.Meta.Levels; lv++ {
			h, err := man.ChunkHash(lv, idx)
			if err != nil {
				return nil, fmt.Errorf("streamer: %w", err)
			}
			hashes[lv] = h
		}
		if h, err := man.ChunkHash(storage.TextLevel, idx); err == nil {
			hashes[storage.TextLevel] = h
		}
		chunks[si] = transport.StreamChunk{Index: idx, Hashes: hashes}
	}
	return chunks, nil
}

// acquireStream is the stream byte-acquirer: one stream open, the server
// pushing ~frame-sized slices, a bandwidth estimator fed per frame, and
// the planner consulted at frame-batch decision points — it can re-level
// chunks that have not started (SWITCH) and abandon the in-flight chunk
// when resending it at the planner's fresh choice is cheaper than
// finishing it (CANCEL). Every frame is fed to the assembler as it lands;
// when decode falls PipelineDepth chunks behind, the loop stops receiving
// and the stream's credit window makes the sender pause instead of
// buffering the context.
func (f *Fetcher) acquireStream(a *assembler, src StreamSource) error {
	n := len(a.infos)
	chunks, err := streamChunks(a.man, a.from, n)
	if err != nil {
		return err
	}
	// The first decision has no measurement; the planner falls back to
	// its prior or default level.
	initial, err := f.policy().Choose(0, time.Since(a.start), 0, a.infos)
	if err != nil {
		return fmt.Errorf("streamer: %w", err)
	}
	a.plan(0, initial)

	// The frame clock starts before the open is sent: the connection's
	// reader stamps the first frame as it reads it, which can be before
	// OpenChunkStream returns, and a clock started after would see a
	// negative first gap — a sample the estimator drops.
	lastFrame := time.Now()
	stream, err := src.OpenChunkStream(a.ctx, transport.StreamRequest{
		Chunks:    chunks,
		Level:     choiceLevel(initial),
		FrameSize: f.FrameSize,
	})
	if err != nil {
		return fmt.Errorf("streamer: opening chunk stream: %w", err)
	}
	defer stream.Close()

	est := netsim.NewEstimator(f.EstimatorWindow)
	est.SetGauge(f.BandwidthGauge)
	decisionEvery := f.DecisionFrames
	if decisionEvery <= 0 {
		decisionEvery = DefaultDecisionFrames
	}

	curLevel := choiceLevel(initial) // stream level for not-yet-started chunks
	var (
		c             *chunkAsm // the chunk in flight
		handed        bool      // c was finished before its last frame; the rest is dropped
		chunkFirst    time.Time // first frame of the chunk, any attempt
		framesSince   int
		cancelPending bool // a cancel for the in-flight chunk is in the air
		// Time this loop spent blocked on the finalizer. When decode falls
		// behind PipelineDepth, credit dries up and the sender pauses; that
		// pause rides on the next frame's arrival gap and must not be read
		// as link slowness.
		stall, chunkStall time.Duration
	)
	for si := 0; si < n; {
		frame, err := stream.Recv(a.ctx)
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("streamer: stream ended after %d of %d chunks", si, n)
		}
		if err != nil {
			return fmt.Errorf("streamer: chunk stream: %w", err)
		}
		// Wire arrival time, stamped by the connection's reader (frames
		// queued in the inbox keep accurate timestamps), minus the time
		// this loop itself spent blocked on the decoder — the sender's
		// credit pause surfaces in the first gap after a stall, and
		// over-subtraction only skips the sample (Observe ignores ≤0).
		now := frame.Arrived
		if now.IsZero() {
			now = time.Now()
		}
		prev := lastFrame
		est.Observe(int64(len(frame.Data)), now.Sub(prev)-stall)
		if frame.Pos != si {
			return fmt.Errorf("streamer: stream delivered position %d, expected %d", frame.Pos, si)
		}
		if c == nil {
			// The chunk's transfer clock starts where the previous frame
			// ended, so its own first frame's wire time counts — minus any
			// decode-handoff stall inside that first gap.
			chunkFirst = prev
			chunkStall = stall
		}
		stall = 0
		lastFrame = now
		if handed {
			// The finalizer owns the chunk; what the sender still pushes of
			// it is received, and dropped.
			a.count(frame.Level, int64(len(frame.Data)))
		} else {
			switch {
			case frame.Offset == 0:
				// The chunk's first frame — or a cancel landed, and it starts
				// over at another level.
				c = a.begin(si, frame.Level, frame.Total)
				cancelPending = false
			case c == nil:
				return fmt.Errorf("streamer: stream delivered chunk %d from offset %d", a.from+si, frame.Offset)
			}
			a.feed(c, frame.Data)
			// A header that failed validation will not get better with more
			// bytes: the chunk is finished here, so the finalizer fails the
			// fetch or refetches now, not a chunk transfer later. (Unless a
			// cancel is in the air — the restart replaces this attempt.)
			if frame.Last || c.err != nil && !cancelPending {
				// Decisions[].Transfer is stall-subtracted; the attribution
				// gets the raw wall interval, first to last frame.
				lc := levelChoice(c.level)
				a.finish(c, delivery{choice: lc, from: sourceLabel(lc), start: chunkFirst, end: now,
					transfer: max(now.Sub(chunkFirst)-chunkStall, 0), throughput: est.Estimate()})
				handed = true
			}
		}
		if frame.Last {
			stall += a.throttle(si)
			si++
			c, handed = nil, false
			framesSince = 0
			continue
		}
		if handed {
			continue
		}

		framesSince++
		if framesSince < decisionEvery {
			continue
		}
		framesSince = 0
		tput := est.Estimate()
		if tput <= 0 {
			continue
		}
		elapsed := time.Since(a.start)
		// Re-level chunks that have not started.
		if si+1 < n {
			next, err := f.policy().Choose(si+1, elapsed, tput, a.infos)
			if err != nil {
				return fmt.Errorf("streamer: %w", err)
			}
			if lv := choiceLevel(next); lv != curLevel {
				if err := stream.Switch(lv); err != nil {
					return fmt.Errorf("streamer: switch: %w", err)
				}
				curLevel = lv
				a.report.Switches++
				if a.sp != nil {
					a.sp.Event("switch", telemetry.Attr{Key: "level", Value: levelChoice(lv).String()},
						telemetry.Attr{Key: "bandwidth_bps", Value: tput})
				}
			}
		}
		if !cancelPending {
			fresh, err := f.policy().Choose(si, elapsed, tput, a.infos)
			if err != nil {
				return fmt.Errorf("streamer: %w", err)
			}
			if worthCancel(a.infos[si], c.level, fresh, c.total-c.bytes) {
				lv := choiceLevel(fresh)
				if err := stream.Cancel(si, lv); err != nil {
					return fmt.Errorf("streamer: cancel: %w", err)
				}
				cancelPending = true
				a.report.Cancels++
				if a.sp != nil {
					a.sp.Event("cancel", telemetry.Attr{Key: "chunk", Value: a.from + si},
						telemetry.Attr{Key: "level", Value: levelChoice(lv).String()})
				}
			}
		}
	}
	a.report.Bandwidth = est.Estimate()
	a.report.Streamed = true
	return nil
}
