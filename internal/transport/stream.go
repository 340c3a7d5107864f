package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"
)

// Stream-plane limits. A DATA frame carries at most MaxStreamFrame bytes
// of chunk payload: small enough that the receiver's bandwidth estimator
// samples the link many times per chunk (the point of the exercise),
// large enough that header and syscall overhead stay negligible.
const (
	// DefaultFrameSize is the DATA frame payload bound when the opener
	// does not pick one (~64 KiB, the issue's granularity).
	DefaultFrameSize = 64 << 10
	// MaxStreamFrame is the hard DATA payload bound either side enforces.
	MaxStreamFrame = 256 << 10
	// DefaultStreamWindow is the credit window when the opener does not
	// pick one: how many pushed-but-unconsumed bytes may be in flight.
	DefaultStreamWindow = 1 << 20
)

// StreamChunk describes one chunk position in an open stream: its index
// in the context (echoed back in decode-metadata checks), the payload
// hash at every level the server might be switched to, and an optional
// resume offset for a chunk the client already holds a prefix of (a
// replica failover resuming mid-chunk).
type StreamChunk struct {
	// Index is the chunk's index in the context.
	Index int
	// Offset is how many payload bytes the client already holds; the
	// server starts pushing from here on this chunk's first delivery.
	Offset int64
	// Level, if non-nil, overrides the stream's level for this chunk (a
	// resumed chunk continues at the level it was being delivered at).
	Level *int
	// Hashes maps encoding level (including storage.TextLevel) to the
	// chunk's payload hash at that level.
	Hashes map[int]string
}

// StreamRequest opens a multiplexed context stream: the server pushes
// every chunk, in order, as bounded DATA frames.
type StreamRequest struct {
	// Chunks is the manifest slice to stream, in delivery order.
	Chunks []StreamChunk
	// Level is the initial encoding level for every chunk.
	Level int
	// Window is the credit window in bytes (0 = DefaultStreamWindow).
	Window int64
	// FrameSize bounds each DATA frame's payload (0 = DefaultFrameSize;
	// capped at MaxStreamFrame).
	FrameSize int
}

// StreamFrame is one server-pushed slice of a chunk payload.
type StreamFrame struct {
	// Arrived is when the frame was read off the connection — stamped by
	// the reader goroutine, not by Recv, so a consumer that falls behind
	// (frames queueing in the inbox) still sees wire arrival times. The
	// bandwidth estimator must be fed these, or decode backpressure
	// masquerades as link slowness.
	Arrived time.Time
	// Pos is the chunk's position in the StreamRequest.Chunks slice.
	Pos int
	// Level is the encoding level this chunk is being delivered at. A
	// level change at Offset 0 for a position already partly received
	// means the chunk was cancelled and restarted — discard the prefix.
	Level int
	// Offset is this frame's byte offset within the chunk payload.
	Offset int64
	// Total is the chunk payload's full size at Level.
	Total int64
	// Last marks the final frame of this chunk.
	Last bool
	// Data is the payload slice.
	Data []byte
}

// ChunkStream is the receiver's handle on one open context stream. A
// transport.Stream is one connection's stream; a cluster.Pool returns a
// fleet adapter that splices per-node streams behind the same interface.
type ChunkStream interface {
	// Recv returns the next DATA frame, io.EOF after the final chunk, or
	// the stream's error. Consuming a frame replenishes the sender's
	// credit; a receiver that stops calling Recv stalls the push within
	// one window — that is the backpressure.
	Recv(ctx context.Context) (StreamFrame, error)
	// Switch changes the delivery level for chunks not yet started.
	Switch(level int) error
	// Cancel abandons the in-flight chunk at position pos and restarts
	// it from offset 0 at the given level (positions already delivered
	// are unaffected; positions not yet started inherit level when they
	// begin).
	Cancel(pos, level int) error
	// Close abandons the stream; the sender stops pushing.
	Close() error
}

// streamOpen is the wire form of StreamRequest (typeStreamOpen payload).
type streamOpen struct {
	ID        uint64            `json:"id"`
	Level     int               `json:"level"`
	Window    int64             `json:"window"`
	FrameSize int               `json:"frame"`
	Chunks    []streamOpenChunk `json:"chunks"`
}

type streamOpenChunk struct {
	Index  int            `json:"i"`
	Offset int64          `json:"o,omitempty"`
	Level  *int           `json:"l,omitempty"`
	Hashes map[int]string `json:"h"`
}

// normalize applies defaults and clamps, rejecting nonsense requests.
func (r *StreamRequest) normalize() error {
	if len(r.Chunks) == 0 {
		return fmt.Errorf("%w: stream request has no chunks", ErrProtocol)
	}
	if r.FrameSize <= 0 {
		r.FrameSize = DefaultFrameSize
	}
	if r.FrameSize > MaxStreamFrame {
		r.FrameSize = MaxStreamFrame
	}
	if r.Window <= 0 {
		r.Window = DefaultStreamWindow
	}
	// The credit replenish quantum is window/4; keep it at least one full
	// frame so the sender can never deadlock waiting for sub-frame credit.
	if min := 4 * int64(r.FrameSize); r.Window < min {
		r.Window = min
	}
	for i, ch := range r.Chunks {
		if len(ch.Hashes) == 0 {
			return fmt.Errorf("%w: stream chunk %d has no hashes", ErrProtocol, i)
		}
		if ch.Offset < 0 {
			return fmt.Errorf("%w: stream chunk %d has negative offset", ErrProtocol, i)
		}
	}
	return nil
}

// --- binary codecs for the fixed-layout stream frames ---

func encodeStreamID(id uint64) []byte {
	return binary.AppendUvarint(nil, id)
}

func decodeStreamID(p []byte) (uint64, []byte, error) {
	id, k := binary.Uvarint(p)
	if k <= 0 {
		return 0, nil, fmt.Errorf("%w: bad stream id", ErrProtocol)
	}
	return id, p[k:], nil
}

func encodeCredit(id uint64, n int64) []byte {
	p := binary.AppendUvarint(nil, id)
	return binary.AppendUvarint(p, uint64(n))
}

func decodeCredit(p []byte) (id uint64, n int64, err error) {
	id, rest, err := decodeStreamID(p)
	if err != nil {
		return 0, 0, err
	}
	v, k := binary.Uvarint(rest)
	if k <= 0 || len(rest[k:]) != 0 || v > MaxFramePayload*4 {
		return 0, 0, fmt.Errorf("%w: bad credit grant", ErrProtocol)
	}
	return id, int64(v), nil
}

func encodeSwitch(id uint64, level int) []byte {
	p := binary.AppendUvarint(nil, id)
	return binary.AppendVarint(p, int64(level))
}

func decodeSwitch(p []byte) (id uint64, level int, err error) {
	id, rest, err := decodeStreamID(p)
	if err != nil {
		return 0, 0, err
	}
	v, k := binary.Varint(rest)
	if k <= 0 || len(rest[k:]) != 0 {
		return 0, 0, fmt.Errorf("%w: bad switch level", ErrProtocol)
	}
	return id, int(v), nil
}

func encodeCancel(id uint64, pos, level int) []byte {
	p := binary.AppendUvarint(nil, id)
	p = binary.AppendUvarint(p, uint64(pos))
	return binary.AppendVarint(p, int64(level))
}

func decodeCancel(p []byte) (id uint64, pos, level int, err error) {
	id, rest, err := decodeStreamID(p)
	if err != nil {
		return 0, 0, 0, err
	}
	pv, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, 0, fmt.Errorf("%w: bad cancel position", ErrProtocol)
	}
	rest = rest[k:]
	lv, k := binary.Varint(rest)
	if k <= 0 || len(rest[k:]) != 0 || pv > 1<<30 {
		return 0, 0, 0, fmt.Errorf("%w: bad cancel level", ErrProtocol)
	}
	return id, int(pv), int(lv), nil
}

// dataHeader is the fixed prefix of a typeStreamData payload.
type dataHeader struct {
	id     uint64
	pos    int
	level  int
	offset int64
	total  int64
	last   bool
}

func appendDataHeader(dst []byte, h dataHeader) []byte {
	dst = binary.AppendUvarint(dst, h.id)
	dst = binary.AppendUvarint(dst, uint64(h.pos))
	dst = binary.AppendVarint(dst, int64(h.level))
	dst = binary.AppendUvarint(dst, uint64(h.offset))
	dst = binary.AppendUvarint(dst, uint64(h.total))
	var flags byte
	if h.last {
		flags |= 1
	}
	return append(dst, flags)
}

// decodeDataFrame splits a typeStreamData payload into its header and
// the raw data slice (a view into p, not a copy).
func decodeDataFrame(p []byte) (dataHeader, []byte, error) {
	var h dataHeader
	bad := func(what string) (dataHeader, []byte, error) {
		return dataHeader{}, nil, fmt.Errorf("%w: bad data frame %s", ErrProtocol, what)
	}
	id, k := binary.Uvarint(p)
	if k <= 0 {
		return bad("id")
	}
	p = p[k:]
	pos, k := binary.Uvarint(p)
	if k <= 0 || pos > 1<<30 {
		return bad("position")
	}
	p = p[k:]
	level, k := binary.Varint(p)
	if k <= 0 {
		return bad("level")
	}
	p = p[k:]
	offset, k := binary.Uvarint(p)
	if k <= 0 || offset > MaxFramePayload {
		return bad("offset")
	}
	p = p[k:]
	total, k := binary.Uvarint(p)
	if k <= 0 || total > MaxFramePayload {
		return bad("total")
	}
	p = p[k:]
	if len(p) < 1 {
		return bad("flags")
	}
	flags := p[0]
	data := p[1:]
	if len(data) > MaxStreamFrame {
		return bad("payload size")
	}
	if int64(offset)+int64(len(data)) > int64(total) {
		return bad("bounds")
	}
	h = dataHeader{id: id, pos: int(pos), level: int(level),
		offset: int64(offset), total: int64(total), last: flags&1 != 0}
	return h, data, nil
}

// streamEvent is what the client's reader routes to a Stream: a frame,
// io.EOF for END, or a terminal error.
type streamEvent struct {
	frame StreamFrame
	err   error
}

// Stream is the client side of one open context stream on a Client
// connection. Recv is safe for one consumer; Switch/Cancel/Close may be
// called concurrently with Recv.
type Stream struct {
	c      *Client
	id     uint64
	window int64
	inbox  chan streamEvent

	mu     sync.Mutex
	debt   int64 // consumed bytes not yet granted back
	closed bool
	done   bool
}

// Recv implements ChunkStream.
func (s *Stream) Recv(ctx context.Context) (StreamFrame, error) {
	if err := ctx.Err(); err != nil {
		// Deterministic cancellation: buffered frames must not race the
		// caller's abandoned context.
		return StreamFrame{}, err
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return StreamFrame{}, io.EOF
	}
	if s.closed {
		s.mu.Unlock()
		return StreamFrame{}, fmt.Errorf("transport: stream %d closed", s.id)
	}
	s.mu.Unlock()
	select {
	case ev := <-s.inbox:
		if ev.err != nil {
			s.mu.Lock()
			s.done = true
			s.mu.Unlock()
			s.c.dropStream(s.id)
			if errors.Is(ev.err, errStreamEnd) {
				return StreamFrame{}, io.EOF
			}
			return StreamFrame{}, ev.err
		}
		s.ack(int64(len(ev.frame.Data)))
		return ev.frame, nil
	case <-s.c.done:
		return StreamFrame{}, s.c.Err()
	case <-ctx.Done():
		return StreamFrame{}, ctx.Err()
	}
}

// ack accumulates consumed bytes and replenishes the sender's credit in
// window/4 quanta (batching keeps the credit chatter to ~4 frames per
// window instead of one per DATA frame).
func (s *Stream) ack(n int64) {
	if n <= 0 {
		return
	}
	s.mu.Lock()
	s.debt += n
	grant := int64(0)
	if s.debt >= s.window/4 {
		grant, s.debt = s.debt, 0
	}
	s.mu.Unlock()
	if grant > 0 {
		// Best-effort: a failed grant means the connection is dead and
		// the next Recv surfaces that.
		_ = s.c.send(typeStreamCredit, encodeCredit(s.id, grant))
	}
}

// Switch implements ChunkStream.
func (s *Stream) Switch(level int) error {
	return s.c.send(typeStreamSwitch, encodeSwitch(s.id, level))
}

// Cancel implements ChunkStream.
func (s *Stream) Cancel(pos, level int) error {
	return s.c.send(typeStreamCancel, encodeCancel(s.id, pos, level))
}

// Close implements ChunkStream: tells the server to stop pushing and
// releases the stream id. Safe to call twice.
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed || s.done {
		already := s.closed
		s.closed = true
		s.mu.Unlock()
		if already {
			return nil
		}
		s.c.dropStream(s.id)
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.c.dropStream(s.id)
	return s.c.send(typeStreamClose, encodeStreamID(s.id))
}

// deliver routes one event into the stream without ever blocking the
// connection's reader; overflow reports a protocol violation (the sender
// overran its credit window).
func (s *Stream) deliver(ev streamEvent) error {
	select {
	case s.inbox <- ev:
		return nil
	default:
		return fmt.Errorf("%w: stream %d overran its credit window", ErrProtocol, s.id)
	}
}
