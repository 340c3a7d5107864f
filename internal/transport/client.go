package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/storage"
)

// RemoteError is an error reported by the server.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return "transport: remote: " + e.Msg }

// Client speaks both protocol planes over one connection: serialized
// request/response round trips for the control verbs, and any number of
// concurrently open server-push chunk streams. A reader goroutine owns
// the receive side and demultiplexes: stream frames route to their
// stream by id, everything else answers the oldest pending round trip
// (requests are written serialized, and the server answers a
// connection's requests in order, so FIFO matching is exact). Safe for
// concurrent use.
type Client struct {
	conn net.Conn

	// wmu serializes frame writes; round trips also register their
	// response waiter under it so waiter order matches wire order.
	wmu sync.Mutex
	bw  *bufio.Writer

	mu      sync.Mutex
	waiters []chan respFrame
	// abandoned holds the waiters whose round trip gave up before the
	// answer came; each leaves when its late answer is consumed.
	abandoned map[chan respFrame]struct{}
	streams   map[uint64]*Stream
	nextID    uint64
	err       error

	done chan struct{} // closed when the reader exits (connection dead)
}

type respFrame struct {
	typ     byte
	payload []byte
	err     error
}

// NewClient wraps an established connection and starts its reader.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 64<<10),
		streams: map[uint64]*Stream{},
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Dial connects to a server at a TCP address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// Close closes the connection; pending round trips and open streams
// fail.
func (c *Client) Close() error { return c.conn.Close() }

// Err returns the terminal connection error, or nil while healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop owns the receive side until the connection dies.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			c.fail(fmt.Errorf("transport: connection lost: %w", err))
			return
		}
		switch typ {
		case typeStreamData, typeStreamEnd, typeStreamError:
			if err := c.routeStream(typ, payload); err != nil {
				c.fail(err)
				return
			}
		default:
			c.mu.Lock()
			if len(c.waiters) == 0 {
				c.mu.Unlock()
				c.fail(fmt.Errorf("%w: unsolicited response frame 0x%02x", ErrProtocol, typ))
				return
			}
			w := c.waiters[0]
			c.waiters = c.waiters[1:]
			delete(c.abandoned, w)
			c.mu.Unlock()
			w <- respFrame{typ: typ, payload: payload} // buffered; never blocks
		}
	}
}

// routeStream delivers one stream-plane frame to its stream. Frames for
// unknown ids are dropped (a stream closed locally races the server's
// in-flight pushes).
func (c *Client) routeStream(typ byte, payload []byte) error {
	switch typ {
	case typeStreamData:
		h, data, err := decodeDataFrame(payload)
		if err != nil {
			return err
		}
		s := c.stream(h.id)
		if s == nil {
			return nil
		}
		return s.deliver(streamEvent{frame: StreamFrame{
			Arrived: time.Now(),
			Pos:     h.pos, Level: h.level, Offset: h.offset, Total: h.total, Last: h.last,
			Data: data,
		}})
	case typeStreamEnd:
		id, rest, err := decodeStreamID(payload)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("%w: bad stream end", ErrProtocol)
		}
		if s := c.stream(id); s != nil {
			return s.deliver(streamEvent{err: errStreamEnd})
		}
		return nil
	case typeStreamError:
		id, rest, err := decodeStreamID(payload)
		if err != nil {
			return fmt.Errorf("%w: bad stream error", ErrProtocol)
		}
		if s := c.stream(id); s != nil {
			return s.deliver(streamEvent{err: remoteErr(string(rest))})
		}
		return nil
	}
	return nil
}

func (c *Client) stream(id uint64) *Stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streams[id]
}

func (c *Client) dropStream(id uint64) {
	c.mu.Lock()
	delete(c.streams, id)
	c.mu.Unlock()
}

// fail records the terminal error once, unblocks every pending round
// trip and stream, and closes the connection.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	waiters := c.waiters
	c.waiters = nil
	c.abandoned = nil
	c.mu.Unlock()
	for _, w := range waiters {
		w <- respFrame{err: err}
	}
	close(c.done) // streams blocked in Recv observe this
	c.conn.Close()
}

// send writes one fire-and-forget frame (stream control plane).
func (c *Client) send(typ byte, payload []byte) error {
	if err := c.Err(); err != nil {
		return err
	}
	c.wmu.Lock()
	err := writeFrame(c.bw, typ, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.fail(fmt.Errorf("transport: send: %w", err))
		return err
	}
	return nil
}

// roundTrip sends one request frame and waits for its response. The
// context bounds the wait; an abandoned wait leaves the waiter
// registered, so the eventual response is consumed and discarded and
// later round trips stay aligned; until then it counts as Abandoned.
func (c *Client) roundTrip(ctx context.Context, typ byte, payload []byte) (byte, []byte, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	ch := make(chan respFrame, 1)
	c.wmu.Lock()
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		c.wmu.Unlock()
		return 0, nil, err
	}
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	// The response wait is bounded by the select below, but the write
	// itself can block (a peer that stopped reading); bound it with the
	// context deadline too. The deadline is scoped to this write — wmu
	// serializes writers, and it is cleared before the lock drops.
	if deadline, ok := ctx.Deadline(); ok {
		c.conn.SetWriteDeadline(deadline)
	}
	err := writeFrame(c.bw, typ, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if _, ok := ctx.Deadline(); ok {
		c.conn.SetWriteDeadline(time.Time{})
	}
	if err != nil {
		// A deadline that expired before any of this frame reached the
		// wire leaves the connection perfectly aligned — the whole frame
		// is still sitting in the write buffer (nothing else can be: wmu
		// holders always flush fully or fail the connection). Withdraw
		// this call's waiter (still the newest; wmu is held) and keep the
		// connection for the streams and callers sharing it. Anything
		// else — bytes partially written, a dead socket — is fatal.
		if errors.Is(err, os.ErrDeadlineExceeded) && c.bw.Buffered() == frameHeaderSize+len(payload) {
			c.bw.Reset(c.conn)
			c.mu.Lock()
			c.waiters = c.waiters[:len(c.waiters)-1]
			c.mu.Unlock()
			c.wmu.Unlock()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return 0, nil, ctxErr
			}
			return 0, nil, fmt.Errorf("transport: send: %w", err)
		}
		c.wmu.Unlock()
		c.fail(fmt.Errorf("transport: send: %w", err))
		return 0, nil, err
	}
	c.wmu.Unlock()
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, nil, fmt.Errorf("transport: reading response: %w", r.err)
		}
		return r.typ, r.payload, nil
	case <-ctx.Done():
		c.mu.Lock()
		for _, w := range c.waiters {
			if w == ch {
				if c.abandoned == nil {
					c.abandoned = map[chan respFrame]struct{}{}
				}
				c.abandoned[ch] = struct{}{}
				break
			}
		}
		c.mu.Unlock()
		return 0, nil, ctx.Err()
	}
}

// Abandoned reports how many round trips on this connection gave up
// waiting and are still owed their answer by the server.
func (c *Client) Abandoned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.abandoned)
}

// OpenChunkStream opens a server-push context stream. The server starts
// pushing immediately; consume with Recv. The context only gates the
// open itself — pass it to Recv to bound waits.
func (c *Client) OpenChunkStream(ctx context.Context, req StreamRequest) (ChunkStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.normalize(); err != nil {
		return nil, err
	}
	open := streamOpen{
		Level:     req.Level,
		Window:    req.Window,
		FrameSize: req.FrameSize,
		Chunks:    make([]streamOpenChunk, len(req.Chunks)),
	}
	for i, ch := range req.Chunks {
		open.Chunks[i] = streamOpenChunk{Index: ch.Index, Offset: ch.Offset, Level: ch.Level, Hashes: ch.Hashes}
	}

	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	s := &Stream{
		c:      c,
		id:     id,
		window: req.Window,
		// Sized for every frame one window can hold: full frames plus the
		// sub-frame tail each chunk (or cancel restart) may produce.
		inbox: make(chan streamEvent, int(req.Window)/req.FrameSize+len(req.Chunks)+32),
	}
	c.streams[id] = s
	c.mu.Unlock()

	open.ID = id
	data, err := json.Marshal(open)
	if err != nil {
		c.dropStream(id)
		return nil, fmt.Errorf("transport: encoding stream open: %w", err)
	}
	if err := c.send(typeStreamOpen, data); err != nil {
		c.dropStream(id)
		return nil, err
	}
	return s, nil
}

// errStreamEnd marks a clean END internally; Recv converts it to io.EOF.
var errStreamEnd = errors.New("stream end")

// remoteErr maps a server-reported error string back to a typed error:
// not-found and corrupt-manifest conditions re-wrap their sentinel so
// callers (and the cluster pool's failover logic) can distinguish
// "context missing" from "node broken" across the wire.
func remoteErr(msg string) error {
	if strings.Contains(msg, "not found") {
		return fmt.Errorf("%w: %s", storage.ErrNotFound, msg)
	}
	if strings.Contains(msg, "corrupt manifest") {
		return fmt.Errorf("%w: %s", storage.ErrCorruptManifest, msg)
	}
	return &RemoteError{Msg: msg}
}

// GetManifest fetches a context's manifest.
func (c *Client) GetManifest(ctx context.Context, contextID string) (storage.Manifest, error) {
	typ, payload, err := c.roundTrip(ctx, typeReqManifest, []byte(contextID))
	if err != nil {
		return storage.Manifest{}, err
	}
	switch typ {
	case typeRespManifest:
		var man storage.Manifest
		if err := json.Unmarshal(payload, &man); err != nil {
			return storage.Manifest{}, fmt.Errorf("%w: bad manifest payload: %v", ErrProtocol, err)
		}
		return man, nil
	case typeError:
		return storage.Manifest{}, remoteErr(string(payload))
	default:
		return storage.Manifest{}, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// GetMeta fetches a context's metadata (a manifest round trip; kept for
// callers that only need the layout).
func (c *Client) GetMeta(ctx context.Context, contextID string) (storage.ContextMeta, error) {
	man, err := c.GetManifest(ctx, contextID)
	if err != nil {
		return storage.ContextMeta{}, err
	}
	return man.Meta, nil
}

// DeleteContext drops a context's manifest on the server, releasing its
// payload references for the node's sweeper.
func (c *Client) DeleteContext(ctx context.Context, contextID string) error {
	typ, payload, err := c.roundTrip(ctx, typeReqDelete, []byte(contextID))
	if err != nil {
		return err
	}
	switch typ {
	case typeRespDelete:
		return nil
	case typeError:
		return remoteErr(string(payload))
	default:
		return fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// Sweep runs one garbage-collection sweep on the server with the given
// grace age and returns its accounting.
func (c *Client) Sweep(ctx context.Context, minAge time.Duration) (storage.SweepResult, error) {
	typ, payload, err := c.roundTrip(ctx, typeReqSweep, encodeSweepReq(minAge))
	if err != nil {
		return storage.SweepResult{}, err
	}
	switch typ {
	case typeRespSweep:
		var res storage.SweepResult
		if err := json.Unmarshal(payload, &res); err != nil {
			return storage.SweepResult{}, fmt.Errorf("%w: bad sweep payload: %v", ErrProtocol, err)
		}
		return res, nil
	case typeError:
		return storage.SweepResult{}, remoteErr(string(payload))
	default:
		return storage.SweepResult{}, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// Usage reports the server store's physical footprint.
func (c *Client) Usage(ctx context.Context) (storage.Usage, error) {
	typ, payload, err := c.roundTrip(ctx, typeReqUsage, nil)
	if err != nil {
		return storage.Usage{}, err
	}
	switch typ {
	case typeRespUsage:
		var u storage.Usage
		if err := json.Unmarshal(payload, &u); err != nil {
			return storage.Usage{}, fmt.Errorf("%w: bad usage payload: %v", ErrProtocol, err)
		}
		return u, nil
	case typeError:
		return storage.Usage{}, remoteErr(string(payload))
	default:
		return storage.Usage{}, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// GetBank fetches the server's serialised codec model bank.
func (c *Client) GetBank(ctx context.Context) ([]byte, error) {
	typ, payload, err := c.roundTrip(ctx, typeReqBank, nil)
	if err != nil {
		return nil, err
	}
	switch typ {
	case typeRespBank:
		return payload, nil
	case typeError:
		return nil, &RemoteError{Msg: string(payload)}
	default:
		return nil, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// GetChunkData fetches one chunk payload by content hash.
func (c *Client) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	typ, payload, err := c.roundTrip(ctx, typeReqChunk, []byte(hash))
	if err != nil {
		return nil, err
	}
	switch typ {
	case typeRespChunk:
		return payload, nil
	case typeError:
		return nil, remoteErr(string(payload))
	default:
		return nil, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}
