package transport

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Server serves chunk and metadata requests from a storage.Store over
// the frame protocol — the storage-server side of get_kv (§6). Each
// accepted connection is handled on its own goroutine. Control-plane
// requests within a connection are processed sequentially (responses
// stay in request order); each open chunk stream pushes DATA frames from
// its own goroutine, interleaved with responses through a per-connection
// write lock, so a long stream never blocks the control plane.
type Server struct {
	store storage.Store
	bank  []byte // serialised codec model bank served to clients

	// tele is the server's slice of a live metrics registry; its nil
	// instruments no-op when telemetry is not wired.
	tele struct {
		streams *telemetry.Counter
		frames  *telemetry.Counter
		bytes   *telemetry.Counter
		control *telemetry.Counter
	}

	mu          sync.Mutex
	ln          net.Listener
	conns       map[net.Conn]struct{}
	shapers     map[net.Conn]*Shaper
	egress      netsim.Trace // configured per-connection egress trace (nil = unlimited)
	fault       netsim.Trace // fault overlay replacing egress while set
	closed      bool
	partitioned bool

	// Wire-corruption fault injection (chaos): a seeded rng decides per
	// served chunk whether to flip one byte of a copy. The counter is how
	// the chaos report proves every injected corruption was caught by the
	// client's CRC rather than silently decoded.
	corruptMu   sync.Mutex
	corruptRate float64
	corruptRng  *rand.Rand
	corrupted   atomic.Uint64

	// Flaky fault injection (chaos): a seeded rng makes a fraction of
	// requests pathological — most strikes stall the request by a fixed
	// delay (a browning-out node), the rest sever the connection (a
	// crashing one). The strike counter feeds the chaos accounting.
	flakyMu      sync.Mutex
	flakyRate    float64
	flakyDelay   time.Duration
	flakyErrFrac float64
	flakyRng     *rand.Rand
	flakyStruck  atomic.Uint64
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithEgressTrace shapes every connection's sends along a bandwidth
// trace, each connection replaying the trace from its accept time — the
// live-socket twin of the netsim experiments, so a harness run and a
// real client can face the same bandwidth cliff. A fixed-rate link is a
// one-segment trace (netsim.Constant).
func WithEgressTrace(tr netsim.Trace) ServerOption {
	return func(s *Server) { s.egress = tr }
}

// WithBank serves the given serialised codec model bank to clients that
// request it, so a fresh inference server can bootstrap the decoder for
// this store's LLM without out-of-band files (§5.2: the bank is profiled
// once per LLM, offline).
func WithBank(bank []byte) ServerOption {
	return func(s *Server) { s.bank = append([]byte{}, bank...) }
}

// WithTelemetry registers the server's live instruments — open
// connections, streams opened, DATA frames/bytes pushed, control-plane
// requests — into reg. Nil reg (or omitting the option) costs nothing.
func WithTelemetry(reg *telemetry.Registry) ServerOption {
	return func(s *Server) {
		s.tele.streams = reg.Counter("cachegen_transport_streams_opened_total", "server-push chunk streams opened")
		s.tele.frames = reg.Counter("cachegen_transport_frames_pushed_total", "DATA frames pushed to clients")
		s.tele.bytes = reg.Counter("cachegen_transport_pushed_bytes_total", "DATA payload bytes pushed to clients")
		s.tele.control = reg.Counter("cachegen_transport_control_requests_total", "control-plane requests answered")
		if reg != nil {
			reg.GaugeFunc("cachegen_transport_conns", "open client connections", func() float64 {
				s.mu.Lock()
				defer s.mu.Unlock()
				return float64(len(s.conns))
			})
		}
	}
}

// NewServer returns a server over the given store.
func NewServer(store storage.Store, opts ...ServerOption) *Server {
	s := &Server{
		store:   store,
		conns:   map[net.Conn]struct{}{},
		shapers: map[net.Conn]*Shaper{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetPartitioned simulates a network partition: while on, established
// connections are severed and new ones are dropped at accept, so clients
// see dial/connection errors exactly as they would from an unreachable
// region. Turning it off heals the partition; clients reconnect on their
// next attempt.
func (s *Server) SetPartitioned(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.partitioned = on
	if on {
		for c := range s.conns {
			c.Close()
		}
	}
}

// SetEgressRate configures every connection's egress as a constant
// bps bits per second (≤0 = unlimited) while the server runs — live and
// future connections alike — and lifts any fault overlay.
func (s *Server) SetEgressRate(bps float64) {
	var tr netsim.Trace
	if bps > 0 {
		tr = netsim.Constant(bps)
	}
	s.mu.Lock()
	s.egress = tr
	s.mu.Unlock()
	s.SetEgressTrace(nil)
}

// SetEgressTrace overlays a bandwidth trace on every connection, t=0
// anchored now — the chaos subsystem's bandwidth cliff. A nil trace
// lifts the overlay: live and future connections return to the
// configured trace, re-anchored now.
func (s *Server) SetEgressTrace(tr netsim.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = tr
	for _, sh := range s.shapers {
		sh.SetTrace(s.egressLocked())
	}
}

// egressLocked is the trace new and re-shaped connections follow: the
// fault overlay while one is set, else the configured trace.
func (s *Server) egressLocked() netsim.Trace {
	if s.fault != nil {
		return s.fault
	}
	return s.egress
}

// SetCorruption makes the server flip one byte in a fraction rate
// (0..1) of served chunk payloads, both request/response and streamed,
// using a deterministic rng seeded with seed. The flip happens in a
// copy, so the store's bytes stay intact — this models wire or NIC
// corruption, which the client-side CRC must catch. Rate ≤0 heals.
func (s *Server) SetCorruption(rate float64, seed int64) {
	s.corruptMu.Lock()
	defer s.corruptMu.Unlock()
	s.corruptRate = rate
	s.corruptRng = rand.New(rand.NewSource(seed))
}

// CorruptionInjected reports how many served payloads were corrupted.
func (s *Server) CorruptionInjected() uint64 { return s.corrupted.Load() }

// SetFlaky makes the server strike a fraction rate (0..1) of requests:
// a strike either stalls the request by delay (a node browning out) or,
// with probability errFrac, severs the connection mid-request (a node
// crashing under it). Strikes are rolled per control-plane request and
// per stream open with a deterministic rng seeded with seed, so chaos
// runs replay. Rate ≤0 heals.
func (s *Server) SetFlaky(rate float64, delay time.Duration, errFrac float64, seed int64) {
	s.flakyMu.Lock()
	defer s.flakyMu.Unlock()
	s.flakyRate = rate
	s.flakyDelay = delay
	s.flakyErrFrac = errFrac
	s.flakyRng = rand.New(rand.NewSource(seed))
}

// FlakyInjected reports how many requests the flaky fault struck.
func (s *Server) FlakyInjected() uint64 { return s.flakyStruck.Load() }

// errFlaky is the injected failure a flaky strike surfaces when it
// decides to sever: dispatch returns it, and the connection dies just
// as it would under a real mid-request crash.
var errFlaky = errors.New("flaky fault injected: connection severed")

// flakyStrike rolls the flaky fault for one request. sever means the
// connection must be dropped; otherwise delay (possibly zero) is how
// long to stall before answering.
func (s *Server) flakyStrike() (sever bool, delay time.Duration) {
	s.flakyMu.Lock()
	defer s.flakyMu.Unlock()
	if s.flakyRate <= 0 || s.flakyRng.Float64() >= s.flakyRate {
		return false, 0
	}
	s.flakyStruck.Add(1)
	if s.flakyErrFrac > 0 && s.flakyRng.Float64() < s.flakyErrFrac {
		return true, 0
	}
	return false, s.flakyDelay
}

// maybeCorrupt returns payload, or a copy with one byte flipped when the
// corruption fault decides to strike.
func (s *Server) maybeCorrupt(payload []byte) []byte {
	s.corruptMu.Lock()
	if s.corruptRate <= 0 || len(payload) == 0 || s.corruptRng.Float64() >= s.corruptRate {
		s.corruptMu.Unlock()
		return payload
	}
	i := s.corruptRng.Intn(len(payload))
	s.corruptMu.Unlock()
	out := append([]byte(nil), payload...)
	out[i] ^= 0xff
	s.corrupted.Add(1)
	return out
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Close ran before Serve registered the listener; it must not
		// stay bound (connects would sit in its accept backlog forever,
		// and a restart on the same address would fail to bind).
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr (TCP) and serves.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops the listener and all connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// HandleConn serves one pre-established connection (used with net.Pipe in
// tests and by custom acceptors). It returns when the peer disconnects.
func (s *Server) HandleConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.handle(conn)
}

// serverConn is one connection's state: the shared write side and the
// open streams pushed over it.
type serverConn struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex
	bw  *bufio.Writer

	mu      sync.Mutex
	streams map[uint64]*serverStream
	wg      sync.WaitGroup // stream pushers
}

func (s *Server) handle(conn net.Conn) {
	// Every connection goes through a Shaper (an untraced shaper is a
	// passthrough) so SetEgressRate/SetEgressTrace can re-shape live
	// connections — how the chaos bandwidth-cliff fault lands mid-stream.
	s.mu.Lock()
	if s.partitioned {
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		return
	}
	sh := NewShaper(conn, s.egressLocked())
	s.shapers[conn] = sh
	s.mu.Unlock()
	sc := &serverConn{
		srv:     s,
		conn:    conn,
		bw:      bufio.NewWriterSize(sh, 64<<10),
		streams: map[uint64]*serverStream{},
	}
	defer func() {
		// Wake every pusher so it observes the teardown, then reap them
		// before the connection is forgotten — no pusher survives its
		// connection.
		sc.mu.Lock()
		for _, st := range sc.streams {
			st.close()
		}
		sc.mu.Unlock()
		conn.Close()
		sc.wg.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		delete(s.shapers, conn)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			return // disconnect or garbage; drop the connection
		}
		if err := sc.dispatch(typ, payload); err != nil {
			return
		}
	}
}

// write sends one frame through the connection's shared write side.
func (sc *serverConn) write(typ byte, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	if err := writeFrame(sc.bw, typ, payload); err != nil {
		return err
	}
	return sc.bw.Flush()
}

// dispatch handles one inbound frame: stream-plane frames steer or open
// streams; everything else is a control-plane request answered in line.
func (sc *serverConn) dispatch(typ byte, payload []byte) error {
	switch typ {
	case typeStreamOpen:
		if sever, delay := sc.srv.flakyStrike(); sever {
			return errFlaky
		} else if delay > 0 {
			time.Sleep(delay)
		}
		return sc.openStream(payload)
	case typeStreamCredit:
		id, n, err := decodeCredit(payload)
		if err != nil {
			return err
		}
		if st := sc.stream(id); st != nil {
			st.grant(n)
		}
		return nil
	case typeStreamSwitch:
		id, level, err := decodeSwitch(payload)
		if err != nil {
			return err
		}
		if st := sc.stream(id); st != nil {
			st.switchLevel(level)
		}
		return nil
	case typeStreamCancel:
		id, pos, level, err := decodeCancel(payload)
		if err != nil {
			return err
		}
		if st := sc.stream(id); st != nil {
			st.cancel(pos, level)
		}
		return nil
	case typeStreamClose:
		id, rest, err := decodeStreamID(payload)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("%w: bad stream close", ErrProtocol)
		}
		if st := sc.stream(id); st != nil {
			st.close()
		}
		return nil
	default:
		if sever, delay := sc.srv.flakyStrike(); sever {
			return errFlaky
		} else if delay > 0 {
			time.Sleep(delay)
		}
		sc.srv.tele.control.Inc()
		rtyp, rpayload := sc.srv.respond(typ, payload)
		return sc.write(rtyp, rpayload)
	}
}

// respond computes the control-plane response for one request frame.
func (s *Server) respond(typ byte, payload []byte) (byte, []byte) {
	ctx := context.Background()
	fail := func(err error) (byte, []byte) { return typeError, []byte(err.Error()) }
	asJSON := func(rtyp byte, v any) (byte, []byte) {
		data, err := json.Marshal(v)
		if err != nil {
			return fail(err)
		}
		return rtyp, data
	}
	switch typ {
	case typeReqManifest:
		man, err := s.store.GetManifest(ctx, string(payload))
		if err != nil {
			return fail(err)
		}
		return asJSON(typeRespManifest, man)

	case typeReqChunk:
		data, err := s.store.GetChunk(ctx, string(payload))
		if err != nil {
			return fail(err)
		}
		return typeRespChunk, s.maybeCorrupt(data)

	case typeReqBank:
		if len(s.bank) == 0 {
			return typeError, []byte("no model bank configured")
		}
		return typeRespBank, s.bank

	case typeReqDelete:
		if err := s.store.DeleteContext(ctx, string(payload)); err != nil {
			return fail(err)
		}
		return typeRespDelete, nil

	case typeReqSweep:
		minAge, err := decodeSweepReq(payload)
		if err != nil {
			return fail(err)
		}
		res, err := s.store.Sweep(ctx, minAge)
		if err != nil {
			return fail(err)
		}
		return asJSON(typeRespSweep, res)

	case typeReqUsage:
		u, err := s.store.Usage(ctx)
		if err != nil {
			return fail(err)
		}
		return asJSON(typeRespUsage, u)

	default:
		return typeError, []byte(fmt.Sprintf("unknown frame type 0x%02x", typ))
	}
}

func (sc *serverConn) stream(id uint64) *serverStream {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.streams[id]
}

func (sc *serverConn) removeStream(id uint64) {
	sc.mu.Lock()
	delete(sc.streams, id)
	sc.mu.Unlock()
}

// openStream validates a stream open and starts its pusher.
func (sc *serverConn) openStream(payload []byte) error {
	var open streamOpen
	if err := json.Unmarshal(payload, &open); err != nil {
		return fmt.Errorf("%w: bad stream open: %v", ErrProtocol, err)
	}
	if len(open.Chunks) == 0 || len(open.Chunks) > 1<<20 {
		return fmt.Errorf("%w: stream open with %d chunks", ErrProtocol, len(open.Chunks))
	}
	if open.FrameSize <= 0 || open.FrameSize > MaxStreamFrame {
		return fmt.Errorf("%w: stream frame size %d", ErrProtocol, open.FrameSize)
	}
	if open.Window < int64(open.FrameSize) {
		return fmt.Errorf("%w: stream window %d below frame size", ErrProtocol, open.Window)
	}
	st := &serverStream{
		id:        open.ID,
		frameSize: open.FrameSize,
		chunks:    open.Chunks,
		credit:    open.Window,
		level:     open.Level,
	}
	st.cond = sync.NewCond(&st.mu)
	sc.mu.Lock()
	if _, dup := sc.streams[open.ID]; dup {
		sc.mu.Unlock()
		return fmt.Errorf("%w: duplicate stream id %d", ErrProtocol, open.ID)
	}
	sc.streams[open.ID] = st
	sc.wg.Add(1)
	sc.mu.Unlock()
	sc.srv.tele.streams.Inc()
	go sc.push(st)
	return nil
}

// serverStream is the sender side of one open chunk stream.
type serverStream struct {
	id        uint64
	frameSize int
	chunks    []streamOpenChunk

	mu     sync.Mutex
	cond   *sync.Cond
	credit int64
	level  int // delivery level for chunks not yet started
	// cancel of the in-flight chunk: pending restart at restartLevel.
	restartPending bool
	restartLevel   int
	current        int // pusher's current chunk position
	closed         bool
}

// grant adds credit (a CREDIT frame arrived).
func (st *serverStream) grant(n int64) {
	if n <= 0 {
		return
	}
	st.mu.Lock()
	st.credit += n
	st.mu.Unlock()
	st.cond.Signal()
}

// switchLevel re-levels chunks not yet started.
func (st *serverStream) switchLevel(level int) {
	st.mu.Lock()
	st.level = level
	st.mu.Unlock()
}

// cancel abandons the chunk at pos if it is in flight (restarting it at
// level), or re-levels it for later if not yet started. Positions
// already delivered are left alone — the client holds their bytes.
func (st *serverStream) cancel(pos, level int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case pos < st.current || pos >= len(st.chunks):
		return
	case pos == st.current:
		st.restartPending = true
		st.restartLevel = level
		st.cond.Signal()
	default:
		st.chunks[pos].Level = &level
	}
}

// close wakes and stops the pusher.
func (st *serverStream) close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
	st.cond.Signal()
}

// creditAction is what waitCredit tells the pusher to do next.
type creditAction int

const (
	creditSend creditAction = iota
	creditRestart
	creditStop
)

// waitCredit blocks until n bytes of credit are available, the chunk is
// cancelled, or the stream is torn down.
func (st *serverStream) waitCredit(n int64) (creditAction, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.closed {
			return creditStop, 0
		}
		if st.restartPending {
			st.restartPending = false
			return creditRestart, st.restartLevel
		}
		if st.credit >= n {
			st.credit -= n
			return creditSend, 0
		}
		st.cond.Wait()
	}
}

// startChunk records the pusher's position and returns the chunk plus
// its starting level (per-chunk override, else the stream level). The
// copy is taken under the lock because cancel writes the element's
// Level field concurrently.
func (st *serverStream) startChunk(pos int) (streamOpenChunk, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.current = pos
	st.restartPending = false
	ch := st.chunks[pos]
	if ch.Level != nil {
		return ch, *ch.Level
	}
	return ch, st.level
}

// push delivers every chunk of one stream in order, honoring credit,
// mid-stream level switches and in-flight cancels. It owns the stream's
// registry entry and exits on teardown or a dead connection.
func (sc *serverConn) push(st *serverStream) {
	defer sc.wg.Done()
	defer sc.removeStream(st.id)
	ctx := context.Background()
	scratch := make([]byte, 0, st.frameSize+64)

	fail := func(msg string) {
		payload := append(encodeStreamID(st.id), msg...)
		_ = sc.write(typeStreamError, payload)
	}

	for pos := 0; pos < len(st.chunks); pos++ {
		ch, level := st.startChunk(pos)
		resumeAt := ch.Offset // first delivery of this chunk may resume
		for {
			hash, ok := ch.Hashes[level]
			if !ok {
				fail(fmt.Sprintf("chunk %d has no payload at level %d", ch.Index, level))
				return
			}
			payload, err := sc.srv.store.GetChunk(ctx, hash)
			if err != nil {
				fail(err.Error())
				return
			}
			payload = sc.srv.maybeCorrupt(payload)
			total := int64(len(payload))
			offset := resumeAt
			resumeAt = 0 // a restart re-sends from the top
			if offset > total {
				fail(fmt.Sprintf("chunk %d resume offset %d beyond payload size %d", ch.Index, offset, total))
				return
			}
			restarted := false
			for {
				n := total - offset
				if n > int64(st.frameSize) {
					n = int64(st.frameSize)
				}
				action, restartLevel := st.waitCredit(n)
				if action == creditStop {
					return
				}
				if action == creditRestart {
					if restartLevel == level {
						// Restarting at the same level would only resend
						// bytes the client already holds; keep going.
						continue
					}
					level = restartLevel
					restarted = true
					break
				}
				hdr := dataHeader{id: st.id, pos: pos, level: level,
					offset: offset, total: total, last: offset+n == total}
				scratch = appendDataHeader(scratch[:0], hdr)
				scratch = append(scratch, payload[offset:offset+n]...)
				if err := sc.write(typeStreamData, scratch); err != nil {
					return // connection dead; teardown reaps us
				}
				sc.srv.tele.frames.Inc()
				sc.srv.tele.bytes.Add(n)
				offset += n
				if offset == total {
					break
				}
			}
			if !restarted {
				break // chunk fully delivered
			}
		}
	}
	_ = sc.write(typeStreamEnd, encodeStreamID(st.id))
}
