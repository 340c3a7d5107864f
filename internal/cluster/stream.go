package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/storage"
	"repro/internal/transport"
)

// OpenChunkStream opens a fleet-wide server-push stream: consecutive
// chunks are grouped into runs served by one node (placement keys on the
// payload's content hash, so a run is the longest prefix of remaining
// chunks whose current-level payloads that node holds), each run is one
// transport stream, and the splice is invisible to the caller — frames
// arrive with global positions, in order. When a node dies mid-chunk the
// stream fails over to a replica and resumes the in-flight chunk at the
// exact byte offset already received (content addressing guarantees the
// replica's payload is identical); Switch and Cancel steer the active
// run and re-route future runs through the ring at their new level.
func (p *Pool) OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(req.Chunks) == 0 {
		return nil, fmt.Errorf("cluster: stream request has no chunks")
	}
	s := &poolStream{
		p:        p,
		req:      req,
		level:    req.Level,
		override: map[int]int{},
		failed:   map[int]map[string]bool{},
	}
	return s, nil
}

// poolStream is the fleet adapter behind OpenChunkStream. Recv is
// single-consumer; Switch/Cancel/Close may be called concurrently.
type poolStream struct {
	p   *Pool
	req transport.StreamRequest

	mu        sync.Mutex
	level     int         // stream level for chunks not yet started
	override  map[int]int // per-position level pins (cancels, resumes)
	sub       transport.ChunkStream
	subClient *transport.Client // connection carrying the active run
	subBase   int               // global position of the active run's chunk 0
	node      string            // node serving the active run
	closed    bool

	// Receive-side bookkeeping (single consumer; guarded by mu where the
	// steering methods read it).
	pos      int   // next position whose completion hasn't been seen
	received int64 // bytes held for pos at curLevel
	curLevel int
	haveCur  bool // curLevel valid (a frame for pos has arrived)

	failed map[int]map[string]bool // position → nodes that failed serving it
}

// Recv implements transport.ChunkStream.
func (s *poolStream) Recv(ctx context.Context) (transport.StreamFrame, error) {
	for {
		if err := ctx.Err(); err != nil {
			return transport.StreamFrame{}, err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return transport.StreamFrame{}, fmt.Errorf("cluster: stream closed")
		}
		if s.pos >= len(s.req.Chunks) {
			s.mu.Unlock()
			return transport.StreamFrame{}, io.EOF
		}
		sub := s.sub
		base := s.subBase
		s.mu.Unlock()

		if sub == nil {
			var err error
			sub, base, err = s.openRun(ctx)
			if err != nil {
				return transport.StreamFrame{}, err
			}
		}

		f, err := sub.Recv(ctx)
		switch {
		case err == nil:
			f.Pos += base
			if keep := s.account(f); keep {
				return f, nil
			}
			// A stale frame from before a splice (shouldn't happen with
			// in-order runs, but cheap to be safe): skip it.
			continue
		case err == io.EOF:
			// Run complete: splice to the next run (or finish). Only the bare
			// io.EOF of ChunkStream's contract: a connection lost on a frame
			// boundary wraps one, and that run died.
			sub.Close()
			s.mu.Lock()
			if s.sub == sub {
				s.sub = nil
				s.subClient = nil
			}
			done := s.pos >= len(s.req.Chunks)
			s.mu.Unlock()
			if done {
				return transport.StreamFrame{}, io.EOF
			}
		default:
			// The run died. The caller's cancellation is final; anything
			// else fails over to a replica, resuming mid-chunk.
			sub.Close()
			s.mu.Lock()
			node := s.node
			subClient := s.subClient
			if s.sub == sub {
				s.sub = nil
				s.subClient = nil
			}
			closed := s.closed
			pos := s.pos
			s.mu.Unlock()
			if ctx.Err() != nil || closed {
				return transport.StreamFrame{}, err
			}
			// Same convention as tryNodes: a dead or misbehaving transport
			// must not stay cached, or the next operation routed to this
			// node burns an attempt on a known-dead socket.
			if subClient != nil && !keepConn(err) {
				s.p.discard(node, subClient)
				s.p.res.ReportFailure(node)
			}
			s.markFailed(pos, node)
			// A clean not-found is usually a mid-run level switch landing
			// on a node that never held the new level's payload (runs are
			// grouped by the hashes at open time): reopening re-routes by
			// the new hash, and the node is healthy — don't report it as a
			// failover. The markFailed above still bounds the retry loop:
			// a payload missing fleet-wide exhausts every candidate.
			if !errors.Is(err, storage.ErrNotFound) {
				s.p.failovers.Add(1)
			}
			if s.exhausted(pos) {
				return transport.StreamFrame{}, fmt.Errorf("cluster: chunk stream position %d failed on all replicas: %w", pos, err)
			}
		}
	}
}

// account folds one frame into the resume bookkeeping. It reports false
// for frames that precede the current position (already completed).
func (s *poolStream) account(f transport.StreamFrame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.Pos < s.pos {
		return false
	}
	if f.Pos > s.pos {
		// The run advanced (the splice saw Last for the previous chunk);
		// start fresh bookkeeping for the new position.
		s.pos = f.Pos
	}
	s.curLevel = f.Level
	s.haveCur = true
	// Offset 0 (a chunk start or a cancel restart) and a seamless
	// continuation both reduce to the same bookkeeping: the bytes held
	// are whatever this frame extends to.
	s.received = f.Offset + int64(len(f.Data))
	if f.Last {
		s.pos = f.Pos + 1
		s.received = 0
		s.haveCur = false
	}
	return true
}

// chunkLevelLocked resolves the level a not-yet-started chunk would be
// delivered at.
func (s *poolStream) chunkLevelLocked(pos int) int {
	if lv, ok := s.override[pos]; ok {
		return lv
	}
	return s.level
}

// resumeLocked resolves how the chunk at pos restarts: at its delivered
// level from the bytes already held when it is mid-chunk and no cancel
// re-pinned it to another level, otherwise fresh at its resolved level.
// The restart level's payload hash is what routes the chunk, so openRun
// and exhausted both key on it.
func (s *poolStream) resumeLocked(pos int) (level int, offset int64) {
	if s.received > 0 && s.haveCur {
		if lv, ok := s.override[pos]; !ok || lv == s.curLevel {
			return s.curLevel, s.received
		}
	}
	return s.chunkLevelLocked(pos), 0
}

// openRun groups the longest feasible run of remaining chunks onto one
// node and opens its stream, resuming the first chunk mid-payload when
// bytes are already held. Candidates are the first chunk's routable
// nodes in health order, minus those that already failed serving this
// position; a failed dial or open marks its node and moves to the next.
// None left fails fast, as tryNodes does: a dead node is never dialed.
func (s *poolStream) openRun(ctx context.Context) (transport.ChunkStream, int, error) {
	for {
		s.mu.Lock()
		start := s.pos
		firstLevel, resume := s.resumeLocked(start)
		failed := s.failed[start]
		streamLevel := s.level
		s.mu.Unlock()

		firstHash, ok := s.req.Chunks[start].Hashes[firstLevel]
		if !ok {
			return nil, 0, fmt.Errorf("cluster: chunk %d has no payload at level %d", start, firstLevel)
		}
		var node string
		for _, n := range s.p.res.Order(s.p.ring.ChunkNodes(firstHash)) {
			if !failed[n] {
				node = n
				break
			}
		}
		if node == "" {
			s.p.res.OnFastFail()
			return nil, 0, fmt.Errorf("cluster: chunk stream position %d: %w", start, ErrFleetUnavailable)
		}

		chunks := s.runChunks(start, node, firstLevel, resume)
		client, err := s.p.client(ctx, node)
		if err == nil {
			var sub transport.ChunkStream
			sub, err = client.OpenChunkStream(ctx, transport.StreamRequest{
				Chunks:    chunks,
				Level:     streamLevel,
				Window:    s.req.Window,
				FrameSize: s.req.FrameSize,
			})
			if err == nil {
				return s.install(sub, client, start, node)
			}
			s.p.discard(node, client)
			if ctx.Err() == nil {
				s.p.res.ReportFailure(node)
			}
		}
		s.markFailed(start, node)
		if ctx.Err() != nil || s.exhausted(start) {
			return nil, 0, fmt.Errorf("cluster: opening chunk stream on %s: %w", node, err)
		}
	}
}

// runChunks builds the sub-request for the run starting at start on
// node: the longest prefix of remaining chunks whose would-be-level
// payloads node holds. The first chunk pins its level and resume
// offset; later chunks inherit the stream level so a forwarded Switch
// still applies to them. Cancel pins ride along per chunk.
func (s *poolStream) runChunks(start int, node string, firstLevel int, resume int64) []transport.StreamChunk {
	s.mu.Lock()
	defer s.mu.Unlock()
	end := start + 1
	for ; end < len(s.req.Chunks); end++ {
		hash, ok := s.req.Chunks[end].Hashes[s.chunkLevelLocked(end)]
		if !ok || !slices.Contains(s.p.ring.ChunkNodes(hash), node) {
			break
		}
	}
	chunks := make([]transport.StreamChunk, end-start)
	for i := range chunks {
		ch := s.req.Chunks[start+i]
		ch.Offset = 0
		ch.Level = nil
		if lv, ok := s.override[start+i]; ok {
			pin := lv
			ch.Level = &pin
		}
		chunks[i] = ch
	}
	chunks[0].Level = &firstLevel
	chunks[0].Offset = resume
	return chunks
}

// install makes sub the active run, unless Close raced the open.
func (s *poolStream) install(sub transport.ChunkStream, client *transport.Client, start int, node string) (transport.ChunkStream, int, error) {
	s.mu.Lock()
	if s.closed {
		// Close raced the open (it saw no sub to tear down); this sub
		// must not outlive the stream, or the server pushes a credit
		// window of frames to nobody and parks its pusher forever.
		s.mu.Unlock()
		sub.Close()
		return nil, 0, fmt.Errorf("cluster: stream closed")
	}
	s.sub = sub
	s.subClient = client
	s.subBase = start
	s.node = node
	s.mu.Unlock()
	return sub, start, nil
}

func (s *poolStream) markFailed(pos int, node string) {
	if node == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.failed[pos]
	if m == nil {
		m = map[string]bool{}
		s.failed[pos] = m
	}
	m[node] = true
}

// exhausted reports whether every node that could serve pos — the
// replica set of the payload openRun would route it by — has failed.
func (s *poolStream) exhausted(pos int) bool {
	s.mu.Lock()
	level, _ := s.resumeLocked(pos)
	failed := s.failed[pos]
	s.mu.Unlock()
	hash, ok := s.req.Chunks[pos].Hashes[level]
	if !ok {
		return true
	}
	for _, n := range s.p.ring.ChunkNodes(hash) {
		if !failed[n] {
			return false
		}
	}
	return true
}

// Switch implements transport.ChunkStream: chunks not yet started are
// re-leveled, on the active run and in how future runs are routed.
func (s *poolStream) Switch(level int) error {
	s.mu.Lock()
	s.level = level
	sub := s.sub
	s.mu.Unlock()
	if sub != nil {
		return sub.Switch(level)
	}
	return nil
}

// Cancel implements transport.ChunkStream: the chunk at pos restarts at
// the given level — forwarded to the active run when it covers pos, and
// pinned so a failover or later run delivers it at that level.
func (s *poolStream) Cancel(pos, level int) error {
	s.mu.Lock()
	if pos < s.pos || pos >= len(s.req.Chunks) {
		s.mu.Unlock()
		return nil
	}
	s.override[pos] = level
	sub := s.sub
	base := s.subBase
	s.mu.Unlock()
	if sub != nil && pos >= base {
		return sub.Cancel(pos-base, level)
	}
	return nil
}

// Close implements transport.ChunkStream.
func (s *poolStream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sub := s.sub
	s.sub = nil
	s.subClient = nil
	s.mu.Unlock()
	if sub != nil {
		return sub.Close()
	}
	return nil
}
