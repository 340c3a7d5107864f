package main

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Wrapper spans around the stack's injectable boundaries, recorded from
// the benchmark's side only (spans inside the program are a later
// issue). They are installed in traced runs alone; the end-to-end
// numbers come from a run without them. Every span lands in the same
// telemetry.Tracer the gateway records its request trees into, so one
// snapshot holds the whole run.

// Span names the trace analysis looks for.
const (
	spanClusterManifest = "cluster.get_manifest"
	spanClusterChunk    = "cluster.get_chunk"
	spanClusterStream   = "cluster.stream"
	spanStoreGetChunk   = "storage.get_chunk"
	spanStorePutChunk   = "storage.put_chunk"
	spanStoreGetMan     = "storage.get_manifest"
	spanStorePutMan     = "storage.put_manifest"
	spanStoreSweep      = "storage.sweep"
)

// tracedStore times the calls a node's server (and the publisher's
// ShardedStore) make into the node's store. A store call is on the far
// side of the wire from the request that caused it, so each is a root
// span of its own rather than a child of a request.
type tracedStore struct {
	storage.Store
	tracer *telemetry.Tracer
}

func (s *tracedStore) GetChunk(ctx context.Context, hash string) ([]byte, error) {
	_, sp := s.tracer.StartRequest(ctx, spanStoreGetChunk)
	defer sp.End()
	return s.Store.GetChunk(ctx, hash)
}

func (s *tracedStore) PutChunk(ctx context.Context, hash string, data []byte) error {
	_, sp := s.tracer.StartRequest(ctx, spanStorePutChunk)
	defer sp.End()
	return s.Store.PutChunk(ctx, hash, data)
}

func (s *tracedStore) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	_, sp := s.tracer.StartRequest(ctx, spanStoreGetMan)
	defer sp.End()
	return s.Store.GetManifest(ctx, id)
}

func (s *tracedStore) PutManifest(ctx context.Context, m storage.Manifest) error {
	_, sp := s.tracer.StartRequest(ctx, spanStorePutMan)
	defer sp.End()
	return s.Store.PutManifest(ctx, m)
}

func (s *tracedStore) Sweep(ctx context.Context, minAge time.Duration) (storage.SweepResult, error) {
	_, sp := s.tracer.StartRequest(ctx, spanStoreSweep)
	res, err := s.Store.Sweep(ctx, minAge)
	sp.SetAttr("reclaimed_bytes", res.ReclaimedBytes)
	sp.End()
	return res, err
}

// tracedSource wraps the Pool a gateway fetches through: each call is a
// child span of whatever request span rides in ctx (the gateway's
// "fetch" span).
type tracedSource struct {
	pool *cluster.Pool
}

func (s tracedSource) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	_, sp := telemetry.Start(ctx, spanClusterManifest)
	defer sp.End()
	return s.pool.GetManifest(ctx, id)
}

func (s tracedSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	_, sp := telemetry.Start(ctx, spanClusterChunk)
	defer sp.End()
	return s.pool.GetChunkData(ctx, hash)
}

func (s tracedSource) OpenChunkStream(ctx context.Context, req transport.StreamRequest) (transport.ChunkStream, error) {
	_, sp := telemetry.Start(ctx, spanClusterStream)
	st, err := s.pool.OpenChunkStream(ctx, req)
	if err != nil {
		sp.End()
		return nil, err
	}
	return &tracedStream{ChunkStream: st, span: sp}, nil
}

// tracedStream closes the "cluster.stream" span when the fetcher closes
// the stream, annotated with how many frames and bytes it carried.
type tracedStream struct {
	transport.ChunkStream
	span   *telemetry.Span
	frames int
	bytes  int64
}

func (s *tracedStream) Recv(ctx context.Context) (transport.StreamFrame, error) {
	f, err := s.ChunkStream.Recv(ctx)
	if err == nil {
		s.frames++
		s.bytes += int64(len(f.Data))
	}
	return f, err
}

func (s *tracedStream) Close() error {
	err := s.ChunkStream.Close()
	s.span.SetAttr("frames", s.frames)
	s.span.SetAttr("bytes", s.bytes)
	s.span.End()
	return err
}
