package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// seededStore builds a MemStore holding one two-chunk context: payloads
// at two levels plus text, addressed by hash through a manifest.
func seededStore(t *testing.T) storage.Store {
	t.Helper()
	s := storage.NewMemStore()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	man := storage.Manifest{
		Meta: storage.ContextMeta{
			ContextID:   "doc-1",
			Model:       "Mistral-7B",
			TokenCount:  300,
			ChunkTokens: []int{150, 150},
			Levels:      2,
			SizesBytes:  [][]int64{{1000, 1000}, {600, 600}},
			TextBytes:   []int64{6, 6},
		},
		Hashes: map[int][]string{},
	}
	for _, lv := range []int{0, 1, storage.TextLevel} {
		row := make([]string, 2)
		for c := 0; c < 2; c++ {
			var data []byte
			if lv == storage.TextLevel {
				data = []byte(fmt.Sprintf("text-%d", c))
			} else {
				data = make([]byte, 1000-400*lv)
				rng.Read(data)
			}
			h := storage.HashChunk(data)
			if err := s.PutChunk(ctx, h, data); err != nil {
				t.Fatal(err)
			}
			row[c] = h
		}
		man.Hashes[lv] = row
	}
	if err := s.PutManifest(ctx, man); err != nil {
		t.Fatal(err)
	}
	return s
}

// pipeClient starts a server over net.Pipe and returns a connected client.
func pipeClient(t *testing.T, store storage.Store, opts ...ServerOption) *Client {
	t.Helper()
	srv := NewServer(store, opts...)
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	t.Cleanup(func() { srv.Close() })
	client := NewClient(cConn)
	t.Cleanup(func() { client.Close() })
	return client
}

func TestGetManifestOverPipe(t *testing.T) {
	client := pipeClient(t, seededStore(t))
	man, err := client.GetManifest(context.Background(), "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta.ContextID != "doc-1" || man.Meta.NumChunks() != 2 || man.Meta.Levels != 2 {
		t.Errorf("manifest meta = %+v", man.Meta)
	}
	if len(man.Hashes[0]) != 2 || len(man.Hashes[storage.TextLevel]) != 2 {
		t.Errorf("manifest hashes = %+v", man.Hashes)
	}
	// GetMeta convenience wrapper.
	meta, err := client.GetMeta(context.Background(), "doc-1")
	if err != nil || meta.TokenCount != 300 {
		t.Errorf("GetMeta = %+v, %v", meta, err)
	}
}

func TestGetChunkDataOverPipe(t *testing.T) {
	store := seededStore(t)
	client := pipeClient(t, store)
	ctx := context.Background()

	man, err := store.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := man.ChunkHash(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.GetChunk(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.GetChunkData(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("chunk payload mismatch")
	}

	// Text pseudo-level, by its manifest hash.
	textHash, err := man.ChunkHash(storage.TextLevel, 0)
	if err != nil {
		t.Fatal(err)
	}
	text, err := client.GetChunkData(ctx, textHash)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != "text-0" {
		t.Errorf("text chunk = %q", text)
	}
}

func TestNotFoundPropagates(t *testing.T) {
	client := pipeClient(t, seededStore(t))
	ctx := context.Background()
	if _, err := client.GetManifest(ctx, "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("GetManifest of missing context = %v, want ErrNotFound", err)
	}
	_, err := client.GetChunkData(ctx, storage.HashChunk([]byte("missing payload")))
	if !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("missing chunk error = %v, want ErrNotFound", err)
	}
}

func TestDeleteSweepUsageOverPipe(t *testing.T) {
	store := seededStore(t)
	client := pipeClient(t, store)
	ctx := context.Background()

	before, err := client.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if before.Manifests != 1 || before.Chunks != 6 {
		t.Fatalf("usage = %+v", before)
	}
	if err := client.DeleteContext(ctx, "doc-1"); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteContext(ctx, "doc-1"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("double delete = %v, want ErrNotFound", err)
	}
	// A graceful sweep keeps the young payloads; an immediate one reclaims
	// all six now-unreferenced payloads.
	res, err := client.Sweep(ctx, time.Hour)
	if err != nil || res.RemovedChunks != 0 {
		t.Fatalf("grace sweep = %+v, %v", res, err)
	}
	res, err = client.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedChunks != 6 || res.ReclaimedBytes != before.ChunkBytes {
		t.Errorf("sweep = %+v, want 6 chunks / %d bytes", res, before.ChunkBytes)
	}
	after, err := client.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Chunks != 0 || after.ChunkBytes != 0 || after.Manifests != 0 {
		t.Errorf("usage after sweep = %+v", after)
	}
}

func TestSequentialAndConcurrentRequests(t *testing.T) {
	store := seededStore(t)
	client := pipeClient(t, store)
	ctx := context.Background()
	man, err := store.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hash, err := man.ChunkHash(i%2, i%2)
			if err != nil {
				errs <- err
				return
			}
			if _, err := client.GetChunkData(ctx, hash); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestOverRealTCP(t *testing.T) {
	store := seededStore(t)
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() { srv.Close(); <-done })

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	man, err := client.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < man.Meta.NumChunks(); c++ {
		hash, err := man.ChunkHash(1, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.GetChunkData(ctx, hash); err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
	}
	if srv.Addr() == nil {
		t.Error("server address nil while serving")
	}
}

func TestContextDeadline(t *testing.T) {
	// A server that never responds: the client must honor the deadline.
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	client := NewClient(cConn)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.GetManifest(ctx, "doc-1")
	if err == nil {
		t.Fatal("GetManifest succeeded against a dead server")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("deadline not honored: took %v", elapsed)
	}
}

func TestCancelledContext(t *testing.T) {
	client := pipeClient(t, seededStore(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.GetManifest(ctx, "doc-1"); err == nil {
		t.Error("request with cancelled context succeeded")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	store := seededStore(t)
	srv := NewServer(store)
	cConn, sConn := net.Pipe()
	done := make(chan struct{})
	go func() { defer close(done); srv.HandleConn(sConn) }()
	defer srv.Close()

	// Write garbage; the server must drop the connection, not panic.
	cConn.SetDeadline(time.Now().Add(time.Second))
	cConn.Write([]byte("XXXXXXXXXXXXXXXXXX"))
	buf := make([]byte, 16)
	cConn.Read(buf) // either EOF or nothing
	cConn.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Error("server did not drop garbage connection")
	}
}

func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	big := make([]byte, 8)
	if err := writeFrame(&buf, typeReqManifest, big); err != nil {
		t.Fatal(err)
	}
	// Corrupt the length field to exceed the limit.
	data := buf.Bytes()
	data[3], data[4], data[5], data[6] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := readFrame(bytes.NewReader(data)); err == nil {
		t.Error("readFrame accepted oversized frame")
	}
}

func TestSweepReqCodec(t *testing.T) {
	for _, minAge := range []time.Duration{0, time.Second, 5 * time.Minute, 24 * time.Hour} {
		payload := encodeSweepReq(minAge)
		got, err := decodeSweepReq(payload)
		if err != nil || got != minAge {
			t.Errorf("round trip %v -> %v, %v", minAge, got, err)
		}
	}
	if _, err := decodeSweepReq(nil); err == nil {
		t.Error("decodeSweepReq accepted empty payload")
	}
	if _, err := decodeSweepReq(encodeSweepReq(-1)); err == nil {
		t.Error("decodeSweepReq accepted negative min-age")
	}
}

func TestShaperRate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()

	const bps = 8e6 // 1 MB/s
	shaped := NewShaper(cConn, netsim.Constant(bps))
	if shaped.Rate() != bps {
		t.Fatalf("Rate = %v", shaped.Rate())
	}

	const payload = 300_000 // 0.3 MB ⇒ ≈300 ms at 1 MB/s
	go func() {
		buf := make([]byte, 32<<10)
		var total int
		for total < payload {
			n, err := sConn.Read(buf)
			total += n
			if err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := shaped.Write(make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 200*time.Millisecond || elapsed > 800*time.Millisecond {
		t.Errorf("0.3 MB at 1 MB/s took %v, want ≈300ms", elapsed)
	}
}

func TestShaperUnlimited(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	shaped := NewShaper(cConn, nil)
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := sConn.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := shaped.Write(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("unlimited shaper throttled: %v", elapsed)
	}
}

func TestShaperSetRate(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	defer sConn.Close()
	shaped := NewShaper(cConn, netsim.Constant(1e6))
	shaped.SetTrace(netsim.Constant(5e8))
	if shaped.Rate() != 5e8 {
		t.Errorf("Rate after SetTrace = %v", shaped.Rate())
	}
	go func() {
		buf := make([]byte, 64<<10)
		for {
			if _, err := sConn.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := shaped.Write(make([]byte, 500_000)); err != nil { // 8ms at 62.5MB/s
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("SetTrace did not take effect: %v", elapsed)
	}
}

func TestServeAfterClose(t *testing.T) {
	srv := NewServer(storage.NewMemStore())
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := srv.Serve(ln); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close = %v", err)
	}
}

func TestGetBank(t *testing.T) {
	bank := []byte{1, 2, 3, 4, 5, 6}
	client := pipeClient(t, seededStore(t), WithBank(bank))
	got, err := client.GetBank(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bank) {
		t.Errorf("GetBank = %v", got)
	}

	// A server without a bank reports an error.
	noBank := pipeClient(t, seededStore(t))
	if _, err := noBank.GetBank(context.Background()); err == nil {
		t.Error("GetBank succeeded on a bank-less server")
	}
}

// TestServerManyConnections exercises the server with many concurrent
// client connections issuing interleaved manifest and chunk requests —
// the cluster Pool's access pattern, where several fetch goroutines hold
// one connection each to the same node.
func TestServerManyConnections(t *testing.T) {
	store := seededStore(t)
	srv := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	ctx := context.Background()
	man, err := store.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	hash, err := man.ChunkHash(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := store.GetChunk(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}

	const conns = 8
	const reqs = 25
	var wg sync.WaitGroup
	errCh := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(ln.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			for r := 0; r < reqs; r++ {
				if r%5 == 0 {
					man, err := client.GetManifest(ctx, "doc-1")
					if err != nil {
						errCh <- err
						return
					}
					if man.Meta.TokenCount != 300 {
						errCh <- errors.New("corrupt manifest under concurrency")
						return
					}
					continue
				}
				got, err := client.GetChunkData(ctx, hash)
				if err != nil {
					errCh <- err
					return
				}
				if !bytes.Equal(got, want) {
					errCh <- errors.New("corrupt chunk payload under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Close must tear down every connection. Issue one successful request
	// first so the server has definitely accepted and registered this
	// connection before Close runs.
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.GetManifest(ctx, "doc-1"); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	reqCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := client.GetManifest(reqCtx, "doc-1"); err == nil {
		t.Error("request succeeded after server Close")
	}
}
