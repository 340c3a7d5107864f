package transport

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/netsim"
)

// TestServerCorruption checks the wire-corruption fault: with rate 1 the
// served payload differs from the stored bytes (in exactly one byte),
// the store itself stays intact, the injection counter advances, and
// healing (rate 0) restores clean serving.
func TestServerCorruption(t *testing.T) {
	store := seededStore(t)
	srv := NewServer(store)
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	t.Cleanup(func() { srv.Close() })
	client := NewClient(cConn)
	t.Cleanup(func() { client.Close() })

	ctx := context.Background()
	man, err := client.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	hash := man.Hashes[0][0]
	clean, err := store.GetChunk(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}

	srv.SetCorruption(1, 42)
	got, err := client.GetChunkData(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, clean) {
		t.Fatal("corruption rate 1 served clean bytes")
	}
	diff := 0
	for i := range got {
		if got[i] != clean[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bytes, want exactly 1", diff)
	}
	if n := srv.CorruptionInjected(); n != 1 {
		t.Fatalf("CorruptionInjected = %d, want 1", n)
	}
	if stored, _ := store.GetChunk(ctx, hash); !bytes.Equal(stored, clean) {
		t.Fatal("corruption mutated the store's bytes")
	}

	srv.SetCorruption(0, 0)
	got, err = client.GetChunkData(ctx, hash)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, clean) {
		t.Fatal("healed server still serving corrupt bytes")
	}
	if n := srv.CorruptionInjected(); n != 1 {
		t.Fatalf("CorruptionInjected after heal = %d, want 1", n)
	}
}

// TestServerCorruptionDeterministic: the same seed produces the same
// corruption decisions, so a chaos run replays bit-for-bit.
func TestServerCorruptionDeterministic(t *testing.T) {
	store := seededStore(t)
	ctx := context.Background()
	man, err := store.GetManifest(ctx, "doc-1")
	if err != nil {
		t.Fatal(err)
	}
	serve := func() []byte {
		srv := NewServer(store)
		srv.SetCorruption(0.5, 7)
		var out []byte
		for i := 0; i < 8; i++ {
			data, err := store.GetChunk(ctx, man.Hashes[0][0])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, srv.maybeCorrupt(data)...)
		}
		return out
	}
	if !bytes.Equal(serve(), serve()) {
		t.Fatal("same seed produced different corruption patterns")
	}
}

// TestServerPartition: a partition severs live connections and rejects
// new ones; healing lets fresh connections through again.
func TestServerPartition(t *testing.T) {
	srv := NewServer(seededStore(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	addr := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetManifest(ctx, "doc-1"); err != nil {
		t.Fatalf("pre-partition request: %v", err)
	}

	srv.SetPartitioned(true)
	if _, err := client.GetManifest(ctx, "doc-1"); err == nil {
		t.Fatal("request over a severed connection succeeded")
	}
	client.Close()
	if c2, err := Dial(addr); err == nil {
		if _, err := c2.GetManifest(ctx, "doc-1"); err == nil {
			t.Fatal("request through a partition succeeded")
		}
		c2.Close()
	}

	srv.SetPartitioned(false)
	c3, err := Dial(addr)
	if err != nil {
		t.Fatalf("post-heal dial: %v", err)
	}
	defer c3.Close()
	if _, err := c3.GetManifest(ctx, "doc-1"); err != nil {
		t.Fatalf("post-heal request: %v", err)
	}
}

// TestServerDynamicEgress: SetEgressRate/SetEgressTrace re-shape live
// connections, and a nil overlay reverts to the configured rate.
func TestServerDynamicEgress(t *testing.T) {
	srv := NewServer(seededStore(t), WithEgressTrace(netsim.Constant(8e6)))
	sh := liveShaper(t, srv)
	if got := sh.Rate(); got != 8e6 {
		t.Fatalf("initial shaper rate = %v, want 8e6", got)
	}

	srv.SetEgressRate(2e6)
	if got := sh.Rate(); got != 2e6 {
		t.Fatalf("after SetEgressRate shaper rate = %v, want 2e6", got)
	}
	srv.SetEgressTrace(netsim.Constant(5e5))
	if got := sh.Rate(); got != 5e5 {
		t.Fatalf("after SetEgressTrace shaper rate = %v, want 5e5", got)
	}
	srv.SetEgressTrace(nil)
	if got := sh.Rate(); got != 2e6 {
		t.Fatalf("after clearing trace shaper rate = %v, want 2e6", got)
	}
}

// TestServerEgressHealRestoresTrace: a healed bandwidth cliff returns a
// server configured with an egress trace to that trace — on the
// connection the cliff hit and on one accepted after the heal — instead
// of leaving both unshaped.
func TestServerEgressHealRestoresTrace(t *testing.T) {
	srv := NewServer(seededStore(t), WithEgressTrace(netsim.Constant(3e6)))
	live := liveShaper(t, srv)
	srv.SetEgressTrace(netsim.Constant(5e4))
	if got := live.Rate(); got != 5e4 {
		t.Fatalf("during the cliff live shaper rate = %v, want 5e4", got)
	}
	srv.SetEgressTrace(nil)
	if got := live.Rate(); got != 3e6 {
		t.Errorf("after the heal live shaper rate = %v, want 3e6", got)
	}
	if got := liveShaper(t, srv).Rate(); got != 3e6 {
		t.Errorf("connection accepted after the heal runs at %v, want 3e6", got)
	}
}

// liveShaper connects a fresh client to srv and returns the shaper the
// server registered for that connection.
func liveShaper(t *testing.T, srv *Server) *Shaper {
	t.Helper()
	cConn, sConn := net.Pipe()
	go srv.HandleConn(sConn)
	t.Cleanup(func() { srv.Close() })
	client := NewClient(cConn)
	t.Cleanup(func() { client.Close() })

	// The handler registers its shaper before reading frames; one
	// round-trip guarantees registration has happened.
	if _, err := client.GetManifest(context.Background(), "doc-1"); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	sh := srv.shapers[sConn]
	if sh == nil {
		t.Fatal("no shaper registered for live connection")
	}
	return sh
}
