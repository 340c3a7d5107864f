package chaos

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/transport"
)

// TestLocalFleetKillRestart drives a one-node LocalFleet through the
// full kill/restart cycle over real TCP. The node is launched with a RAM
// tier and a bank option; the restart rebuilds it from the fleet's own
// record, so the fresh server on the same address serves the chunks put
// before the kill, through the same RAM tier, with the same bank — and
// OnHeal fires so a pool could clear its backoff.
func TestLocalFleetKillRestart(t *testing.T) {
	ctx := context.Background()
	bank := []byte("serialised-codec-bank")
	healed := make(chan string, 1)
	fl := &LocalFleet{OnHeal: func(node string) { healed <- node }}
	defer fl.Close()
	node, err := fl.Launch("127.0.0.1:0", storage.NewMemStore(), 1<<20, transport.WithBank(bank))
	if err != nil {
		t.Fatal(err)
	}
	addr := node.Addr
	if nodes := fl.Nodes(); len(nodes) != 1 || nodes[0] != addr {
		t.Fatalf("Nodes() = %v, want [%s]", nodes, addr)
	}
	if node.Cache == nil || node.Store != storage.Store(node.Cache) || fl.Node(addr) != node {
		t.Fatalf("launched node %+v does not serve its RAM tier", node)
	}
	hot, cold := []byte("kv-chunk-payload"), []byte("kv-chunk-never-read")
	for _, p := range [][]byte{hot, cold} {
		if err := node.Store.PutChunk(ctx, storage.HashChunk(p), p); err != nil {
			t.Fatal(err)
		}
	}

	fetch := func(payload []byte) error {
		c, err := transport.Dial(addr)
		if err != nil {
			return err
		}
		defer c.Close()
		got, err := c.GetChunkData(ctx, storage.HashChunk(payload))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("fetched payload differs")
		}
		gotBank, err := c.GetBank(ctx)
		if err != nil {
			return err
		}
		if !bytes.Equal(gotBank, bank) {
			t.Fatalf("served bank %q, want %q", gotBank, bank)
		}
		return nil
	}
	if err := fetch(hot); err != nil {
		t.Fatalf("fetch before kill: %v", err)
	}

	if err := fl.Kill(addr); err != nil {
		t.Fatal(err)
	}
	if err := fetch(hot); err == nil {
		t.Fatal("fetch succeeded against a killed node")
	}

	if err := fl.Restart(addr); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-healed:
		if n != addr {
			t.Fatalf("OnHeal(%s), want %s", n, addr)
		}
	default:
		t.Fatal("Restart did not call OnHeal")
	}
	if err := fetch(hot); err != nil {
		t.Fatalf("fetch after restart: %v", err)
	}
	if st := fl.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("RAM tier %+v, want the restarted node's read to hit the pre-kill entry", st)
	}

	// The disk shim stays the live fault hook across the restart.
	if err := fl.SetDiskLatency(addr, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	if err := fetch(cold); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d < 20*time.Millisecond {
		t.Fatalf("slow-disk fetch took %v, want >= 20ms", d)
	}
}

// TestLocalFleetErrors: unknown nodes are reported, and restarting a node
// that still serves fails rather than running two servers.
func TestLocalFleetErrors(t *testing.T) {
	fl := &LocalFleet{}
	for _, err := range []error{
		fl.Kill("ghost"),
		fl.Restart("ghost"),
		fl.SetPartitioned("ghost", true),
		fl.SetDiskLatency("ghost", time.Millisecond),
		fl.SetCorruption("ghost", 0.5, 1),
	} {
		if err == nil {
			t.Fatal("unknown node accepted")
		}
	}
	if fl.Node("ghost") != (LocalNode{}) {
		t.Fatal("unknown node returned a record")
	}

	node, err := fl.Launch("127.0.0.1:0", storage.NewMemStore(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if node.Cache != nil {
		t.Fatal("RAM tier built without a budget")
	}
	if err := fl.Restart(node.Addr); err == nil {
		t.Fatal("restart of a live node accepted")
	}
}
