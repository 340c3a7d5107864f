// Command cachegen-server serves encoded KV caches from a filesystem store
// over the CacheGen frame protocol — the storage-server side of get_kv
// (§6). An optional egress bandwidth trace (a fixed rate is a
// one-segment trace) emulates a constrained storage-to-GPU link so the
// client's adaptation logic has something to adapt to, and an
// optional RAM tier (-ram-cache-mb) serves the hot set without disk
// reads. SIGINT/SIGTERM shut the server down cleanly.
//
// Usage:
//
//	cachegen-server -dir ./kvstore -addr :9099 -bandwidth-trace 1Gbps -ram-cache-mb 64
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	dir := flag.String("dir", "./kvstore", "store directory (written by cachegen-encode)")
	addr := flag.String("addr", "127.0.0.1:9099", "listen address")
	bwTrace := flag.String("bandwidth-trace", "", "egress bandwidth trace as RATE[:DUR],... (e.g. 2Gbps:2s,0.2Gbps, or 1Gbps for a fixed rate), replayed per connection")
	ramMB := flag.Int("ram-cache-mb", 0, "RAM tier budget in MB fronting the file store (0 = disabled)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve /debug metrics+pprof exposition on this address (e.g. :9100; empty = disabled)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("cachegen-server: ")
	if *version {
		fmt.Println("cachegen-server " + telemetry.Version)
		return
	}

	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
	}

	var store storage.Store
	store, err := storage.NewFileStore(*dir)
	if err != nil {
		log.Fatal(err)
	}
	var cache *storage.CachingStore
	if *ramMB > 0 {
		cache = storage.NewCachingStore(store, int64(*ramMB)<<20)
		cache.Register(reg)
		store = cache
		log.Printf("RAM tier enabled: %d MB", *ramMB)
	}
	opts := []transport.ServerOption{transport.WithTelemetry(reg)}
	if *bwTrace != "" {
		tr, err := netsim.ParseTrace(*bwTrace)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, transport.WithEgressTrace(tr))
		log.Printf("replaying egress bandwidth trace %q per connection", *bwTrace)
	}
	if bank, err := os.ReadFile(filepath.Join(*dir, "bank.bin")); err == nil {
		opts = append(opts, transport.WithBank(bank))
		log.Printf("serving model bank (%.1f MB)", float64(len(bank))/1e6)
	} else {
		log.Printf("no bank.bin in %s; clients must bring their own codec", *dir)
	}

	srv := transport.NewServer(store, opts...)
	if *telemetryAddr != "" {
		dbg, err := telemetry.ServeDebug(*telemetryAddr, reg, nil)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("telemetry exposition on http://%s/debug/metrics", dbg.Addr())
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v, shutting down", sig)
		srv.Close()
	}()

	log.Printf("listening on %s, store %s", *addr, *dir)
	err = srv.ListenAndServe(*addr)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	if cache != nil {
		st := cache.Stats()
		log.Printf("RAM tier: %d hits, %d misses (%.0f%% hit rate), %d evictions, %.1f MB resident",
			st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, float64(st.Bytes)/1e6)
	}
	log.Printf("bye")
}
