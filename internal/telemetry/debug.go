package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Version identifies this build of the reproduction (reported by the
// binaries' -version flags).
const Version = "0.2.0"

// NewDebugMux mounts the exposition surface:
//
//	/debug/metrics      Prometheus text format
//	/debug/dash         plain-text human dashboard
//	/debug/trace        Chrome trace_event JSON (open in Perfetto)
//	/debug/trace.jsonl  the same records as JSON-lines
//	/debug/pprof/       the standard Go profiler endpoints
//
// Either argument may be nil; its endpoints then serve empty documents.
func NewDebugMux(reg *Registry, tr *Tracer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "cachegen telemetry — endpoints:")
		for _, p := range []string{"/debug/metrics", "/debug/dash", "/debug/trace", "/debug/trace.jsonl", "/debug/pprof/"} {
			fmt.Fprintln(w, "  "+p)
		}
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/dash", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.WriteDashboard(w)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteTraceEvents(w)
	})
	mux.HandleFunc("/debug/trace.jsonl", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl")
		_ = tr.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// DebugServer is a running /debug exposition listener.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug listens on addr (e.g. ":9321" or "127.0.0.1:0") and serves
// the debug mux in the background. The caller logs Addr() so a curl or
// scraper can find an ephemeral port.
func ServeDebug(addr string, reg *Registry, tr *Tracer) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg, tr), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &DebugServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the listener and server.
func (d *DebugServer) Close() error { return d.srv.Close() }
