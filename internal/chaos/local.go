package chaos

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/transport"
)

// LocalFleet is a ready-made Target over in-process transport servers —
// the one launcher of every local ring the harness and the CLIs run.
// Launch builds each node the same way: its base store behind a
// storage.LatencyStore (the slow-disk shim, a passthrough at zero
// latency), a storage.CachingStore RAM tier over that when it has a
// budget, and a transport.Server over the result, listening on a fixed
// address. The fleet keeps that record, so Restart brings a killed node
// back in place serving the same store with the same options. The
// production fault hooks do all the work: nothing here forks server or
// store code paths.
type LocalFleet struct {
	// OnHeal, when set, is called after a restart or partition heal —
	// the hook for cluster.Pool.Invalidate, so clients retry the node
	// immediately instead of sitting out the dial backoff.
	OnHeal func(node string)

	mu    sync.Mutex
	addrs []string
	nodes map[string]*localNode
}

// LocalNode is one launched node as its caller sees it.
type LocalNode struct {
	Addr string
	// Store is what the node serves: Cache when it has a RAM tier, else
	// the slow-disk shim over its base store.
	Store storage.Store
	Cache *storage.CachingStore // nil without a RAM tier
}

// localNode is the fleet's record of one node: everything Restart
// rebuilds its server from, and the server now running.
type localNode struct {
	LocalNode
	disk *storage.LatencyStore
	opts []transport.ServerOption
	srv  *transport.Server
}

// Launch starts one node on addr ("127.0.0.1:0" for an ephemeral port)
// over base, with a RAM tier of cacheBytes when that is above zero, and
// serves it with opts. It returns the node with its bound address.
func (f *LocalFleet) Launch(addr string, base storage.Store, cacheBytes int64, opts ...transport.ServerOption) (LocalNode, error) {
	n := &localNode{disk: storage.NewLatencyStore(base), opts: slices.Clone(opts)}
	n.Store = n.disk
	if cacheBytes > 0 {
		n.Cache = storage.NewCachingStore(n.disk, cacheBytes)
		n.Store = n.Cache
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return LocalNode{}, err
	}
	n.Addr = ln.Addr().String()
	n.srv = n.serve(ln)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nodes == nil {
		f.nodes = map[string]*localNode{}
	}
	if _, dup := f.nodes[n.Addr]; !dup {
		f.addrs = append(f.addrs, n.Addr)
	}
	f.nodes[n.Addr] = n
	return n.LocalNode, nil
}

// serve builds a server from the node's record and serves it on ln.
func (n *localNode) serve(ln net.Listener) *transport.Server {
	srv := transport.NewServer(n.Store, n.opts...)
	go srv.Serve(ln) //nolint:errcheck // returns on Close
	return srv
}

// Close stops every node's server.
func (f *LocalFleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, n := range f.nodes {
		n.srv.Close()
	}
}

// Node returns a launched node (the zero LocalNode for unknown ones).
func (f *LocalFleet) Node(addr string) LocalNode {
	n, err := f.node(addr)
	if err != nil {
		return LocalNode{}
	}
	return n.LocalNode
}

// CacheStats sums the RAM tiers of every node that has one.
func (f *LocalFleet) CacheStats() storage.CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	var agg storage.CacheStats
	for _, n := range f.nodes {
		if n.Cache != nil {
			agg.Add(n.Cache.Stats())
		}
	}
	return agg
}

func (f *LocalFleet) node(addr string) (*localNode, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown node %s", addr)
	}
	return n, nil
}

func (f *LocalFleet) server(node string) (*transport.Server, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nodes[node]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown node %s", node)
	}
	return n.srv, nil
}

// Nodes implements Target.
func (f *LocalFleet) Nodes() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.addrs...)
}

// Kill implements Target: the node's server goes away mid-stream,
// severing its live connections.
func (f *LocalFleet) Kill(node string) error {
	srv, err := f.server(node)
	if err != nil {
		return err
	}
	return srv.Close()
}

// Restart implements Target: a fresh server on the same address, built
// from the node's record — the same store, the same options.
func (f *LocalFleet) Restart(node string) error {
	n, err := f.node(node)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", node)
	if err != nil {
		return fmt.Errorf("chaos: relistening on %s: %w", node, err)
	}
	srv := n.serve(ln)
	f.mu.Lock()
	n.srv = srv
	f.mu.Unlock()
	if f.OnHeal != nil {
		f.OnHeal(node)
	}
	return nil
}

// SetPartitioned implements Target.
func (f *LocalFleet) SetPartitioned(node string, on bool) error {
	srv, err := f.server(node)
	if err != nil {
		return err
	}
	srv.SetPartitioned(on)
	if !on && f.OnHeal != nil {
		f.OnHeal(node)
	}
	return nil
}

// SetDiskLatency implements Target.
func (f *LocalFleet) SetDiskLatency(node string, d time.Duration) error {
	n, err := f.node(node)
	if err != nil {
		return err
	}
	n.disk.SetLatency(d, d)
	return nil
}

// SetEgressTrace implements Target.
func (f *LocalFleet) SetEgressTrace(node string, tr netsim.Trace) error {
	srv, err := f.server(node)
	if err != nil {
		return err
	}
	srv.SetEgressTrace(tr)
	return nil
}

// SetCorruption implements Target.
func (f *LocalFleet) SetCorruption(node string, rate float64, seed int64) error {
	srv, err := f.server(node)
	if err != nil {
		return err
	}
	srv.SetCorruption(rate, seed)
	return nil
}

// CorruptionInjected implements Target.
func (f *LocalFleet) CorruptionInjected(node string) uint64 {
	srv, err := f.server(node)
	if err != nil {
		return 0
	}
	return srv.CorruptionInjected()
}

// SetFlaky implements FlakyTarget.
func (f *LocalFleet) SetFlaky(node string, rate float64, delay time.Duration, errFrac float64, seed int64) error {
	srv, err := f.server(node)
	if err != nil {
		return err
	}
	srv.SetFlaky(rate, delay, errFrac, seed)
	return nil
}

// FlakyInjected implements FlakyTarget.
func (f *LocalFleet) FlakyInjected(node string) uint64 {
	srv, err := f.server(node)
	if err != nil {
		return 0
	}
	return srv.FlakyInjected()
}

var (
	_ Target      = (*LocalFleet)(nil)
	_ FlakyTarget = (*LocalFleet)(nil)
)
