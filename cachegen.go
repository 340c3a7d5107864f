// Package cachegen is the public API of the CacheGen reproduction: fast
// context loading for LLM serving by compressing KV caches into compact
// bitstreams and streaming them with per-chunk quality adaptation
// (Liu et al., "CacheGen: KV Cache Compression and Streaming for Fast
// Large Language Model Serving", SIGCOMM 2024).
//
// The typical flow mirrors the paper's interfaces (§6):
//
//	model := cachegen.MustNewModel(cachegen.Mistral7B())
//	codec, _ := cachegen.TrainCodec(cachegen.DefaultCodecConfig(), model, trainingContexts)
//	// Offline, once per context (store_kv):
//	cachegen.Publish(ctx, store, codec, model, "doc-1", tokens)
//	// Online, per request (get_kv + generate_with_kv):
//	kv, report, _ := fetcher.Fetch(ctx, "doc-1")
//	answer, _ := model.GenerateWithKV(tokens, kv, prompt, cachegen.DefaultQualityParams())
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable surface a downstream application needs: the
// simulated LLM substrate, the codec, the storage interfaces, the
// transport server/client, and the streaming fetcher with its adaptation
// planner.
package cachegen

import (
	"context"
	"fmt"
	"net"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/workload"
)

// Version identifies this build of the reproduction (reported by the
// binaries' -version flags).
const Version = "0.2.0"

// Re-exported core types. See the internal packages for full
// documentation.
type (
	// Model is the (simulated) LLM: calculate_kv / generate_with_kv.
	Model = llm.Model
	// ModelConfig describes an LLM's architecture and KV statistics.
	ModelConfig = llm.Config
	// Token is a vocabulary id.
	Token = llm.Token
	// Device models serving-hardware throughput.
	Device = llm.Device
	// QualityParams are the KV-error → task-quality constants.
	QualityParams = llm.QualityParams
	// GenerateResult is the outcome of answering against a KV cache.
	GenerateResult = llm.GenerateResult

	// KV is a key/value cache tensor.
	KV = tensor.KV

	// Codec is the CacheGen encoder/decoder.
	Codec = core.Codec
	// CodecConfig holds codec parameters (group size, bins, levels...).
	CodecConfig = core.Config
	// Level is an encoding (quantization) level; 0 is highest quality.
	Level = core.Level
	// ModelBank is the offline-profiled codec state for one LLM.
	ModelBank = core.ModelBank
	// Chunk is a decoded context chunk.
	Chunk = core.Chunk

	// Store is the content-addressed KV cache chunk registry
	// (store_kv / get_kv): payloads keyed by bitstream hash, contexts by
	// manifest.
	Store = storage.Store
	// Manifest maps a context to its chunk payload hashes per level plus
	// its metadata.
	Manifest = storage.Manifest
	// ContextMeta describes a stored context's chunk/level layout.
	ContextMeta = storage.ContextMeta
	// SweepResult accounts one garbage-collection sweep.
	SweepResult = storage.SweepResult
	// StoreUsage snapshots a store's physical footprint (unique payloads).
	StoreUsage = storage.Usage

	// Server serves chunks over the wire; Client fetches them.
	Server = transport.Server
	// Client is the transport client.
	Client = transport.Client
	// ServerOption configures a Server.
	ServerOption = transport.ServerOption

	// CachingStore fronts a Store with a byte-budgeted LRU RAM tier.
	CachingStore = storage.CachingStore
	// CacheStats snapshots a CachingStore's hit/miss/eviction counters.
	CacheStats = storage.CacheStats

	// Ring is the consistent-hash ring placing chunks on storage nodes.
	Ring = cluster.Ring
	// Pool fetches chunks from a ring of servers with connection reuse,
	// parallel fan-out and replica failover.
	Pool = cluster.Pool
	// PoolStats snapshots a Pool's dial/failover counters.
	PoolStats = cluster.PoolStats
	// PoolOption configures a Pool.
	PoolOption = cluster.PoolOption
	// ShardedStore is the publish-side Store routing writes across a ring.
	ShardedStore = cluster.ShardedStore

	// ChunkSource serves metadata and chunks to a Fetcher (a Client or a
	// Pool).
	ChunkSource = streamer.ChunkSource
	// Planner implements the per-chunk adaptation logic (Algorithm 1).
	Planner = streamer.Planner
	// Choice is a per-chunk streaming configuration.
	Choice = streamer.Choice
	// Fetcher streams and reassembles a context's KV cache.
	Fetcher = streamer.Fetcher
	// FetchReport describes how a live fetch went.
	FetchReport = streamer.FetchReport
	// PublishOptions tune Publish and Append.
	PublishOptions = streamer.PublishOptions
	// PublishStats accounts a publish/append: payloads stored vs reused,
	// encodes skipped via the dedup index.
	PublishStats = streamer.PublishStats

	// Gateway is the multi-tenant serving frontend: admission control,
	// weighted-fair queueing onto decode slots, prefetch-while-queued.
	Gateway = gateway.Gateway
	// GatewayConfig assembles a Gateway.
	GatewayConfig = gateway.Config
	// GatewayStats snapshots a Gateway's counters and per-tenant TTFTs.
	GatewayStats = gateway.Stats
	// Request is one tenant request submitted to a Gateway.
	Request = gateway.Request
	// RequestResult describes one completed gateway request.
	RequestResult = gateway.Result
	// TenantStats holds one tenant's counters and TTFT histogram.
	TenantStats = gateway.TenantStats
	// LoadReport aggregates one Replay run.
	LoadReport = gateway.LoadReport
	// Session is a multi-turn conversation served through a Gateway:
	// warm suffix-only fetches, ExtendKV, append-publish per turn.
	Session = gateway.Session
	// TurnResult describes one completed Session turn.
	TurnResult = gateway.TurnResult
	// TraceRecorder captures a live gateway run as a replayable
	// workload trace (see GatewayConfig.Recorder).
	TraceRecorder = gateway.TraceRecorder

	// Scheduler is the fleet-wide min-TTFT chunk scheduler: one cost
	// model pricing every chunk of a request across the RAM tier,
	// colocated disk, remote and cross-region fleet nodes, GPU
	// recompute from text, and peer gateways holding the KV resident.
	Scheduler = sched.Scheduler
	// SchedulerOptions configures a Scheduler.
	SchedulerOptions = sched.Options
	// SchedulerSignals seeds the scheduler's cost model (zero fields
	// take defaults).
	SchedulerSignals = sched.Signals
	// ResidentIndex is the fleet-wide resident-prefix index behind the
	// scheduler's peer-transfer tier.
	ResidentIndex = sched.ResidentIndex
)

// Gateway submission errors (test with errors.Is).
var (
	// ErrRejected is returned when gateway admission control turns a
	// request away.
	ErrRejected = gateway.ErrRejected
	// ErrGatewayClosed is returned by Submit after Gateway.Close.
	ErrGatewayClosed = gateway.ErrClosed
)

// NewGateway validates the configuration and returns a serving gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return gateway.New(cfg) }

// NewScheduler builds the unified fetch-vs-recompute chunk scheduler;
// wire it into GatewayConfig.Sched.
func NewScheduler(opt SchedulerOptions) *Scheduler { return sched.New(opt) }

// NewResidentIndex returns a fleet resident-prefix index (capBytes 0 =
// default budget), shared by every gateway that should peer-serve.
func NewResidentIndex(capBytes int64) *ResidentIndex { return sched.NewResidentIndex(capBytes) }

// NewTraceRecorder returns a recorder that captures live gateway
// submissions as a replayable workload trace named name.
func NewTraceRecorder(name string) *TraceRecorder { return gateway.NewTraceRecorder(name) }

// TextLevel is the pseudo-level under which chunk token text is stored.
const TextLevel = storage.TextLevel

// ConcatKV concatenates KV caches along the token dimension (the inverse
// of chunking).
var ConcatKV = tensor.ConcatTokens

// Model constructors.
var (
	// NewModel builds a simulated LLM from a configuration.
	NewModel = llm.New
	// MustNewModel is NewModel for known-valid configs; panics on error.
	MustNewModel = llm.MustNew
	// Predefined model configurations (§7.1).
	Mistral7B = llm.Mistral7B
	Llama34B  = llm.Llama34B
	Llama70B  = llm.Llama70B
	Llama7B   = llm.Llama7B
	Llama13B  = llm.Llama13B
	// A40x4 is the paper's testbed device.
	A40x4 = llm.A40x4
	// DefaultQualityParams returns the calibrated quality constants.
	DefaultQualityParams = llm.DefaultQualityParams
)

// ModelByName returns a predefined model configuration by its name
// (e.g. "Mistral-7B", case-insensitive).
func ModelByName(name string) (ModelConfig, error) {
	for _, cfg := range llm.AllModels() {
		if strings.EqualFold(cfg.Name, name) {
			return cfg, nil
		}
	}
	return ModelConfig{}, fmt.Errorf("cachegen: unknown model %q", name)
}

// DefaultCodecConfig returns the paper's codec parameters (§5.2, §C.2).
func DefaultCodecConfig() CodecConfig { return core.DefaultConfig() }

// NewCodec wraps a trained model bank in a codec.
func NewCodec(bank *ModelBank) *Codec { return core.NewCodec(bank) }

// UnmarshalBank restores a serialised model bank.
func UnmarshalBank(data []byte) (*ModelBank, error) { return core.UnmarshalBank(data) }

// TrainCodec profiles a codec for a model from training contexts: it
// computes their KV caches and trains the arithmetic-coding model bank
// (§5.2, offline, once per LLM).
func TrainCodec(cfg CodecConfig, model *Model, contexts [][]Token) (*Codec, error) {
	if len(contexts) == 0 {
		return nil, fmt.Errorf("cachegen: TrainCodec needs at least one training context")
	}
	samples := make([]*KV, 0, len(contexts))
	for _, toks := range contexts {
		samples = append(samples, model.CalculateKV(toks))
	}
	bank, err := core.Train(cfg, samples)
	if err != nil {
		return nil, err
	}
	return core.NewCodec(bank), nil
}

// Publish encodes a context at every level and stores bitstreams, text
// fallback and the manifest — the paper's store_kv (§6) over the
// content-addressed store. Payloads the store already holds (shared
// prefixes, re-published documents) are neither re-encoded nor
// re-uploaded; PublishWithStats exposes that accounting.
func Publish(ctx context.Context, st Store, codec *Codec, model *Model, contextID string, tokens []Token) (Manifest, error) {
	man, _, err := streamer.Publish(ctx, st, codec, model, contextID, tokens, PublishOptions{})
	return man, err
}

// PublishWithStats is Publish returning the dedup accounting.
func PublishWithStats(ctx context.Context, st Store, codec *Codec, model *Model, contextID string, tokens []Token, opts PublishOptions) (Manifest, *PublishStats, error) {
	return streamer.Publish(ctx, st, codec, model, contextID, tokens, opts)
}

// Append extends a published context with a turn's tokens, re-encoding
// only the dirty suffix chunks (§9's incremental KV update). opts.KV,
// when set, must cover the full extended context.
func Append(ctx context.Context, st Store, codec *Codec, model *Model, contextID string, newTokens []Token, opts PublishOptions) (Manifest, *PublishStats, error) {
	return streamer.Append(ctx, st, codec, model, contextID, newTokens, opts)
}

// PublishIncremental is Publish plus refinement bitstreams for the given
// target levels, enabling Fetcher.FetchIncremental's coarse-then-upgrade
// loading (the SVC-style extension of §9).
func PublishIncremental(ctx context.Context, st Store, codec *Codec, model *Model, contextID string, tokens []Token, targets ...Level) (Manifest, error) {
	man, _, err := streamer.Publish(ctx, st, codec, model, contextID, tokens, PublishOptions{RefineTargets: targets})
	return man, err
}

// HashChunk returns the content address (hex SHA-256) of a payload.
func HashChunk(data []byte) string { return storage.HashChunk(data) }

// NewMemStore returns an in-memory chunk store.
func NewMemStore() Store { return storage.NewMemStore() }

// NewFileStore returns a filesystem-backed chunk store rooted at dir.
func NewFileStore(dir string) (Store, error) { return storage.NewFileStore(dir) }

// NewCachingStore fronts a store with a RAM tier of at most maxBytes.
func NewCachingStore(inner Store, maxBytes int64) *CachingStore {
	return storage.NewCachingStore(inner, maxBytes)
}

// NewRing returns a consistent-hash ring with the given replication
// factor and virtual nodes per node (≤0 = default).
func NewRing(replicas, vnodes int) *Ring { return cluster.NewRing(replicas, vnodes) }

// NewPool returns a chunk-fetching pool over the ring's nodes (node ids
// are dial addresses).
func NewPool(ring *Ring, opts ...PoolOption) *Pool { return cluster.NewPool(ring, opts...) }

// WithRequestTimeout bounds each of a Pool's per-node attempts so
// failover moves past a node that accepts connections but never answers.
func WithRequestTimeout(d time.Duration) PoolOption { return cluster.WithRequestTimeout(d) }

// NewShardedStore returns a publish-side store sharding writes across
// the ring's nodes (node id → backing store).
func NewShardedStore(ring *Ring, stores map[string]Store) (*ShardedStore, error) {
	return cluster.NewShardedStore(ring, stores)
}

// Resilience re-exports: the fleet's unified failure domain — per-node
// health states driven by an active prober, circuit breakers, hedged
// chunk fetches under a token-bucket retry budget, and deadline-budget
// propagation from the gateway into per-attempt timeouts.
type (
	// ResilienceConfig tunes a Pool's failure domain (probe cadence,
	// breaker cooldown, retry budget, hedge clamps). Zero fields default.
	ResilienceConfig = resilience.Config
	// ResilienceManager tracks node health, breakers, latency and the
	// retry budget; reach it through Pool.Resilience.
	ResilienceManager = resilience.Manager
	// ResilienceStats snapshots the failure domain's accounting.
	ResilienceStats = resilience.Stats
	// NodeState is one node's position in the health state machine.
	NodeState = resilience.NodeState
)

// Health states (see ResilienceManager.State).
const (
	NodeHealthy    = resilience.Healthy
	NodeSuspect    = resilience.Suspect
	NodeDead       = resilience.Dead
	NodeRecovering = resilience.Recovering
)

// ErrFleetUnavailable is returned (match with errors.Is) when a Pool
// fails fast because every replica for a fetch is marked failed.
var ErrFleetUnavailable = cluster.ErrFleetUnavailable

// WithResilience tunes a Pool's failure domain.
func WithResilience(cfg ResilienceConfig) PoolOption { return cluster.WithResilience(cfg) }

// WithHedging enables or disables a Pool's hedged chunk fetches
// (default on): a request unanswered past the serving node's adaptive
// P99 latency is duplicated to the next replica, first answer wins.
func WithHedging(enabled bool) PoolOption { return cluster.WithHedging(enabled) }

// WithDeadlineBudget stamps a soft completion budget on the context;
// the Pool shrinks its per-attempt timeouts as the budget burns, and
// the gateway's degradation ladder steps quality down when little
// remains. The gateway applies this automatically to requests carrying
// an SLO.
func WithDeadlineBudget(ctx context.Context, d time.Duration) context.Context {
	return resilience.WithBudget(ctx, d)
}

// RemainingBudget reports how much of the context's deadline budget is
// left (falling back to the context's own deadline), and whether any
// bound exists.
func RemainingBudget(ctx context.Context) (time.Duration, bool) { return resilience.Remaining(ctx) }

// NewServer serves a store over the frame protocol.
func NewServer(st Store, opts ...ServerOption) *Server { return transport.NewServer(st, opts...) }

// WithEgressRate shapes server sends to bps bits/second.
func WithEgressRate(bps float64) ServerOption { return transport.WithEgressRate(bps) }

// WithEgressTrace shapes server sends along a time-varying bandwidth
// trace, replayed per connection from its accept time.
func WithEgressTrace(tr Trace) ServerOption { return transport.WithEgressTrace(tr) }

// WithBank makes the server distribute the codec's model bank to clients.
func WithBank(bank []byte) ServerOption { return transport.WithBank(bank) }

// Dial connects a transport client to a server address.
func Dial(addr string) (*Client, error) { return transport.Dial(addr) }

// DialShaped connects a transport client whose receive path is paced by
// a bandwidth trace — the client-side way to replay constrained links
// against an unshaped server.
func DialShaped(addr string, tr Trace) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cachegen: dial %s: %w", addr, err)
	}
	sh := transport.NewIngressShaper(conn, 0)
	sh.SetTrace(tr)
	return transport.NewClient(sh), nil
}

// ParseTrace parses the CLIs' -bandwidth-trace syntax: comma-separated
// RATE[:DURATION] segments ("2Gbps:2s,0.2Gbps:2s,1Gbps"), the last
// holding forever.
func ParseTrace(s string) (Trace, error) { return netsim.ParseTrace(s) }

// Workload traces and chaos injection: replayable scenario traces
// (internal/workload) and timed fault schedules against a live fleet
// (internal/chaos). See the X10 experiment for the two composed.
type (
	// WorkloadTrace is a complete replayable scenario: the contexts to
	// publish and the arrival schedule.
	WorkloadTrace = workload.Trace
	// WorkloadSource is the request schedule Replay consumes.
	WorkloadSource = workload.Source
	// WorkloadParams configures the named scenario builders.
	WorkloadParams = workload.Params
	// WorkloadArrival is one scheduled session arrival.
	WorkloadArrival = workload.Arrival
	// WorkloadContext describes one context a scenario publishes.
	WorkloadContext = workload.ContextSpec
	// PoissonTenant describes one tenant's traffic in a PoissonTrace.
	PoissonTenant = workload.PoissonTenant
	// ReplayOptions configures Replay.
	ReplayOptions = gateway.ReplayOptions

	// ChaosSchedule is a timed sequence of fault events.
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one fault: a class, an offset, an optional heal.
	ChaosEvent = chaos.Event
	// ChaosTarget is the fleet surface faults are injected through.
	ChaosTarget = chaos.Target
	// ChaosInjector arms a schedule against a target.
	ChaosInjector = chaos.Injector
	// LocalFleet is a ready-made restartable ChaosTarget over local
	// transport servers.
	LocalFleet = chaos.LocalFleet
	// LatencyStore wraps a Store with injectable per-op latency (the
	// slow-disk fault hook).
	LatencyStore = storage.LatencyStore
	// ChaosCounters tallies injected faults and their observed effects.
	ChaosCounters = metrics.ChaosCounters
	// ChaosSnapshot is a point-in-time copy of ChaosCounters.
	ChaosSnapshot = metrics.ChaosSnapshot
)

// WorkloadBuilders maps scenario names ("rag-burst", "agentic",
// "longdoc-qa", "flash-crowd") to their trace builders.
func WorkloadBuilders() map[string]func(WorkloadParams) *WorkloadTrace { return workload.Builders() }

// ResolveTrace turns a CLI trace argument — a scenario name or a trace
// file path — into a trace.
func ResolveTrace(nameOrPath string, p WorkloadParams) (*WorkloadTrace, error) {
	return workload.Resolve(nameOrPath, p)
}

// PoissonTrace builds the open-loop Poisson workload as a trace:
// exponential inter-arrival gaps at rate sessions/second, each arrival
// drawn from the tenant mix. Replay it with ReplayOptions.Offered = rate.
func PoissonTrace(rate float64, requests int, tenants []PoissonTenant, seed int64) (*WorkloadTrace, error) {
	return workload.Poisson(rate, requests, tenants, seed)
}

// LoadTrace reads and validates a JSON trace file.
func LoadTrace(path string) (*WorkloadTrace, error) { return workload.Load(path) }

// Replay publishes a trace's contexts and replays its arrival schedule
// against the gateway, blocking until every session resolves.
func Replay(ctx context.Context, g *Gateway, src WorkloadSource, opts ReplayOptions) (*LoadReport, error) {
	return gateway.Replay(ctx, g, src, opts)
}

// ParseChaosSchedule parses the CLIs' -chaos syntax: ';'-separated
// "class@offset[+heal][:param]" events ("kill@500ms+1s; corrupt@0s:0.25").
func ParseChaosSchedule(spec string, seed int64) (ChaosSchedule, error) {
	return chaos.ParseSchedule(spec, seed)
}

// NewChaosInjector returns an injector firing schedules at the target;
// counters (optional) tally what fired.
func NewChaosInjector(t ChaosTarget, c *ChaosCounters) *ChaosInjector { return chaos.New(t, c) }

// NewLatencyStore wraps a store with injectable per-op latency.
func NewLatencyStore(inner Store) *LatencyStore { return storage.NewLatencyStore(inner) }

// Telemetry-plane re-exports: the live metrics registry every component
// feeds, the per-request tracer behind the TTFT-attribution traces, and
// the /debug exposition server the CLIs mount behind -telemetry-addr.
type (
	// TelemetryRegistry is a lock-cheap live metrics registry (atomic
	// counters, gauges, log-bucketed streaming histograms).
	TelemetryRegistry = telemetry.Registry
	// Tracer records one span tree per gateway request.
	Tracer = telemetry.Tracer
	// Span is one phase of a traced request.
	Span = telemetry.Span
	// SpanRecord is one completed span as held by a Tracer.
	SpanRecord = telemetry.SpanRecord
	// TraceAttr is one key/value annotation on a span.
	TraceAttr = telemetry.Attr
	// TelemetryCounter is a monotonically increasing atomic counter.
	TelemetryCounter = telemetry.Counter
	// TelemetryGauge is a settable atomic float gauge.
	TelemetryGauge = telemetry.Gauge
	// TelemetryHistogram is a log-bucketed streaming histogram giving
	// P50/P95/P99 without storing samples.
	TelemetryHistogram = telemetry.Histogram
	// DebugServer is the /debug exposition HTTP server.
	DebugServer = telemetry.DebugServer
)

// NewTelemetryRegistry returns an empty live metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTracer returns a tracer holding the most recent capacity span
// records (0 = a generous default).
func NewTracer(capacity int) *Tracer { return telemetry.NewTracer(capacity) }

// ServeDebug mounts the /debug exposition (Prometheus text, plain-text
// dashboard, trace export, pprof) on addr and serves in the background.
func ServeDebug(addr string, reg *TelemetryRegistry, tr *Tracer) (*DebugServer, error) {
	return telemetry.ServeDebug(addr, reg, tr)
}

// RegisterChaos mirrors a ChaosCounters' tallies into the registry.
func RegisterChaos(reg *TelemetryRegistry, c *ChaosCounters) { telemetry.RegisterChaos(reg, c) }

// WithServerTelemetry registers a transport server's live instruments.
func WithServerTelemetry(reg *TelemetryRegistry) ServerOption { return transport.WithTelemetry(reg) }

// WithPoolTelemetry mirrors a cluster pool's counters into the registry.
func WithPoolTelemetry(reg *TelemetryRegistry) PoolOption { return cluster.WithTelemetry(reg) }
