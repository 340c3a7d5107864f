package streamer

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// ChunkSource is anything that can serve a context's manifest and chunk
// payloads: a transport.Client connected to one storage server, or a
// cluster.Pool fanning requests out across a consistent-hash ring of
// them. Payloads are addressed by content hash — the manifest is the
// only name→content indirection — so the adaptation logic is identical
// for a single node and a fleet.
type ChunkSource interface {
	// GetManifest fetches a context's manifest (hashes + metadata).
	GetManifest(ctx context.Context, contextID string) (storage.Manifest, error)
	// GetChunkData fetches one payload by content hash.
	GetChunkData(ctx context.Context, hash string) ([]byte, error)
}

// DefaultPipelineDepth is the transfer-pipeline depth used when a
// Fetcher does not set one: strictly sequential transfers, the classic
// one-chunk-ahead pipeline (decode of chunk i−1 overlaps the transfer of
// chunk i). Depths > 1 additionally overlap transfers with each other.
const DefaultPipelineDepth = 1

// Fetcher streams a context's KV cache from a live chunk source:
// chunk-by-chunk adaptive fetching, decoding pipelined with transmission
// (§6), and text-fallback recompute through the model. It produces the
// reassembled KV cache ready for generate_with_kv. Every fetch runs the
// one chunk assembler; what varies is the byte-acquirer feeding it — the
// server-push stream when Source implements StreamSource, the policy did
// not route chunks at local sources (PathPolicy) and DisableStreaming is
// unset, per-chunk GetChunkData otherwise.
type Fetcher struct {
	// Source serves manifests and chunks (a transport.Client or a
	// cluster.Pool).
	Source ChunkSource
	// Codec decodes chunk bitstreams (its bank must match the model).
	Codec *core.Codec
	// Model recomputes text-mode chunks and anchors cost estimates.
	Model *llm.Model
	// Device is used for the planner's recompute estimates.
	Device llm.Device
	// Planner holds the adaptation policy.
	Planner Planner
	// Policy, when set, replaces Planner as the per-chunk decision
	// engine (sched.Plan is one). The Fetcher then annotates chunk
	// metadata with hashes and indices before planning, and honors the
	// policy's per-chunk Choice.Source routing: "ram" via Local, "disk"
	// via LocalStore, "peer" via Peers, anything else via Source. A
	// PathPolicy additionally decides between the stream and the
	// per-chunk acquirer.
	Policy Policy
	// Local is the gateway-local payload cache ("ram" source). When set,
	// every bitstream payload either acquirer pulls from anywhere else is
	// written through it once it has decoded clean (text payloads never:
	// nothing routes text to "ram"). Nil disables the tier.
	Local PayloadCache
	// LocalStore is a colocated store replica readable without the
	// network ("disk" source). Nil disables the tier.
	LocalStore storage.Store
	// Peers serves decoded KV from gateways holding the context resident
	// ("peer" source). Nil disables the tier.
	Peers PeerSource
	// Start, if set, anchors the planner's elapsed-time budget (and the
	// report's LoadTime) to an earlier instant than the Fetch call — a
	// serving gateway sets it to the request's admission time so queueing
	// delay burns SLO budget and the per-chunk choices degrade accordingly.
	Start time.Time
	// PipelineDepth bounds how far the acquirer may run ahead of the
	// assembler (0 = DefaultPipelineDepth). For the per-chunk acquirer it
	// caps the chunk transfers in flight: at depth K, up to K transfers
	// overlap while completed chunks decode out of order (decode never
	// holds a transfer slot); planner decisions stay sequential — the
	// choice for chunk i uses the throughput measured from the most
	// recently completed transfer, which at depths > 1 may be an older
	// chunk than i−1. For the stream acquirer it bounds how many
	// completed chunks may queue ahead of the in-order finalizer before
	// backpressure pauses the sender.
	PipelineDepth int
	// DisableStreaming selects the per-chunk acquirer even when Source
	// supports the multiplexed server-push stream — the chunk-granularity
	// baseline, and the bit-for-bit reference the harness checks the
	// streamed KV against. Both acquirers feed the same assembler.
	DisableStreaming bool
	// FrameSize bounds the stream's DATA frames (0 = the transport
	// default, 64 KiB).
	FrameSize int
	// EstimatorWindow is the bandwidth estimator's frame window on the
	// streaming path (0 = netsim.DefaultEstimatorWindow).
	EstimatorWindow int
	// DecisionFrames is how many DATA frames arrive between adaptation
	// decision points (0 = DefaultDecisionFrames).
	DecisionFrames int
	// Chaos, when set, receives a CorruptFramesRejected tick for every
	// payload the fetch rejects on integrity grounds — the fleet-wide
	// tally survives even when the fetch itself fails, which the
	// per-request FetchReport does not.
	Chaos *chaos.Counters
	// BandwidthGauge, when set, receives the streaming path's live
	// bandwidth estimate (bits per second) as frames arrive — the
	// telemetry registry's view of netsim.Estimator. Nil is fine.
	BandwidthGauge *telemetry.Gauge
	// LanesGauge, when set, counts the coder lanes in decode batches
	// running across the fetch (cachegen_codec_decode_lanes_inflight): a
	// batch adds its lanes once it holds a coder slot and removes them when
	// it finishes — the waterfall's view of decode parallelism. Nil is fine.
	LanesGauge *telemetry.Gauge
}

// policy returns the decision engine for this fetch: the installed
// Policy, or the Planner.
func (f *Fetcher) policy() Policy {
	if f.Policy != nil {
		return f.Policy
	}
	return f.Planner
}

// annotateChunkInfos fills the delivery-identity fields a scheduling
// policy prices sources with: per-level content hashes, the text hash,
// the absolute index, and the raw KV size of each chunk.
func (f *Fetcher) annotateChunkInfos(man storage.Manifest, contextID string, infos []ChunkInfo) {
	layers, channels := f.Codec.Bank().Geometry()
	for i := range infos {
		infos[i].Context = contextID
		infos[i].Index = i
		hashes := make([]string, man.Meta.Levels)
		for lv := 0; lv < man.Meta.Levels; lv++ {
			if h, err := man.ChunkHash(lv, i); err == nil {
				hashes[lv] = h
			}
		}
		infos[i].HashByLevel = hashes
		if h, err := man.ChunkHash(storage.TextLevel, i); err == nil {
			infos[i].TextHash = h
		}
		// K and V planes, FP16.
		infos[i].KVBytes = int64(infos[i].Tokens*layers*channels) * 2 * 2
	}
}

// rejectCorrupt accounts one integrity rejection.
func (f *Fetcher) rejectCorrupt(report *FetchReport) {
	report.CorruptRejected++
	if f.Chaos != nil {
		f.Chaos.CorruptFramesRejected.Add(1)
	}
}

// FetchReport describes how a live fetch went.
type FetchReport struct {
	// LoadTime is the wall-clock time from request to the full KV cache
	// being assembled (TTFT minus the prompt prefill, which the caller
	// performs).
	LoadTime time.Duration
	// TransferTime, DecodeTime and RecomputeTime are an exclusive
	// wall-clock attribution of the load: every instant of the fetch is
	// charged to at most one component, sourced from the same phase
	// intervals the request tracer records as spans. DecodeTime is the
	// union of the decode intervals — chunks and their coder lanes
	// decode out of order and in parallel, so overlapped instants are
	// charged once; RecomputeTime is the recompute union minus any
	// decode overlap; TransferTime is the union of the transfer
	// intervals minus the instants compute was running — the network
	// time the pipeline could not hide. Their sum therefore never
	// exceeds LoadTime, at any pipeline depth or decode parallelism; the
	// remainder is idle/queue time. A fetch whose DecodeTime rivals its
	// TransferTime is compute-bound, not network-bound. Per-chunk raw
	// transfer durations (overlapping at depth > 1) live in
	// Decisions[].Transfer.
	TransferTime time.Duration
	// DecodeTime is the wall-clock time bitstream decode was running
	// (union, not sum, of the possibly-parallel decode intervals).
	DecodeTime time.Duration
	// RecomputeTime is the cumulative text-fallback recompute time.
	RecomputeTime time.Duration
	// Decisions records the per-chunk configuration choices (cold chunks
	// only; resident chunks are not fetched).
	Decisions []ChunkDecision
	// BytesReceived is the total payload size fetched, including bytes
	// of chunks later abandoned by a mid-stream cancel.
	BytesReceived int64
	// ResidentTokens is the prefix served from the caller's resident KV
	// instead of the network (FetchFrom); 0 for a cold fetch.
	ResidentTokens int
	// Streamed reports the stream acquirer fed the fetch (frame-
	// granularity estimation and mid-stream steering); false means the
	// per-chunk acquirer.
	Streamed bool
	// Bandwidth is the live bandwidth estimate at the end of the fetch in
	// bits per second: the frame estimator's windowed harmonic mean from
	// the stream acquirer, the last completed transfer's average otherwise.
	Bandwidth float64
	// LevelBytes counts received payload bytes by delivered configuration
	// ("L0", "L1", …, "text"), cancel waste and corrupt refetches included.
	LevelBytes map[string]int64
	// Switches counts mid-stream level switches; Cancels counts in-flight
	// chunks abandoned and re-sent cheaper. Both are 0 with the per-chunk
	// acquirer, which can only adapt at chunk boundaries.
	Switches, Cancels int
	// CorruptRejected counts payloads that failed integrity checks
	// (CRC/header validation) and were rejected rather than decoded.
	// However the payload arrived — streamed frames included — the chunk
	// is refetched once by content hash before the fetch fails.
	CorruptRejected int
}

// addLevelBytes accumulates one delivery's bytes into the per-level
// counters.
func (r *FetchReport) addLevelBytes(level string, n int64) {
	if r.LevelBytes == nil {
		r.LevelBytes = map[string]int64{}
	}
	r.LevelBytes[level] += n
}

// Fetch retrieves and reassembles the KV cache of contextID. Bytes
// arrive from the stream or up to PipelineDepth concurrent chunk
// transfers while chunks decode out of order — each chunk's coder lanes
// fanned across the codec's worker pool — directly into the preallocated
// destination tensor.
func (f *Fetcher) Fetch(ctx context.Context, contextID string) (*tensor.KV, *FetchReport, error) {
	return f.FetchFrom(ctx, contextID, nil)
}

// FetchFrom is Fetch for a caller that already holds an exact KV prefix
// of the context — a chat session resuming with the previous turns
// resident. Only the cold suffix chunks are fetched and decoded; the
// resident prefix is adopted as-is (whole chunks only: a prefix ending
// mid-chunk refetches that chunk). With the whole context resident, no
// chunk moves at all and the call costs one manifest round trip.
func (f *Fetcher) FetchFrom(ctx context.Context, contextID string, resident *tensor.KV) (*tensor.KV, *FetchReport, error) {
	if f.Source == nil || f.Codec == nil || f.Model == nil {
		return nil, nil, fmt.Errorf("streamer: Fetcher needs Source, Codec and Model")
	}
	// From here until the fetch returns, the codec's encode paths stand
	// back for this request's decodes and round trips.
	load := f.Codec.BeginLoad()
	defer load.End()
	start := time.Now()
	manStart := start
	if !f.Start.IsZero() {
		start = f.Start
	}
	man, err := f.Source.GetManifest(ctx, contextID)
	if err != nil {
		return nil, nil, fmt.Errorf("streamer: fetching manifest: %w", err)
	}
	telemetry.FromContext(ctx).Record("manifest", manStart, time.Since(manStart))
	return f.fetch(ctx, start, man, contextID, resident)
}

// fetch assembles the context man describes behind the resident prefix.
func (f *Fetcher) fetch(ctx context.Context, start time.Time, man storage.Manifest, contextID string,
	resident *tensor.KV) (*tensor.KV, *FetchReport, error) {

	meta := man.Meta
	infos, err := BuildChunkInfos(meta, f.Model.Config(), f.Device, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("streamer: %w", err)
	}
	if f.Policy != nil {
		f.annotateChunkInfos(man, contextID, infos)
	}

	// Resolve how much of the resident prefix is usable: whole chunks.
	fromChunk, prefixTokens := 0, 0
	if resident != nil {
		if resident.Tokens > meta.TokenCount {
			return nil, nil, fmt.Errorf("streamer: resident cache has %d tokens, context %q has %d",
				resident.Tokens, contextID, meta.TokenCount)
		}
		for fromChunk < len(infos) && prefixTokens+infos[fromChunk].Tokens <= resident.Tokens {
			prefixTokens += infos[fromChunk].Tokens
			fromChunk++
		}
	}
	report := &FetchReport{ResidentTokens: prefixTokens}
	if fromChunk == len(infos) {
		// Fully resident (or a zero-chunk context): nothing to stream.
		var prefix *tensor.KV
		if prefixTokens > 0 {
			prefix, err = resident.SliceTokens(0, prefixTokens)
			if err != nil {
				return nil, nil, fmt.Errorf("streamer: %w", err)
			}
		}
		report.LoadTime = time.Since(start)
		return prefix, report, nil
	}
	suffixInfos := infos[fromChunk:]
	streamTokens := 0
	for _, info := range suffixInfos {
		streamTokens += info.Tokens
	}
	if prefixTokens+streamTokens != meta.TokenCount {
		return nil, nil, fmt.Errorf("streamer: chunk metadata covers %d tokens, meta says %d",
			prefixTokens+streamTokens, meta.TokenCount)
	}

	// The single destination: every chunk decodes (or recomputes)
	// directly into its token range — no per-chunk tensors, no
	// quadratic reassembly.
	layers, channels := f.Codec.Bank().Geometry()
	dest := tensor.New(layers, meta.TokenCount, channels)
	if prefixTokens > 0 {
		if err := dest.CopyTokensAt(0, resident, 0, prefixTokens); err != nil {
			return nil, nil, fmt.Errorf("streamer: adopting resident prefix: %w", err)
		}
	}

	// A path-aware policy is consulted before any transfer: it primes its
	// per-chunk source assignment from the annotated metadata and asks for
	// the per-chunk acquirer when it routed chunks at sources the stream
	// cannot serve (cache, colocated disk, peers).
	wantChunks := false
	if pp, ok := f.policy().(PathPolicy); ok {
		wantChunks = pp.PlanPath(suffixInfos) == PathChunks
	}

	a := f.newAssembler(ctx, start, man, suffixInfos, fromChunk, prefixTokens, dest, report)
	defer a.cancel()
	if src, ok := f.Source.(StreamSource); ok && !f.DisableStreaming && !wantChunks {
		err = f.acquireStream(a, src)
	} else {
		err = f.acquireChunks(a, contextID)
	}
	if err := a.wait(err); err != nil {
		return nil, nil, err
	}
	return dest, report, nil
}

// acquireChunks is the per-chunk byte-acquirer: sequential planner
// decisions, up to PipelineDepth GetChunkData transfers in flight, each
// chunk routed at the source its choice names (RAM, colocated disk, a
// peer's resident KV, the fleet). A transfer slot is released the moment
// the wire is done, and the payload is fed to the assembler whole.
func (f *Fetcher) acquireChunks(a *assembler, contextID string) error {
	// The link estimate tracks the most recently *completed* network
	// transfer — with overlapping transfers, completions can land out of
	// chunk order, and the planner wants the freshest measurement.
	var link struct {
		sync.Mutex
		throughput float64
		lastDone   time.Time
	}
	var wg sync.WaitGroup
	inflight := make(chan struct{}, min(a.depth, len(a.infos)))
	issue := func(si int) error {
		i := a.from + si
		// An abandoned request (deadline hit, user gone) or a failed
		// earlier chunk must stop issuing transfers, not stream the rest of
		// the context to a caller that will discard it.
		select {
		case inflight <- struct{}{}:
		case <-a.ctx.Done():
		}
		if err := a.ctx.Err(); err != nil {
			return fmt.Errorf("streamer: cancelled before chunk %d: %w", i, err)
		}
		link.Lock()
		tp := link.throughput
		link.Unlock()
		choice, err := f.policy().Choose(si, time.Since(a.start), tp, a.infos)
		if err != nil {
			return fmt.Errorf("streamer: %w", err)
		}
		hash, err := a.man.ChunkHash(choiceLevel(choice), i)
		if err != nil {
			return fmt.Errorf("streamer: %w", err)
		}
		a.plan(si, choice)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqStart := time.Now()
			if choice.Source == SourcePeer && f.Peers != nil {
				if part, lvl, err := f.Peers.FetchResident(a.ctx, contextID, i); err == nil {
					<-inflight
					// The decision records what actually moved: the peer's
					// resident quality (its original decode level) and the
					// raw KV bytes of the transfer.
					done, dc := time.Now(), levelChoice(lvl)
					dc.Source = SourcePeer
					c := a.begin(si, lvl, 0)
					a.adopt(c, part)
					a.finish(c, delivery{choice: dc, from: SourcePeer, start: reqStart, end: done, transfer: done.Sub(reqStart)})
					return
				}
				// No peer holds the chunk anymore: fall through to the
				// fleet at the planned level.
			}
			payload, from, err := f.fetchPayload(a.ctx, hash, choice)
			<-inflight
			if err != nil {
				a.fail(fmt.Errorf("streamer: fetching chunk %d (%s): %w", i, choice, err))
				return
			}
			done := time.Now()
			tp := netsim.Throughput(int64(len(payload)), done.Sub(reqStart))
			link.Lock()
			if fromNetwork(from) && done.After(link.lastDone) {
				// Cache and colocated-disk reads say nothing about the
				// fleet link; only network deliveries feed the estimate.
				link.lastDone, link.throughput = done, tp
			}
			link.Unlock()
			c := a.begin(si, choiceLevel(choice), int64(len(payload)))
			a.feed(c, payload)
			a.finish(c, delivery{choice: choice, from: from, start: reqStart, end: done, transfer: done.Sub(reqStart), throughput: tp})
		}()
		return nil
	}
	var err error
	for si := 0; si < len(a.infos) && err == nil; si++ {
		err = issue(si)
	}
	if err != nil {
		a.fail(err) // now, so the transfers in flight stop
	}
	wg.Wait()
	a.report.Bandwidth = link.throughput
	return err
}

// fetchPayload delivers one chunk payload honoring the choice's source
// routing. RAM and disk misses (or failures) fall back to the fleet, so
// a stale plan degrades to a network fetch instead of failing. Returns
// the payload and the source class that actually served it.
func (f *Fetcher) fetchPayload(ctx context.Context, hash string, choice Choice) ([]byte, string, error) {
	switch choice.Source {
	case SourceRAM:
		if f.Local != nil {
			if data, ok := f.Local.Get(hash); ok {
				return data, SourceRAM, nil
			}
		}
	case SourceDisk:
		if f.LocalStore != nil {
			if data, err := f.LocalStore.GetChunk(ctx, hash); err == nil {
				return data, SourceDisk, nil
			}
		}
	}
	data, err := f.Source.GetChunkData(ctx, hash)
	if err != nil {
		return nil, "", err
	}
	from := sourceLabel(choice)
	if !fromNetwork(from) {
		// A routed local source fell back to the fleet: label the truth.
		from = SourceRemote
		if choice.Text {
			from = SourceRecompute
		}
	}
	return data, from, nil
}

// fromNetwork reports whether a source class moved bytes over the fleet
// link (and so informs the bandwidth estimate).
func fromNetwork(source string) bool {
	switch source {
	case SourceRAM, SourceDisk, SourcePeer:
		return false
	}
	return true
}
