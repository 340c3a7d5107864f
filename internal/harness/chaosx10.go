package harness

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/llm"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
	"repro/internal/workload"
)

// The chaos scenario (ISSUE 6): the production claim — KV caches served
// fast under real conditions — exercised as a matrix of workload-trace
// scenarios (internal/workload) against composable fault injections
// (internal/chaos). Every cell replays a seeded trace while a seeded
// fault schedule fires against the live fleet, reports SLO attainment
// and TTFT tails, and ends with a bit-for-bit KV integrity check against
// an unfaulted reference publish: whatever the fault did to availability,
// it must never corrupt what the store serves. This matrix is the
// regression net later serving-path work is judged against.

func init() {
	register("X10", "Extension: chaos & workload traces (scenario x fault matrix, SLO + KV integrity)", runX10Chaos)
}

// x10Seed fixes the whole matrix: trace content, arrival schedules,
// chaos victim selection and corruption byte streams.
const x10Seed = 1234

// x10Faults is the fault axis: one schedule per fault class, phrased in
// the same compact spec syntax the CLIs accept. Offsets are chosen to
// land mid-replay for every scenario window (600-900 ms) and heal before
// the window ends, so late arrivals observe the recovery, not just the
// outage.
func x10Faults() []struct{ name, spec string } {
	return []struct{ name, spec string }{
		{"none", ""},
		{"node-kill", "kill@150ms+450ms"},
		{"partition", "partition@150ms+450ms"},
		{"slow-disk", "slow-disk@50ms+600ms:2ms"},
		{"bw-cliff", "cliff@100ms+500ms:0.05Gbps"},
		{"corrupt", "corrupt@0s:0.25"},
	}
}

// storeSource adapts a local storage.Store to a streamer.ChunkSource:
// in-process, no latency of its own — X10's reference fetches and the
// store under X13's modelled link.
type storeSource struct{ st storage.Store }

func (s storeSource) GetManifest(ctx context.Context, id string) (storage.Manifest, error) {
	return s.st.GetManifest(ctx, id)
}

func (s storeSource) GetChunkData(ctx context.Context, hash string) ([]byte, error) {
	return s.st.GetChunk(ctx, hash)
}

// x10Outcome is one matrix cell's result.
type x10Outcome struct {
	rep       *gateway.LoadReport
	snap      metrics.ChaosSnapshot
	failovers uint64
	integrity string
}

// x10Run replays one scenario under one fault schedule on a fresh
// 3-node fleet and verifies post-heal KV integrity.
func x10Run(st *x5Stack, tr *workload.Trace, spec string) (*x10Outcome, error) {
	// Publishes go through the in-process sharded store (the publish
	// plane); serving goes through the pool over TCP (the plane the
	// faults hit), whose dial backoff is cleared on heal so recovery is
	// observed promptly.
	fl, sharded, err := launchRing(3, 2, 0)
	if err != nil {
		return nil, err
	}
	defer fl.Close()
	pool := cluster.NewPool(sharded.Ring(), cluster.WithRequestTimeout(10*time.Second))
	defer pool.Close()
	fl.OnHeal = pool.Invalidate
	counters := &metrics.ChaosCounters{}
	g, err := gateway.New(gateway.Config{
		Slots:       2,
		QueueLimit:  1024,
		Tenants:     map[string]int{"tenant-a": 1, "tenant-b": 1},
		Prefetch:    true,
		MaxPrefetch: 8,
		Source:      pool,
		Codec:       st.codec,
		Model:       st.model,
		Device:      llm.A40x4(),
		Planner:     streamer.Planner{Adapt: true, DefaultLevel: 1, PriorBandwidth: netsim.Gbps(1)},
		DecodeTime:  func(int, int) time.Duration { return x5DecodeCost },
		Chaos:       counters,
	})
	if err != nil {
		return nil, err
	}
	defer g.Close()

	inj := chaos.New(fl, counters)
	var startErr error
	started := func() {}
	if spec != "" {
		sched, err := chaos.ParseSchedule(spec, tr.Seed)
		if err != nil {
			return nil, err
		}
		// Arm the schedule from the Replay hook so fault offsets share the
		// arrival schedule's t=0, not the publish phase's.
		started = func() { startErr = inj.Start(sched) }
	}
	rep, err := gateway.Replay(context.Background(), g, tr,
		gateway.ReplayOptions{Publisher: sharded, Started: started})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", tr.Name(), err)
	}
	if err := inj.Finish(); err != nil {
		return nil, fmt.Errorf("scenario %s, faults %q: %w", tr.Name(), spec, err)
	}
	if startErr != nil {
		return nil, fmt.Errorf("scenario %s, faults %q: %w", tr.Name(), spec, startErr)
	}
	snap := counters.Snapshot()
	if snap.CorruptFramesInjected > 0 && snap.CorruptFramesRejected == 0 {
		return nil, fmt.Errorf("scenario %s: %d corrupt payloads served, none rejected — corruption decoded silently",
			tr.Name(), snap.CorruptFramesInjected)
	}
	integrity, err := x10Integrity(st, sharded, pool, tr)
	if err != nil {
		return nil, fmt.Errorf("scenario %s, faults %q: %w", tr.Name(), spec, err)
	}
	return &x10Outcome{rep: rep, snap: snap, failovers: pool.Stats().Failovers, integrity: integrity}, nil
}

// x10Integrity verifies, context by context, that what the healed fleet
// serves is bit-for-bit what an unfaulted publish of the same token
// content produces: identical manifest hash rows (byte-identical
// bitstreams in the content-addressed store) and a decoded KV with zero
// max-abs difference. Agentic contexts grew mid-replay, so their
// expected content is reconstructed from the turns that actually landed
// (token count is always a whole number of appends — the manifest write
// is the atomic commit point).
func x10Integrity(st *x5Stack, sharded *cluster.ShardedStore, pool *cluster.Pool, tr *workload.Trace) (string, error) {
	ctx := context.Background()
	specs := map[string]workload.ContextSpec{}
	for _, c := range tr.Contexts() {
		specs[c.ID] = c
	}
	agentic := map[string]workload.Arrival{}
	for _, a := range tr.Arrivals() {
		if a.AppendTokens > 0 {
			agentic[a.ContextID] = a
		}
	}
	ids, err := sharded.ListContexts(ctx)
	if err != nil {
		return "", err
	}
	sort.Strings(ids)
	plan := streamer.Planner{Adapt: false, DefaultLevel: 1}
	fleetFetch := &streamer.Fetcher{
		Source: pool, Codec: st.codec, Model: st.model, Device: llm.A40x4(), Planner: plan,
	}
	for _, id := range ids {
		got, _, err := fleetFetch.Fetch(ctx, id)
		if err != nil {
			return "", fmt.Errorf("fetching %q from healed fleet: %w", id, err)
		}
		var expected []llm.Token
		switch {
		case specs[id].ID != "":
			expected = specs[id].BuildTokens()
		default:
			a, ok := agentic[id]
			if !ok {
				return "", fmt.Errorf("context %q is not in the trace", id)
			}
			if got.Tokens%a.AppendTokens != 0 {
				return "", fmt.Errorf("agentic context %q holds %d tokens, not a whole number of %d-token turns",
					id, got.Tokens, a.AppendTokens)
			}
			for turn := 1; turn <= got.Tokens/a.AppendTokens; turn++ {
				expected = append(expected, workload.TurnTokens(a.Seed, turn, a.AppendTokens)...)
			}
		}
		ref := storage.NewMemStore()
		refMan, _, err := streamer.Publish(ctx, ref, st.codec, st.model, id, expected, streamer.PublishOptions{})
		if err != nil {
			return "", fmt.Errorf("reference publish of %q: %w", id, err)
		}
		man, err := pool.GetManifest(ctx, id)
		if err != nil {
			return "", err
		}
		if !reflect.DeepEqual(man.Hashes, refMan.Hashes) {
			return "", fmt.Errorf("context %q: stored bitstream hashes diverge from the unfaulted reference", id)
		}
		want, _, err := (&streamer.Fetcher{
			Source: storeSource{ref}, Codec: st.codec, Model: st.model, Device: llm.A40x4(), Planner: plan,
		}).Fetch(ctx, id)
		if err != nil {
			return "", fmt.Errorf("reference fetch of %q: %w", id, err)
		}
		diff, err := got.MaxAbsDiff(want)
		if err != nil {
			return "", fmt.Errorf("context %q: %w", id, err)
		}
		if diff != 0 {
			return "", fmt.Errorf("context %q: KV diverges from the unfaulted reference (max abs diff %g)", id, diff)
		}
	}
	return fmt.Sprintf("%d/%d bit-exact", len(ids), len(ids)), nil
}

// x10Columns is the cell layout shared by the X10 matrix and the
// single-cell ChaosScenario report.
func x10Columns() []string {
	return []string{"Scenario", "Fault", "Done", "SLO met", "P50 TTFT", "P99 TTFT", "Failovers", "Fault record", "KV integrity"}
}

// x10Row formats one matrix cell.
func x10Row(scenario, fault string, out *x10Outcome) []string {
	rep := out.rep
	p50, p99, slo := "-", "-", "-"
	if rep.Completed > 0 {
		sum := metrics.Summarize(metrics.Seconds(rep.AllTTFTs()))
		p50 = fmt.Sprintf("%.1f ms", sum.P50()*1e3)
		p99 = fmt.Sprintf("%.1f ms", sum.P99*1e3)
		slo = fmt.Sprintf("%.0f%%", 100*rep.SLORate())
	}
	record := "-"
	if !out.snap.Zero() {
		record = out.snap.String()
	}
	return []string{scenario, fault,
		fmt.Sprintf("%d/%d", rep.Completed, rep.Submitted),
		slo, p50, p99,
		fmt.Sprintf("%d", out.failovers),
		record, out.integrity}
}

// ChaosScenario replays one workload trace under one chaos schedule —
// a single cell of the X10 matrix, the entry point behind cachegen-exp's
// -workload-trace/-chaos flags. The schedule spec may be empty (fault-
// free replay); the chaos seed is the trace's, so one trace pins both
// the arrival schedule and the fault victims.
func ChaosScenario(tr *workload.Trace, spec string) (*Report, error) {
	if tr == nil {
		return nil, fmt.Errorf("harness: chaos scenario needs a trace")
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	st, err := newX5Stack()
	if err != nil {
		return nil, err
	}
	out, err := x10Run(st, tr, spec)
	if err != nil {
		return nil, err
	}
	faultName := "none"
	if spec != "" {
		faultName = spec
	}
	rep := &Report{
		ID:      "X10",
		Title:   fmt.Sprintf("Chaos scenario: %s under %q (3 nodes, replication 2, seed %d)", tr.Name(), spec, tr.Seed),
		Columns: x10Columns(),
	}
	rep.AddRow(x10Row(tr.Name(), faultName, out)...)
	rep.AddNote("KV integrity: after healing, every stored context's manifest hashes and decoded KV are compared bit-for-bit against an unfaulted reference publish of the same token content")
	return rep, nil
}

func runX10Chaos(f *Fixture) ([]*Report, error) {
	st, err := newX5Stack()
	if err != nil {
		return nil, err
	}
	builders := workload.Builders()
	scenarios := []string{"rag-burst", "agentic", "longdoc-qa", "flash-crowd"}

	matrix := &Report{
		ID:      "X10",
		Title:   "Chaos matrix: workload scenarios x fault classes (3 nodes, replication 2, seeded)",
		Columns: x10Columns(),
	}
	for _, name := range scenarios {
		build := builders[name]
		for _, fault := range x10Faults() {
			out, err := x10Run(st, build(workload.Params{Seed: x10Seed}), fault.spec)
			if err != nil {
				return nil, fmt.Errorf("X10 %s/%s: %w", name, fault.name, err)
			}
			matrix.AddRow(x10Row(name, fault.name, out)...)
		}
	}
	matrix.AddNote("each cell replays the scenario's seeded trace (seed %d) on a fresh fleet while the fault schedule fires against the arrival clock's t=0; faults heal mid-window, so tails mix outage and recovery", x10Seed)
	matrix.AddNote("KV integrity: after healing, every stored context's manifest hashes and decoded KV are compared bit-for-bit against an unfaulted reference publish of the same token content; corrupt runs additionally require every wire-corrupted payload to be CRC-rejected, never silently decoded")
	matrix.AddNote("faults: node-kill %s · partition %s · slow-disk %s · bw-cliff %s · corrupt %s",
		"kill@150ms+450ms", "partition@150ms+450ms", "slow-disk@50ms+600ms:2ms", "cliff@100ms+500ms:0.05Gbps", "corrupt@0s:0.25")
	return []*Report{matrix}, nil
}
