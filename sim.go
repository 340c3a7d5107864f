package cachegen

import (
	"repro/internal/netsim"
	"repro/internal/streamer"
)

// Virtual-time simulation surface: everything needed to evaluate loading
// delays and adaptation policies without a testbed — the same machinery
// the experiment harness uses to regenerate the paper's figures.

type (
	// Trace is a bandwidth profile over time.
	Trace = netsim.Trace
	// Link is a virtual-time network link driven by a Trace.
	Link = netsim.Link
	// ChunkInfo is the planner's per-chunk metadata.
	ChunkInfo = streamer.ChunkInfo
	// SimInput describes one simulated context-loading request.
	SimInput = streamer.SimInput
	// SimResult is the outcome of a simulated request.
	SimResult = streamer.SimResult
	// ChunkDecision records one chunk's configuration and timing.
	ChunkDecision = streamer.ChunkDecision
)

// Gbps converts gigabits per second to bits per second.
func Gbps(g float64) float64 { return netsim.Gbps(g) }

// ConstantTrace returns a fixed-bandwidth trace (bits per second).
func ConstantTrace(bps float64) Trace { return netsim.Constant(bps) }

// StepTrace returns a piecewise-constant trace.
var StepTrace = netsim.NewStep

// RandomTrace returns a trace re-sampled uniformly per interval.
var RandomTrace = netsim.NewRandom

// Figure7Trace returns the paper's adaptation-walkthrough trace
// (2 Gbps → 0.2 Gbps at t=2s → 1 Gbps at t=4s).
func Figure7Trace() Trace { return netsim.Figure7Trace() }

// NewLink returns a virtual-time link at time zero.
func NewLink(trace Trace) *Link { return netsim.NewLink(trace) }

// Simulate runs one context-loading request in virtual time.
func Simulate(in SimInput) (*SimResult, error) { return streamer.Simulate(in) }

// IncrementalFetch is the two-phase result of Fetcher.FetchIncremental
// (SVC-style streaming: usable base now, quality upgrade later).
type IncrementalFetch = streamer.IncrementalFetch

// BuildChunkInfos derives planner chunk metadata from stored context
// metadata plus the compute cost model.
var BuildChunkInfos = streamer.BuildChunkInfos
