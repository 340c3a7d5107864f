package streamer

import (
	"fmt"
	"time"

	"repro/internal/llm"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// SimInput describes one simulated context-loading request.
type SimInput struct {
	// Chunks is the per-chunk metadata (BuildChunkInfos derives it from a
	// stored context's metadata plus the cost model).
	Chunks []ChunkInfo
	// TotalTokens is the context length.
	TotalTokens int
	// Link is the virtual-time link the request streams over.
	Link *netsim.Link
	// Planner holds the adaptation policy.
	Planner Planner
	// Model and Device drive compute-time accounting.
	Model  llm.Config
	Device llm.Device
	// Share is the fraction of the device this request gets (1/n under n
	// concurrent requests). Zero means 1.
	Share float64
	// SuffixTokens is the user prompt length prefilled after the context
	// loads (the query itself; footnote 4: the remaining forward pass is
	// marginal). Zero means 32.
	SuffixTokens int
}

// ChunkDecision records what happened to one chunk in a run.
type ChunkDecision struct {
	Chunk      int
	Choice     Choice        // the configuration the chunk finally landed at
	Bytes      int64         // bytes of the delivered payload
	Abandoned  int64         // bytes sent then discarded by mid-chunk cancels
	Transfer   time.Duration // network time for this chunk
	Compute    time.Duration // decode or recompute time
	Throughput float64       // measured bits/s
	// Source is the delivered source class ("ram", "disk", "remote",
	// "recompute"; see the Source* constants). Live
	// fetches always fill it; simulation leaves it empty.
	Source string
}

// SimResult is the outcome of one simulated request.
type SimResult struct {
	TTFT      time.Duration
	Decisions []ChunkDecision
	// BytesSent is the total on-wire size (the "size of KV cache" metric).
	BytesSent int64
	// NetworkTime is the cumulative transfer time; ComputeTime the
	// cumulative decode/recompute time (some of it overlapped); SuffixTime
	// the prompt prefill after loading.
	NetworkTime, ComputeTime, SuffixTime time.Duration
	// SLOMet reports whether TTFT ≤ SLO (always true when SLO is unset).
	SLOMet bool
}

// TextOnly reports whether every chunk fell back to text.
func (r *SimResult) TextOnly() bool {
	for _, d := range r.Decisions {
		if !d.Choice.Text {
			return false
		}
	}
	return len(r.Decisions) > 0
}

// BuildChunkInfos derives the planner's chunk metadata from a stored
// context's metadata and the compute cost model. share is the GPU share
// used for recompute estimates.
func BuildChunkInfos(meta storage.ContextMeta, model llm.Config, dev llm.Device, share float64) ([]ChunkInfo, error) {
	if err := meta.Validate(); err != nil {
		return nil, err
	}
	out := make([]ChunkInfo, meta.NumChunks())
	prefix := 0
	for i := range out {
		info := ChunkInfo{Tokens: meta.ChunkTokens[i]}
		info.SizesByLevel = make([]int64, meta.Levels)
		for lv := 0; lv < meta.Levels; lv++ {
			info.SizesByLevel[lv] = meta.SizesBytes[lv][i]
		}
		if len(meta.TextBytes) > 0 {
			info.TextBytes = meta.TextBytes[i]
		} else {
			info.TextBytes = int64(meta.ChunkTokens[i]) * llm.TextBytesPerToken
		}
		info.Recompute = model.MarginalPrefillTime(prefix, meta.ChunkTokens[i], dev, share)
		prefix += meta.ChunkTokens[i]
		out[i] = info
	}
	return out, nil
}

// Simulate runs one context-loading request in virtual time, applying the
// planner per chunk, pipelining decode with transmission, and accounting
// TTFT as the paper defines it: from request arrival to the first output
// token (KV load + prompt prefill).
func Simulate(in SimInput) (*SimResult, error) {
	if len(in.Chunks) == 0 {
		return nil, fmt.Errorf("streamer: no chunks to stream")
	}
	if in.Link == nil {
		return nil, fmt.Errorf("streamer: nil link")
	}
	share := in.Share
	if share <= 0 || share > 1 {
		share = 1
	}
	suffix := in.SuffixTokens
	if suffix == 0 {
		suffix = 32
	}

	link := in.Link
	start := link.Now()
	// ready is the virtual time at which every chunk so far is decoded (or
	// recomputed) and resident in GPU memory.
	ready := start
	var throughput float64 // ≤0: unknown
	res := &SimResult{}

	for i := range in.Chunks {
		elapsed := link.Now() - start
		choice, err := in.Planner.Choose(i, elapsed, throughput, in.Chunks)
		if err != nil {
			return nil, err
		}
		ch := in.Chunks[i]

		var bytes int64
		var compute time.Duration
		if choice.Text {
			bytes = ch.TextBytes
			compute = ch.Recompute
		} else {
			bytes = ch.SizesByLevel[choice.Level]
			compute = in.Device.DecodeTime(bytes)
		}

		link.Advance(in.Planner.RTT)
		dur, err := link.Transfer(bytes)
		if err != nil {
			return nil, fmt.Errorf("streamer: chunk %d: %w", i, err)
		}
		transferEnd := link.Now()
		throughput = netsim.Throughput(bytes, dur)

		// Decode/recompute of chunk i overlaps transfer of chunk i+1, but
		// depends on chunk i's arrival and chunk i−1's readiness.
		ready = maxTime(ready, transferEnd) + compute

		res.Decisions = append(res.Decisions, ChunkDecision{
			Chunk: i, Choice: choice, Bytes: bytes,
			Transfer: dur, Compute: compute, Throughput: throughput,
		})
		res.BytesSent += bytes
		res.NetworkTime += dur
		res.ComputeTime += compute
	}

	res.SuffixTime = in.Model.MarginalPrefillTime(in.TotalTokens, suffix, in.Device, share)
	ttftEnd := maxTime(link.Now(), ready) + res.SuffixTime
	res.TTFT = ttftEnd - start
	res.SLOMet = in.Planner.SLO <= 0 || res.TTFT <= in.Planner.SLO
	return res, nil
}

func maxTime(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
