package sched

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/streamer"
)

// Request describes one fetch the scheduler is planning for.
type Request struct {
	// ContextID is the context being fetched (keys the resident index).
	ContextID string
	// SLO is the tenant's TTFT objective; zero pins quality at
	// DefaultLevel (+Rung) and only the source choice floats.
	SLO time.Duration
	// DefaultLevel is the configured encoding level.
	DefaultLevel core.Level
	// Rung is the degradation-ladder rung (streamer.Terms.Rung): quality
	// is capped at DefaultLevel+Rung, and a rung past the coarsest level
	// is a cost comparison between the coarsest level at its cheapest
	// source and text recompute, so a forced-down request still takes the
	// cheaper path instead of always burning GPU.
	Rung int
	// Concurrency overrides the link-sharing factor N_c; zero uses the
	// scheduler's live count of in-flight plans.
	Concurrency int
}

// Plan prices every chunk of one request across all sources and lets
// Algorithm 1 (streamer.Decide) pick the minimum-TTFT mix. It implements
// streamer.PathPolicy: the Fetcher consults PlanPath once to learn
// whether any chunk needs per-chunk delivery (a local or peer source),
// then Choose per chunk — repeatedly at streaming decision points, where
// the hysteresis band suppresses re-plans until an estimate drifts.
//
// A Plan is not safe for concurrent use: the Fetcher calls it from a
// single goroutine, which is what lets Choose park the live signals of
// the decision in progress on the Plan for its pricing methods to read.
// Choose is allocation-free after the first call primes the candidate
// tables.
type Plan struct {
	s   *Scheduler
	req Request

	// Live signals of the decision in progress, set by Choose.
	bw     float64 // fleet-link estimate, bits/s
	conc   int     // N_c
	busy   int     // decode slots busy elsewhere
	chunks []streamer.ChunkInfo

	primed bool
	n      int // chunks
	levels int

	// Candidate tables, primed once per plan. Flat [chunk*levels+lv]
	// layouts; streamer.Unreachable marks an absent candidate.
	// Fixed-shape tiers (ram, disk, peer) are priced fully at prime time;
	// network tiers keep the per-node latency and are re-priced per
	// decision against the live bandwidth estimate and concurrency.
	ramCost  []time.Duration
	diskCost []time.Duration
	peerCost []time.Duration
	remLat   []time.Duration
	remX     []bool          // remLat candidate is cross-region
	textLat  []time.Duration // [chunk] text-payload node latency
	tokens   []int           // [chunk] token counts, for residency registration

	last     []streamer.Choice // [chunk] previous decision
	lastSet  []bool
	counted  []bool // [chunk] first decision already counted
	anyLocal bool
	done     bool
}

var _ streamer.PathPolicy = (*Plan)(nil)

// sourceLabels maps the Source enum onto the streamer's source-class
// strings (constants, so routing a Choice never allocates).
var sourceLabels = [numSources]string{
	Remote:    streamer.SourceRemote,
	RAM:       streamer.SourceRAM,
	Disk:      streamer.SourceDisk,
	XRegion:   streamer.SourceXRegion,
	Recompute: streamer.SourceRecompute,
	Peer:      streamer.SourcePeer,
}

// PlanPath primes the candidate tables and tells the Fetcher whether the
// streaming fast path is still usable: it is, unless some chunk has a
// local or peer candidate that the one-stream fleet path couldn't serve.
func (p *Plan) PlanPath(chunks []streamer.ChunkInfo) streamer.PathHint {
	if !p.primed {
		p.prime(chunks)
	}
	if p.anyLocal {
		return streamer.PathChunks
	}
	return streamer.PathAuto
}

// prime builds the per-chunk candidate tables from the annotated chunk
// metadata, the payload cache, the colocated store, the resident index,
// placement and the resilience manager's health view.
func (p *Plan) prime(chunks []streamer.ChunkInfo) {
	n := len(chunks)
	nl := 0
	if n > 0 {
		nl = len(chunks[0].SizesByLevel)
	}
	p.n, p.levels = n, nl
	p.ramCost = make([]time.Duration, n*nl)
	p.diskCost = make([]time.Duration, n*nl)
	p.peerCost = make([]time.Duration, n*nl)
	p.remLat = make([]time.Duration, n*nl)
	p.remX = make([]bool, n*nl)
	p.textLat = make([]time.Duration, n)
	p.tokens = make([]int, n)
	p.last = make([]streamer.Choice, n)
	p.lastSet = make([]bool, n)
	p.counted = make([]bool, n)
	p.primed = true

	s := p.s
	sig := s.sig
	ctx := context.Background()
	for ci := 0; ci < n; ci++ {
		info := &chunks[ci]
		p.tokens[ci] = info.Tokens

		// Peer: a gateway with the decoded KV resident can ship finished
		// FP16 rows. Quality never degrades — the resident copy serves a
		// level only if its decode origin was that level or finer (text
		// is lossless, finer than any level).
		peerLevel, peerOK := -2, false
		if s.opt.Residents != nil && info.Context != "" {
			peerLevel, peerOK = s.opt.Residents.Lookup(info.Context, info.Index, s.opt.ID)
		}
		peerPrice := streamer.Unreachable
		if peerOK {
			peerPrice = sig.PeerRTT + netsim.TransferTime(info.KVBytes, sig.PeerBandwidthBPS)
		}

		for lv := 0; lv < nl; lv++ {
			k := ci*nl + lv
			p.ramCost[k] = streamer.Unreachable
			p.diskCost[k] = streamer.Unreachable
			p.peerCost[k] = streamer.Unreachable

			var hash string
			if lv < len(info.HashByLevel) {
				hash = info.HashByLevel[lv]
			}
			if hash != "" {
				if s.cache.Has(hash) {
					p.ramCost[k] = netsim.TransferTime(info.SizesByLevel[lv], sig.RAMBandwidthBPS)
					p.anyLocal = true
				}
				if s.opt.DiskStore != nil {
					if ok, err := s.opt.DiskStore.TouchChunk(ctx, hash); err == nil && ok {
						p.diskCost[k] = sig.DiskRTT + netsim.TransferTime(info.SizesByLevel[lv], sig.DiskBandwidthBPS)
						p.anyLocal = true
					}
				}
			}
			if peerOK && (peerLevel == LevelText || peerLevel <= lv) {
				p.peerCost[k] = peerPrice
				p.anyLocal = true
			}
			p.remLat[k], p.remX[k] = p.nodeLatency(hash)
		}
		p.textLat[ci], _ = p.nodeLatency(info.TextHash)
		if info.TextHash == "" && info.Context != "" {
			// Annotated chunk published without a text payload: the
			// recompute fallback has nothing to fetch.
			p.textLat[ci] = streamer.Unreachable
		}
	}
}

// nodeLatency estimates the round-trip to the healthiest node serving a
// hash, and whether that node is in another region. An empty hash (bare
// chunk metadata, e.g. simulation) prices at the same-region prior; a
// hash whose every replica is dead or breaker-open is unreachable.
func (p *Plan) nodeLatency(hash string) (time.Duration, bool) {
	sig := p.s.sig
	if hash == "" || p.s.opt.Locator == nil {
		return sig.RTT, false
	}
	nodes := p.s.opt.Locator.ChunkNodes(hash)
	if len(nodes) == 0 {
		return sig.RTT, false
	}
	res := p.s.opt.Resilience
	if res != nil {
		ordered, allDead := res.Order(nodes)
		if allDead {
			return streamer.Unreachable, false
		}
		nodes = ordered
	}
	for _, nd := range nodes {
		if res != nil && !res.Allow(nd) {
			continue
		}
		lat := sig.RTT
		if res != nil {
			if hd, ok := res.HedgeDelay(nd); ok && hd > lat {
				lat = hd
			}
		}
		if reg, ok := p.s.opt.Regions[nd]; ok && p.s.opt.LocalRegion != "" && reg != p.s.opt.LocalRegion {
			return lat + sig.XRegionRTT, true
		}
		return lat, false
	}
	return streamer.Unreachable, false
}

// Choose prices chunk idx across every (configuration, source) pair and
// returns the one minimising expected TTFT under the request's SLO and
// rung. Repeat calls for the same chunk pass through the hysteresis
// band: the previous decision is kept unless the fresh best improves on
// its re-priced cost by more than the band (or the previous decision
// became unreachable).
func (p *Plan) Choose(idx int, elapsed time.Duration, throughputBPS float64, chunks []streamer.ChunkInfo) (streamer.Choice, error) {
	if !p.primed {
		p.prime(chunks)
	}
	if idx < 0 || idx >= p.n || len(chunks) != p.n {
		return streamer.Choice{}, fmt.Errorf("sched: chunk index %d outside plan of %d chunks (%d given)", idx, p.n, len(chunks))
	}
	if p.levels == 0 {
		return streamer.Choice{}, fmt.Errorf("sched: chunk metadata carries no levels")
	}

	p.chunks = chunks
	p.bw = throughputBPS
	if p.bw <= 0 {
		p.bw = p.s.Bandwidth()
	}
	if p.bw <= 0 {
		p.bw = p.s.sig.BandwidthBPS
	}
	p.conc = p.req.Concurrency
	if p.conc < 1 {
		p.conc = int(p.s.active.Load())
	}
	p.busy = 0
	if p.s.slots != nil {
		// The plan's own request already holds a slot (the gateway grants
		// before fetching); price recompute against the others.
		if b := p.s.slots.Busy(); b > 1 {
			p.busy = b - 1
		}
	}

	pr := (*prices)(p)
	choice, cost := streamer.Decide(pr,
		streamer.Terms{SLO: p.req.SLO, DefaultLevel: p.req.DefaultLevel, Rung: p.req.Rung}, idx, elapsed)

	if p.lastSet[idx] && choice != p.last[idx] {
		prev := pr.configCost(idx, p.last[idx])
		if prev != streamer.Unreachable && cost != streamer.Unreachable &&
			float64(prev-cost) <= DefaultHysteresis*float64(prev) {
			choice = p.last[idx]
			if p.s.tele != nil {
				p.s.tele.holds.Inc()
			}
		} else if p.s.tele != nil {
			p.s.tele.replans.Inc()
		}
	}
	p.last[idx] = choice
	p.lastSet[idx] = true
	if !p.counted[idx] {
		p.counted[idx] = true
		if p.s.tele != nil {
			p.s.tele.decisions.Inc()
		}
	}
	return choice, nil
}

// prices is the Plan as the streamer.Prices table Decide reads. Its
// methods price against the signals Choose parked on the Plan, so they
// mean nothing between decisions — a separate type keeps them off Plan's
// exported surface.
type prices Plan

func (p *prices) Dims() (int, int) { return p.n, p.levels }

// Price is the cheapest way to deliver chunk ci at wire level lv. Text
// (storage.TextLevel) is its payload over the fleet plus GPU recompute, scaled by
// decode-slot contention: each busy slot elsewhere stretches the prefill
// by one GPU-share.
func (p *prices) Price(ci, lv int) (time.Duration, string) {
	if lv == storage.TextLevel {
		net := streamer.AddCost(p.textLat[ci], streamer.ScaleCost(netsim.TransferTime(p.chunks[ci].TextBytes, p.bw), p.conc))
		return streamer.AddCost(net, streamer.ScaleCost(p.chunks[ci].Recompute, 1+p.busy)), sourceLabels[Recompute]
	}
	k := ci*p.levels + lv
	best, src := p.ramCost[k], RAM
	if c := p.diskCost[k]; c < best {
		best, src = c, Disk
	}
	if c := p.peerCost[k]; c < best {
		best, src = c, Peer
	}
	if c := p.remote(ci, lv); c < best {
		best, src = c, Remote
		if p.remX[k] {
			src = XRegion
		}
	}
	if best == streamer.Unreachable {
		src = Remote
	}
	return best, sourceLabels[src]
}

// remote prices chunk ci at level lv over the fleet link: the serving
// node's latency plus the N_c-scaled transfer at the live estimate.
func (p *prices) remote(ci, lv int) time.Duration {
	return streamer.AddCost(p.remLat[ci*p.levels+lv],
		streamer.ScaleCost(netsim.TransferTime(p.chunks[ci].SizesByLevel[lv], p.bw), p.conc))
}

// configCost re-prices a previously returned choice at current signals.
func (p *prices) configCost(idx int, c streamer.Choice) time.Duration {
	if c.Text {
		tc, _ := p.Price(idx, storage.TextLevel)
		return tc
	}
	lv := int(c.Level)
	if lv < 0 || lv >= p.levels {
		return streamer.Unreachable
	}
	k := idx*p.levels + lv
	switch c.Source {
	case streamer.SourceRAM:
		return p.ramCost[k]
	case streamer.SourceDisk:
		return p.diskCost[k]
	case streamer.SourcePeer:
		return p.peerCost[k]
	default:
		return p.remote(idx, lv)
	}
}
