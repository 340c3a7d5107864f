package sched

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/tensor"
)

// LevelText marks a resident chunk decoded from the text fallback — the
// lossless configuration, finer than any encoding level.
const LevelText = -1

// ResidentIndex is the fleet-wide resident-prefix index: which gateway
// holds which context's decoded KV in GPU memory right now, at what
// per-chunk quality. Gateways sharing one index (one per fleet) register
// finished fetches and price peer transfers against it — serving a chunk
// as already-decoded FP16 rows from a peer skips both the fleet link and
// the local decode. Entries are byte-capped LRU; a re-registration of
// the same context replaces the old residency (latest holder wins).
type ResidentIndex struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	ll      *list.List // front = most recent
	entries map[string]*list.Element
}

type residency struct {
	contextID string
	holder    string
	kv        *tensor.KV
	levels    []int // per chunk: decode-origin level, LevelText for text
	tokens    []int // per chunk token counts
	offsets   []int // per chunk token offsets into kv
}

// NewResidentIndex returns an index capped at capBytes of resident KV
// (FP16 accounting; 0 means 256 MiB).
func NewResidentIndex(capBytes int64) *ResidentIndex {
	if capBytes <= 0 {
		capBytes = 256 << 20
	}
	return &ResidentIndex{cap: capBytes, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Register records that holder now has contextID's KV resident, decoded
// at the given per-chunk origin levels. The index clones kv — the
// gateway hands its tensor to the model right after, and the index must
// keep serving the registered bytes.
func (x *ResidentIndex) Register(contextID, holder string, kv *tensor.KV, levels, tokens []int) {
	if kv == nil || len(levels) == 0 || len(levels) != len(tokens) {
		return
	}
	total := 0
	offsets := make([]int, len(tokens))
	for i, n := range tokens {
		offsets[i] = total
		total += n
	}
	if total != kv.Tokens {
		return
	}
	size := kv.SizeBytesFP16()
	if size > x.cap {
		return
	}
	r := &residency{
		contextID: contextID,
		holder:    holder,
		kv:        kv.Clone(),
		levels:    append([]int(nil), levels...),
		tokens:    append([]int(nil), tokens...),
		offsets:   offsets,
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if el, ok := x.entries[contextID]; ok {
		x.used -= el.Value.(*residency).kv.SizeBytesFP16()
		x.ll.Remove(el)
	}
	x.entries[contextID] = x.ll.PushFront(r)
	x.used += size
	for x.used > x.cap {
		el := x.ll.Back()
		if el == nil {
			break
		}
		old := el.Value.(*residency)
		x.ll.Remove(el)
		delete(x.entries, old.contextID)
		x.used -= old.kv.SizeBytesFP16()
	}
}

// Lookup reports whether some gateway other than notHolder has chunk
// `chunk` of contextID resident, and at what origin level (LevelText for
// lossless). It does not promote — only actual transfers refresh the LRU.
func (x *ResidentIndex) Lookup(contextID string, chunk int, notHolder string) (level int, ok bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	el, found := x.entries[contextID]
	if !found {
		return 0, false
	}
	r := el.Value.(*residency)
	if r.holder == notHolder || chunk < 0 || chunk >= len(r.levels) {
		return 0, false
	}
	return r.levels[chunk], true
}

// slice clones one resident chunk's token rows for transfer.
func (x *ResidentIndex) slice(contextID string, chunk int, notHolder string) (*tensor.KV, int, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	el, found := x.entries[contextID]
	if !found {
		return nil, 0, fmt.Errorf("sched: context %q not resident anywhere", contextID)
	}
	r := el.Value.(*residency)
	if r.holder == notHolder {
		return nil, 0, fmt.Errorf("sched: context %q resident only on the requester", contextID)
	}
	if chunk < 0 || chunk >= len(r.levels) {
		return nil, 0, fmt.Errorf("sched: chunk %d outside context %q (%d chunks)", chunk, contextID, len(r.levels))
	}
	part, err := r.kv.SliceTokens(r.offsets[chunk], r.offsets[chunk]+r.tokens[chunk])
	if err != nil {
		return nil, 0, err
	}
	x.ll.MoveToFront(el)
	return part, r.levels[chunk], nil
}

// Len returns the number of resident contexts.
func (x *ResidentIndex) Len() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.entries)
}

// Bytes returns the resident FP16 byte total.
func (x *ResidentIndex) Bytes() int64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.used
}

// peerClient serves streamer.PeerSource for one gateway: a modelled
// gateway-to-gateway transfer of a peer's resident chunk. The delay is
// peerRTT plus the FP16 rows over the peer link — paid in real time, so
// the cost model's estimate and the delivered latency agree.
type peerClient struct {
	idx  *ResidentIndex
	self string
}

func (c *peerClient) FetchResident(ctx context.Context, contextID string, chunk int) (*tensor.KV, int, error) {
	part, level, err := c.idx.slice(contextID, chunk, c.self)
	if err != nil {
		return nil, 0, err
	}
	delay := peerRTT + netsim.TransferTime(part.SizeBytesFP16(), peerBandwidthBPS)
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	case <-t.C:
	}
	return part, level, nil
}
