package storage

import (
	"container/list"
	"sync"
)

// PayloadLRU is a byte-budgeted LRU of encoded chunk payloads keyed by
// content hash — the one RAM-tier structure, used as is by the
// scheduler's gateway-local payload cache (the fetcher writes through on
// every network fetch and reads when the cost model routes a chunk to the
// "ram" source) and, behind counters and a copy at the boundary, by
// CachingStore. Because payloads are content-addressed, a hit is always
// the exact bytes the manifest asked for, across requests and across
// contexts sharing chunks. It stores and returns slices without copying:
// callers treat them as read-only. Safe for concurrent use.
type PayloadLRU struct {
	mu      sync.Mutex
	cap     int64
	used    int64
	evicted uint64
	ll      *list.List               // front = most recent
	items   map[string]*list.Element // hash → element
}

type cacheEntry struct {
	hash string
	data []byte
}

// NewPayloadLRU returns an LRU holding at most capBytes of payload; ≤0
// admits nothing.
func NewPayloadLRU(capBytes int64) *PayloadLRU {
	return &PayloadLRU{cap: capBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the cached payload and promotes it.
func (c *PayloadLRU) Get(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[hash]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// Has reports residency without returning the payload (used by the cost
// model at plan time; it still promotes, since pricing a chunk at the
// RAM tier is a strong signal it is about to be read).
func (c *PayloadLRU) Has(hash string) bool {
	_, ok := c.Get(hash)
	return ok
}

// Put inserts a payload, evicting least-recent entries past the cap.
// Payloads larger than the whole cap are not cached.
func (c *PayloadLRU) Put(hash string, data []byte) {
	n := int64(len(data))
	if n == 0 || n > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		c.ll.MoveToFront(el)
		c.used += n - int64(len(el.Value.(*cacheEntry).data))
		el.Value.(*cacheEntry).data = data
	} else {
		c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, data: data})
		c.used += n
	}
	for c.used > c.cap {
		el := c.ll.Back()
		if el == nil {
			break
		}
		c.remove(el)
		c.evicted++
	}
}

// Drop removes a payload: one that failed integrity verification, so the
// refetch cannot hit the same bytes, or one the store beneath has swept.
func (c *PayloadLRU) Drop(hash string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[hash]; ok {
		c.remove(el)
	}
}

func (c *PayloadLRU) remove(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, ent.hash)
	c.used -= int64(len(ent.data))
}

// Len returns the number of resident payloads.
func (c *PayloadLRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes returns the resident byte total.
func (c *PayloadLRU) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Evictions returns how many payloads the byte budget has pushed out
// (Drop does not count).
func (c *PayloadLRU) Evictions() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}
