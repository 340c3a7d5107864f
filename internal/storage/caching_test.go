package storage

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// chash derives a distinct valid content hash per test key and, via
// cpayload, a payload that actually hashes to it.
func cpayload(k int, size int) []byte {
	p := make([]byte, size)
	seed := []byte(fmt.Sprintf("payload-%d", k))
	copy(p, seed)
	return p
}

func chash(k int, size int) string { return HashChunk(cpayload(k, size)) }

func TestCachingStoreHitMissEvict(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	// Budget for exactly two 100-byte payloads.
	cs := NewCachingStore(inner, 200)

	for i := 0; i < 3; i++ {
		if err := cs.PutChunk(ctx, chash(i, 100), cpayload(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// PutChunk is write-through but read-allocate: nothing cached yet.
	if st := cs.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("PutChunk populated the cache: %+v", st)
	}

	// First reads miss and populate; repeats hit.
	for i := 0; i < 2; i++ {
		if _, err := cs.GetChunk(ctx, chash(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cs.GetChunk(ctx, chash(0, 100)); err != nil {
		t.Fatal(err)
	}
	st := cs.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("after warmup: %+v", st)
	}

	// A third distinct payload evicts the LRU entry (chunk 1: chunk 0 was
	// re-read last).
	if _, err := cs.GetChunk(ctx, chash(2, 100)); err != nil {
		t.Fatal(err)
	}
	st = cs.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 200 {
		t.Fatalf("after eviction: %+v", st)
	}
	// Chunk 0 must still be resident (a hit), chunk 1 gone (a miss).
	hitsBefore := st.Hits
	if _, err := cs.GetChunk(ctx, chash(0, 100)); err != nil {
		t.Fatal(err)
	}
	if st = cs.Stats(); st.Hits != hitsBefore+1 {
		t.Errorf("chunk 0 was evicted instead of chunk 1: %+v", st)
	}
	missesBefore := st.Misses
	if _, err := cs.GetChunk(ctx, chash(1, 100)); err != nil {
		t.Fatal(err)
	}
	if st = cs.Stats(); st.Misses != missesBefore+1 {
		t.Errorf("chunk 1 still resident after eviction: %+v", st)
	}

	if rate := st.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %.2f out of range", rate)
	}
}

func TestCachingStoreOversizedAndDisabled(t *testing.T) {
	ctx := context.Background()
	cs := NewCachingStore(NewMemStore(), 50)
	if err := cs.PutChunk(ctx, chash(0, 100), cpayload(0, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.GetChunk(ctx, chash(0, 100)); err != nil {
		t.Fatal(err)
	}
	if st := cs.Stats(); st.Entries != 0 {
		t.Errorf("payload above the whole budget was admitted: %+v", st)
	}

	off := NewCachingStore(NewMemStore(), 0)
	if err := off.PutChunk(ctx, chash(1, 8), cpayload(1, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := off.GetChunk(ctx, chash(1, 8)); err != nil {
		t.Fatal(err)
	}
	if st := off.Stats(); st.Entries != 0 || st.Hits != 0 {
		t.Errorf("disabled cache cached anyway: %+v", st)
	}
}

func TestCachingStoreSweepInvalidates(t *testing.T) {
	ctx := context.Background()
	cs := NewCachingStore(NewMemStore(), 1000)
	hash := chash(0, 64)
	if err := cs.PutChunk(ctx, hash, cpayload(0, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.GetChunk(ctx, hash); err != nil { // allocate in RAM
		t.Fatal(err)
	}
	// The payload is unreferenced: a sweep through the caching tier must
	// reclaim it below AND drop the RAM copy, so the tier cannot serve
	// bytes the backing store no longer holds.
	res, err := cs.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedChunks != 1 {
		t.Fatalf("sweep = %+v", res)
	}
	if st := cs.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("cache retains swept payload: %+v", st)
	}
	if _, err := cs.GetChunk(ctx, hash); !errors.Is(err, ErrNotFound) {
		t.Errorf("swept chunk still served: %v", err)
	}
}

func TestCachingStoreDeleteContextKeepsSharedPayloads(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cs := NewCachingStore(inner, 1<<20)
	a := testManifest(t, cs, "cache/a")
	if err := cs.PutManifest(ctx, a); err != nil {
		t.Fatal(err)
	}
	b := testManifest(t, cs, "cache/b")
	b.Hashes[0][0] = a.Hashes[0][0] // share one payload
	if err := cs.PutManifest(ctx, b); err != nil {
		t.Fatal(err)
	}
	shared := a.Hashes[0][0]
	if _, err := cs.GetChunk(ctx, shared); err != nil { // warm the RAM tier
		t.Fatal(err)
	}
	if err := cs.DeleteContext(ctx, "cache/a"); err != nil {
		t.Fatal(err)
	}
	// Deletion must NOT invalidate the shared payload: B still references
	// it, and only Sweep reclaims bytes.
	if _, err := cs.GetChunk(ctx, shared); err != nil {
		t.Errorf("shared payload lost on delete: %v", err)
	}
	if _, err := cs.Sweep(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.GetChunk(ctx, shared); err != nil {
		t.Errorf("shared payload swept while referenced: %v", err)
	}
}

// TestCachingStoreConcurrentStress hammers one store from many
// goroutines (run under -race in CI): correctness of returned payloads
// and of the byte accounting under heavy put/get/evict churn.
func TestCachingStoreConcurrentStress(t *testing.T) {
	ctx := context.Background()
	inner := NewMemStore()
	cs := NewCachingStore(inner, 4<<10) // small budget: constant eviction

	const (
		workers = 8
		keys    = 64
		rounds  = 300
	)
	// Payload content is derived from the key, so any cross-key mixup is
	// detectable no matter which worker wrote last.
	hashes := make([]string, keys)
	for k := 0; k < keys; k++ {
		hashes[k] = chash(k, 128)
		if err := cs.PutChunk(ctx, hashes[k], cpayload(k, 128)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				k := rng.Intn(keys)
				if rng.Intn(4) == 0 {
					if err := cs.PutChunk(ctx, hashes[k], cpayload(k, 128)); err != nil {
						errCh <- err
						return
					}
					continue
				}
				got, err := cs.GetChunk(ctx, hashes[k])
				if err != nil {
					errCh <- err
					return
				}
				if HashChunk(got) != hashes[k] {
					errCh <- fmt.Errorf("key %d served foreign payload", k)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	st := cs.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache over budget after churn: %+v", st)
	}
	if st.Hits+st.Misses == 0 {
		t.Error("stress recorded no reads")
	}
	// Recount the resident bytes against the accounting.
	var total int64
	for k := 0; k < keys; k++ {
		if data, ok := cs.lru.Get(hashes[k]); ok {
			total += int64(len(data))
		}
	}
	if total != st.Bytes {
		t.Errorf("resident payloads sum to %d, accounting says %d", total, st.Bytes)
	}
}

func TestPayloadLRU(t *testing.T) {
	c := NewPayloadLRU(100)
	c.Put("a", make([]byte, 40))
	c.Put("b", make([]byte, 40))
	c.Get("a") // promote a; b is now the eviction victim
	c.Put("c", make([]byte, 40))
	if c.Has("b") {
		t.Fatal("least-recent entry survived eviction")
	}
	if !c.Has("a") || !c.Has("c") {
		t.Fatal("promoted or fresh entry evicted")
	}
	c.Drop("a")
	if c.Has("a") {
		t.Fatal("dropped entry still resident")
	}
	if got := c.Bytes(); got != 40 {
		t.Fatalf("resident bytes = %d, want 40", got)
	}
	if got := c.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1 (a Drop is not an eviction)", got)
	}
}
