package storage

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// FuzzManifestIndex feeds arbitrary bytes through the manifest decoder
// and Validate. A manifest that validates is put into a MemStore, every
// dedup-index entry it vouches for is looked up, and it is deleted: the
// store must then hold no index entry and no refcount. No input may
// panic.
func FuzzManifestIndex(f *testing.F) {
	m := Manifest{
		Meta: ContextMeta{ContextID: "fuzz", TokenCount: 3, ChunkTokens: []int{2, 1}, Levels: 2,
			SizesBytes: [][]int64{{4, 5}, {6, 7}}, TextBytes: []int64{8, 9}},
		Hashes:       map[int][]string{},
		ChainDigests: []string{"c0", "c1"},
		Producer:     "p",
	}
	for _, lv := range []int{0, 1, TextLevel} {
		m.Hashes[lv] = []string{HashChunk([]byte{byte(lv), 0}), HashChunk([]byte{byte(lv), 1})}
	}
	seed, err := json.Marshal(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	m.Producer = ""
	anon, _ := json.Marshal(m)
	f.Add(anon)
	f.Add([]byte(`{"meta":{"context_id":"x","levels":1,"sizes_bytes":[[]]},"hashes":{"0":[]},"producer":"p"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Manifest
		if json.Unmarshal(data, &m) != nil || m.Validate() != nil {
			return
		}
		ctx := context.Background()
		s := NewMemStore()
		if err := s.PutManifest(ctx, m); err != nil {
			t.Fatalf("PutManifest of a valid manifest: %v", err)
		}
		for d, want := range m.fingerprints() {
			key := hex.EncodeToString(d[:])
			if got, err := s.GetFingerprint(ctx, key); err != nil || got != want {
				t.Fatalf("GetFingerprint(%s) = %+v, %v; want %+v", key, got, err, want)
			}
		}
		if err := s.DeleteContext(ctx, m.Meta.ContextID); err != nil {
			t.Fatalf("DeleteContext: %v", err)
		}
		if len(s.fps) != 0 || len(s.refs) != 0 {
			t.Fatalf("after the delete the store holds %d index entries and %d refcounts", len(s.fps), len(s.refs))
		}
	})
}
