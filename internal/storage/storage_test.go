package storage

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testMeta(id string) ContextMeta {
	return ContextMeta{
		ContextID:   id,
		Model:       "test",
		TokenCount:  250,
		ChunkTokens: []int{100, 100, 50},
		Levels:      2,
		SizesBytes:  [][]int64{{10, 10, 5}, {6, 6, 3}},
		TextBytes:   []int64{400, 400, 200},
	}
}

// testManifest builds a manifest over synthetic payloads derived from the
// context id and stores those payloads in s, so refcounts are realistic.
// Its producer and chain digests make it vouch for its level payloads in
// the dedup index.
func testManifest(t *testing.T, s Store, id string) Manifest {
	t.Helper()
	ctx := context.Background()
	meta := testMeta(id)
	m := Manifest{Meta: meta, Hashes: map[int][]string{}, Producer: "test-producer"}
	for c := range meta.NumChunks() {
		m.ChainDigests = append(m.ChainDigests, fmt.Sprintf("%s|chain%d", id, c))
	}
	for _, lv := range []int{0, 1, TextLevel} {
		row := make([]string, meta.NumChunks())
		for c := range row {
			payload := []byte(fmt.Sprintf("%s|%d|%d", id, lv, c))
			h := HashChunk(payload)
			if err := s.PutChunk(ctx, h, payload); err != nil {
				t.Fatalf("PutChunk: %v", err)
			}
			row[c] = h
		}
		m.Hashes[lv] = row
	}
	return m
}

// checkFingerprints checks that s answers GetFingerprint for every level
// payload of m when live, and for none of them otherwise.
func checkFingerprints(t *testing.T, s Store, m Manifest, live bool) {
	t.Helper()
	n := 0
	for d, want := range m.fingerprints() {
		n++
		got, err := s.GetFingerprint(context.Background(), hex.EncodeToString(d[:]))
		if live && (err != nil || got != want) {
			t.Errorf("%s: GetFingerprint = %+v, %v; want %+v", m.Meta.ContextID, got, err, want)
		}
		if !live && !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: GetFingerprint = %+v, %v; want ErrNotFound", m.Meta.ContextID, got, err)
		}
	}
	if want := m.Meta.Levels * m.Meta.NumChunks(); n != want {
		t.Errorf("%s vouches for %d payloads, want %d", m.Meta.ContextID, n, want)
	}
}

// storeTest exercises a Store implementation through its full lifecycle.
func storeTest(t *testing.T, s Store) {
	t.Helper()
	ctx := context.Background()

	missingHash := HashChunk([]byte("missing"))
	if _, err := s.GetChunk(ctx, missingHash); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetChunk missing: %v", err)
	}
	if ok, err := s.TouchChunk(ctx, missingHash); err != nil || ok {
		t.Errorf("TouchChunk missing = %v, %v", ok, err)
	}
	if _, err := s.GetManifest(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetManifest missing: %v", err)
	}
	if err := s.DeleteContext(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("DeleteContext missing: %v", err)
	}
	if _, err := s.GetFingerprint(ctx, "ab12"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetFingerprint missing: %v", err)
	}

	// Chunk round trip; PutChunk is idempotent.
	payload := []byte{1, 2, 3, 4, 5}
	hash := HashChunk(payload)
	for i := 0; i < 2; i++ {
		if err := s.PutChunk(ctx, hash, payload); err != nil {
			t.Fatalf("PutChunk (round %d): %v", i, err)
		}
	}
	got, err := s.GetChunk(ctx, hash)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetChunk = %v, %v", got, err)
	}
	// Returned data must be a copy (MemStore) or a fresh read (FileStore).
	got[0] = 99
	again, _ := s.GetChunk(ctx, hash)
	if again[0] == 99 {
		t.Error("GetChunk returns aliased data")
	}
	if ok, err := s.TouchChunk(ctx, hash); err != nil || !ok {
		t.Errorf("TouchChunk existing = %v, %v", ok, err)
	}

	// Manifest round trip (context ids with awkward characters included).
	m := testManifest(t, s, "ctx/a with spaces")
	if err := s.PutManifest(ctx, m); err != nil {
		t.Fatalf("PutManifest: %v", err)
	}
	gm, err := s.GetManifest(ctx, "ctx/a with spaces")
	if err != nil {
		t.Fatalf("GetManifest: %v", err)
	}
	if gm.Meta.TokenCount != 250 || gm.Meta.NumChunks() != 3 || gm.Meta.Levels != 2 {
		t.Errorf("manifest meta mismatch: %+v", gm.Meta)
	}
	if h, err := gm.ChunkHash(TextLevel, 2); err != nil || h != m.Hashes[TextLevel][2] {
		t.Errorf("ChunkHash = %q, %v", h, err)
	}

	checkFingerprints(t, s, m, true)

	// Listing.
	if err := s.PutManifest(ctx, testManifest(t, s, "ctx/b")); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ListContexts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != "ctx/a with spaces" || ids[1] != "ctx/b" {
		t.Errorf("ListContexts = %v", ids)
	}

	// Delete drops the manifest; payloads survive until a sweep.
	if err := s.DeleteContext(ctx, "ctx/a with spaces"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetManifest(ctx, "ctx/a with spaces"); !errors.Is(err, ErrNotFound) {
		t.Error("manifest survived DeleteContext")
	}
	if _, err := s.GetChunk(ctx, m.Hashes[0][0]); err != nil {
		t.Errorf("payload reclaimed before sweep: %v", err)
	}
	checkFingerprints(t, s, m, false)
	ids, _ = s.ListContexts(ctx)
	if len(ids) != 1 {
		t.Errorf("after delete ListContexts = %v", ids)
	}

	// Validation.
	if err := s.PutChunk(ctx, "short", payload); err == nil {
		t.Error("PutChunk accepted malformed hash")
	}
	if err := s.PutChunk(ctx, "ZZ"+hash[2:], payload); err == nil {
		t.Error("PutChunk accepted non-hex hash")
	}
	bad := m
	bad.Meta.TokenCount = 1
	if err := s.PutManifest(ctx, bad); err == nil {
		t.Error("PutManifest accepted inconsistent token count")
	}
}

// sweepTest exercises refcounted GC on a Store implementation.
func sweepTest(t *testing.T, s Store) {
	t.Helper()
	ctx := context.Background()

	// Two contexts sharing chunk payloads where their ids collide in the
	// synthetic payload scheme — build explicit overlap instead: B's level
	// rows reuse A's chunk 0 payloads.
	a := testManifest(t, s, "gc/a")
	if err := s.PutManifest(ctx, a); err != nil {
		t.Fatal(err)
	}
	b := testManifest(t, s, "gc/b")
	for _, lv := range []int{0, 1, TextLevel} {
		b.Hashes[lv][0] = a.Hashes[lv][0] // shared prefix chunk
	}
	if err := s.PutManifest(ctx, b); err != nil {
		t.Fatal(err)
	}
	// An orphan payload no manifest references.
	orphan := []byte("orphan payload")
	orphanHash := HashChunk(orphan)
	if err := s.PutChunk(ctx, orphanHash, orphan); err != nil {
		t.Fatal(err)
	}

	// A grace-age sweep must not reclaim the freshly written orphan.
	res, err := s.Sweep(ctx, time.Hour)
	if err != nil {
		t.Fatalf("graceful sweep: %v", err)
	}
	if res.RemovedChunks != 0 {
		t.Errorf("grace sweep reclaimed %d young chunks", res.RemovedChunks)
	}

	// An immediate sweep reclaims the orphan plus the three gc/b chunk-0
	// payloads orphaned when B adopted A's hashes.
	res, err = s.Sweep(ctx, 0)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.RemovedChunks != 4 || res.ReclaimedBytes < int64(len(orphan)) {
		t.Errorf("sweep = %+v, want 4 chunks", res)
	}
	if _, err := s.GetChunk(ctx, orphanHash); !errors.Is(err, ErrNotFound) {
		t.Error("orphan survived sweep")
	}

	// Delete A: its unique payloads become garbage, shared ones survive
	// through B's references.
	if err := s.DeleteContext(ctx, "gc/a"); err != nil {
		t.Fatal(err)
	}
	before, err := s.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A had 3 chunks × 3 levels = 9 payloads; chunk 0's three are shared.
	if res.RemovedChunks != 6 {
		t.Errorf("sweep after delete reclaimed %d chunks, want 6", res.RemovedChunks)
	}
	after, err := s.Usage(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if after.Chunks != before.Chunks-6 || after.ChunkBytes >= before.ChunkBytes {
		t.Errorf("usage before %+v after %+v", before, after)
	}
	// B must be fully intact, including the shared chunk 0 payloads.
	gb, err := s.GetManifest(ctx, "gc/b")
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range []int{0, 1, TextLevel} {
		for c := 0; c < gb.Meta.NumChunks(); c++ {
			h, err := gb.ChunkHash(lv, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.GetChunk(ctx, h); err != nil {
				t.Errorf("surviving context lost chunk (lv %d, c %d): %v", lv, c, err)
			}
		}
	}

	// Replacing a manifest (the append path) releases the references of
	// the version it replaces.
	b2 := gb
	b2.Hashes = map[int][]string{}
	for lv, row := range gb.Hashes {
		b2.Hashes[lv] = append([]string{}, row...)
	}
	repl := []byte("replacement payload")
	replHash := HashChunk(repl)
	if err := s.PutChunk(ctx, replHash, repl); err != nil {
		t.Fatal(err)
	}
	oldHash := b2.Hashes[0][2]
	b2.Hashes[0][2] = replHash
	if err := s.PutManifest(ctx, b2); err != nil {
		t.Fatal(err)
	}
	res, err = s.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedChunks != 1 || res.RemovedHashes[0] != oldHash {
		t.Errorf("replacement sweep = %+v, want exactly %s", res, oldHash)
	}
}

func TestMemStore(t *testing.T)      { storeTest(t, NewMemStore()) }
func TestMemStoreSweep(t *testing.T) { sweepTest(t, NewMemStore()) }

func TestFileStore(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeTest(t, s)
}

func TestFileStoreSweep(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sweepTest(t, s)
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, s1, "persist")
	if err := s1.PutManifest(ctx, m); err != nil {
		t.Fatal(err)
	}
	orphan := []byte("reopen orphan")
	if err := s1.PutChunk(ctx, HashChunk(orphan), orphan); err != nil {
		t.Fatal(err)
	}

	// Refcounts are derived from manifests at open: after reopen, a sweep
	// must reclaim exactly the orphan and keep every referenced payload.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := s2.GetManifest(ctx, "persist")
	if err != nil || gm.Meta.TokenCount != 250 {
		t.Fatalf("reopened GetManifest = %+v, %v", gm.Meta, err)
	}
	res, err := s2.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedChunks != 1 || res.RemovedHashes[0] != HashChunk(orphan) {
		t.Errorf("reopened sweep = %+v, want only the orphan", res)
	}
	for _, lv := range []int{0, 1, TextLevel} {
		for c := 0; c < 3; c++ {
			h, _ := gm.ChunkHash(lv, c)
			if _, err := s2.GetChunk(ctx, h); err != nil {
				t.Errorf("referenced chunk (lv %d, c %d) lost across reopen: %v", lv, c, err)
			}
		}
	}
}

// The dedup index is derived from the live manifests: it answers for a
// context's level payloads, forgets them at DeleteContext with no sweep
// unless a live fork still names them, holds nothing for a manifest
// without a producer, and answers the same from a reopened FileStore.
func TestDedupIndexFollowsManifests(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fst, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var a Manifest
	for _, s := range []Store{NewMemStore(), fst} {
		a = testManifest(t, s, "dx/a")
		fork := a.clone()
		fork.Meta.ContextID = "dx/fork"
		anon := testManifest(t, s, "dx/anon")
		anon.Producer = ""
		for _, m := range []Manifest{a, fork, anon} {
			if err := s.PutManifest(ctx, m); err != nil {
				t.Fatal(err)
			}
		}
		checkFingerprints(t, s, a, true)
		anon.Producer = a.Producer
		checkFingerprints(t, s, anon, false)

		if err := s.DeleteContext(ctx, "dx/a"); err != nil {
			t.Fatal(err)
		}
		checkFingerprints(t, s, a, true) // the fork names every payload
		if err := s.DeleteContext(ctx, "dx/fork"); err != nil {
			t.Fatal(err)
		}
		checkFingerprints(t, s, a, false)
	}

	b := testManifest(t, fst, "dx/b")
	if err := fst.PutManifest(ctx, b); err != nil {
		t.Fatal(err)
	}
	reopened, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkFingerprints(t, reopened, b, true)
	checkFingerprints(t, reopened, a, false)
	if _, err := os.Stat(filepath.Join(dir, "fp")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("the store made an fp/ directory (stat: %v)", err)
	}
}

func TestManifestValidate(t *testing.T) {
	s := NewMemStore()
	good := testManifest(t, s, "x")
	if err := good.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	cases := []func(*Manifest){
		func(m *Manifest) { m.Meta.ContextID = "" },
		func(m *Manifest) { m.Meta.Levels = 0 },
		func(m *Manifest) { delete(m.Hashes, 1) },
		func(m *Manifest) { m.Hashes[0] = m.Hashes[0][:1] },
		func(m *Manifest) { m.Hashes[0][0] = "nothex" },
		func(m *Manifest) { delete(m.Hashes, TextLevel) },
		func(m *Manifest) { m.ChainDigests = []string{"one"} },
	}
	for i, mutate := range cases {
		m := testManifest(t, s, "x")
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		}
	}
}

func TestMetaTotalBytes(t *testing.T) {
	m := testMeta("x")
	// Sizes: (10+10+5)+(6+6+3) + text (400+400+200) = 25+15+1000 = 1040.
	if got := m.TotalBytes(); got != 1040 {
		t.Errorf("TotalBytes = %d, want 1040", got)
	}
}

func TestEncodeDecodeID(t *testing.T) {
	for _, id := range []string{"simple", "with/slash", "with space", "ünïcode-ctx", ".."} {
		enc := encodeID(id)
		got, err := decodeID(enc)
		if err != nil || got != id {
			t.Errorf("id %q: round trip %q, %v", id, got, err)
		}
		if got := enc; got != "" && (got[0] == '.' || got[0] == '/') {
			t.Errorf("encoded id %q can escape directory", got)
		}
	}
}
