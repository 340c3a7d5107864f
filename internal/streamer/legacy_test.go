package streamer

import (
	"bytes"
	"context"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
)

// TestStoreWithRefinementRows opens a FileStore written by an older
// publisher that also stored CGR1 refinement streams: the manifest in
// testdata/legacy-refine carries hash rows under the pseudo-levels
// 1000 and 1001 and the meta fields refine_targets/refine_bytes. It is
// the newStackShape(t, 0, 20, 70) context "ctx-1" published with
// refinements to L0 and L1: 4 chunks × (4 levels + text + 2 refinements)
// = 28 payloads. Such a store needs no migration: it loads, fetches
// bit-identically to a fresh publish and keeps every payload refcounted;
// its next Append drops the extra rows, and a sweep reclaims them.
func TestStoreWithRefinementRows(t *testing.T) {
	s := newStackShape(t, 0, 20, 70)
	ctx := context.Background()
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "legacy-refine"))); err != nil {
		t.Fatal(err)
	}
	fs, err := storage.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	usage := func(wantChunks int) {
		t.Helper()
		u, err := fs.Usage(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if u.Chunks != wantChunks {
			t.Fatalf("store holds %d payloads, want %d", u.Chunks, wantChunks)
		}
	}

	old, err := fs.GetManifest(ctx, "ctx-1")
	if err != nil {
		t.Fatal(err)
	}
	var extra []int
	for lv := range old.Hashes {
		if lv != storage.TextLevel && (lv < 0 || lv >= old.Meta.Levels) {
			extra = append(extra, lv)
		}
	}
	slices.Sort(extra)
	if !slices.Equal(extra, []int{1000, 1001}) {
		t.Fatalf("fixture manifest has extra rows %v, want [1000 1001]", extra)
	}
	usage(28)
	// A sweep must not touch payloads the extra rows still reference.
	if res, err := fs.Sweep(ctx, 0); err != nil || res.RemovedChunks != 0 {
		t.Fatalf("sweep of an unchanged store removed %d payloads (err %v)", res.RemovedChunks, err)
	}

	// Every level fetches bit-identically to a fresh publish of the tokens.
	legacy := serve(t, fs)
	fetch := func(src ChunkSource, lv core.Level) *Fetcher {
		return &Fetcher{Source: src, Codec: s.codec, Model: s.model, Device: llm.A40x4(),
			Planner: Planner{Adapt: false, DefaultLevel: lv}}
	}
	for lv := core.Level(0); int(lv) < old.Meta.Levels; lv++ {
		want, _, err := fetch(s.client, lv).Fetch(ctx, "ctx-1")
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fetch(legacy, lv).Fetch(ctx, "ctx-1")
		if err != nil {
			t.Fatalf("fetching the stored context at L%d: %v", lv, err)
		}
		if d, err := want.MaxAbsDiff(got); err != nil || d != 0 {
			t.Errorf("L%d fetch differs from a fresh publish (diff %v, err %v)", lv, d, err)
		}
	}

	// Append grows the partial tail chunk 3: it writes a manifest of real
	// levels and text only, the one a fresh publish of the tokens writes.
	rng := rand.New(rand.NewSource(9))
	more := make([]llm.Token, 5)
	for i := range more {
		more[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	man, _, err := Append(ctx, fs, s.codec, s.model, "ctx-1", more, PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Publish(ctx, storage.NewMemStore(), s.codec, s.model, "ctx-1",
		append(append([]llm.Token{}, s.tokens...), more...), PublishOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !maps.EqualFunc(man.Hashes, fresh.Hashes, slices.Equal[[]string]) {
		t.Fatalf("appended manifest rows differ from a fresh publish: %v", man.Hashes)
	}
	files, err := filepath.Glob(filepath.Join(dir, "manifests", "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("manifest files %v (err %v)", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("refine")) || bytes.Contains(raw, []byte(`"1000"`)) {
		t.Errorf("appended manifest still carries refinement fields or rows:\n%s", raw)
	}
	usage(33) // 28 + the tail chunk's 4 levels and text

	// The sweep reclaims exactly the refinement payloads and the tail
	// chunk's old payloads.
	var want []string
	for lv, row := range old.Hashes {
		if slices.Contains(extra, lv) {
			want = append(want, row...)
		} else {
			want = append(want, row[len(row)-1])
		}
	}
	slices.Sort(want)
	res, err := fs.Sweep(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.RemovedHashes, want) {
		t.Errorf("sweep removed %d payloads %v, want %d %v", len(res.RemovedHashes), res.RemovedHashes, len(want), want)
	}
	usage(20)

	if err := fs.DeleteContext(ctx, "ctx-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Sweep(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if u, err := fs.Usage(ctx); err != nil || u != (storage.Usage{}) {
		t.Errorf("usage after delete and sweep = %+v (err %v), want zero", u, err)
	}
}
