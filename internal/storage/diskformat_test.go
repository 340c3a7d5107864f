package storage

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The disk-format pin: testdata/filestore is a store directory written
// once by an earlier FileStore and never regenerated — there is
// deliberately no flag to rewrite it, because changing it means failing
// to open the stores already on disk. It holds two manifests that share
// a chunk, their fingerprints, a garbled manifest, a garbled fingerprint
// entry and a leftover .tmp from an interrupted write.

// fixturePayloads are the chunk payloads of the fixture's contexts.
var fixturePayloads = map[string][]byte{
	"shared":     []byte("fixture|shared|l0c0"),
	"alpha-l0c1": []byte("fixture|alpha|l0c1"),
	"alpha-t0":   []byte("fixture|alpha|text0 hello"),
	"alpha-t1":   []byte("fixture|alpha|text1"),
	"beta-l0c1":  []byte("fixture|beta|l0c1!"),
	"beta-t0":    []byte("fixture|beta|text0 hello"),
	"beta-t1":    []byte("fixture|beta|text1 world"),
	"garbled-l0": []byte("fixture|garbled|l0c0"),
	"garbled-t0": []byte("fixture|garbled|text0"),
}

func fixtureHash(name string) string { return HashChunk(fixturePayloads[name]) }

func fixtureSize(name string) int64 { return int64(len(fixturePayloads[name])) }

// fixtureManifest is one of the fixture's two-chunk, one-level contexts
// with text payloads; l0 and text name its payloads.
func fixtureManifest(id string, l0, text [2]string) Manifest {
	return Manifest{
		Meta: ContextMeta{
			ContextID:   id,
			Model:       "fixture",
			TokenCount:  3,
			ChunkTokens: []int{2, 1},
			Levels:      1,
			SizesBytes:  [][]int64{{fixtureSize(l0[0]), fixtureSize(l0[1])}},
			TextBytes:   []int64{fixtureSize(text[0]), fixtureSize(text[1])},
			Format:      2,
		},
		Hashes: map[int][]string{
			0:         {fixtureHash(l0[0]), fixtureHash(l0[1])},
			TextLevel: {fixtureHash(text[0]), fixtureHash(text[1])},
		},
		ChainDigests: []string{"c0ffee00", "c0ffee01"},
	}
}

func fixtureAlpha() Manifest {
	return fixtureManifest("fixture/alpha", [2]string{"shared", "alpha-l0c1"}, [2]string{"alpha-t0", "alpha-t1"})
}

func fixtureBeta() Manifest {
	return fixtureManifest("fixture/beta", [2]string{"shared", "beta-l0c1"}, [2]string{"beta-t0", "beta-t1"})
}

// fixtureFingerprints are the fixture's readable dedup-index entries;
// "0c01" points at a payload only the garbled context references.
func fixtureFingerprints() map[string]Fingerprint {
	fps := map[string]Fingerprint{}
	for key, name := range map[string]string{
		"0a01": "shared", "0a02": "alpha-l0c1", "0b02": "beta-l0c1", "0c01": "garbled-l0",
	} {
		fps[key] = Fingerprint{Hash: fixtureHash(name), Bytes: fixtureSize(name)}
	}
	return fps
}

// copyFixture copies testdata/filestore into a fresh directory.
func copyFixture(t *testing.T) string {
	t.Helper()
	src := filepath.Join("testdata", "filestore")
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestFileStoreDiskFormatFixture(t *testing.T) {
	ctx := context.Background()
	dir := copyFixture(t)
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("opening the fixture: %v", err)
	}

	if n := countTemp(t, dir); n != 0 {
		t.Errorf("%d .tmp files survived open", n)
	}
	ids, err := s.ListContexts(ctx)
	if want := []string{"fixture/alpha", "fixture/beta", "fixture/garbled"}; err != nil || !reflect.DeepEqual(ids, want) {
		t.Errorf("ListContexts = %v, %v; want %v", ids, err, want)
	}
	for _, want := range []Manifest{fixtureAlpha(), fixtureBeta()} {
		got, err := s.GetManifest(ctx, want.Meta.ContextID)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("GetManifest(%s) = %+v, %v; want %+v", want.Meta.ContextID, got, err, want)
		}
	}
	if _, err := s.GetManifest(ctx, "fixture/garbled"); !errors.Is(err, ErrCorruptManifest) {
		t.Errorf("GetManifest(garbled) = %v, want ErrCorruptManifest", err)
	}
	for key, want := range fixtureFingerprints() {
		if got, err := s.GetFingerprint(ctx, key); err != nil || got != want {
			t.Errorf("GetFingerprint(%s) = %+v, %v; want %+v", key, got, err, want)
		}
	}
	if _, err := s.GetFingerprint(ctx, "0bad"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetFingerprint(garbled) = %v, want ErrNotFound", err)
	}
	if u, err := s.Usage(ctx); err != nil || u != (Usage{Manifests: 3, Chunks: 9, ChunkBytes: 188}) {
		t.Errorf("Usage = %+v, %v; want 3 manifests, 9 chunks, 188 bytes", u, err)
	}

	if _, err := s.Sweep(ctx, 0); err == nil || !strings.Contains(err.Error(), "fixture/garbled") {
		t.Errorf("Sweep with the garbled manifest present = %v, want a refusal naming it", err)
	}
	if err := s.DeleteContext(ctx, "fixture/garbled"); err != nil {
		t.Fatalf("deleting the garbled context: %v", err)
	}
	res, err := s.Sweep(ctx, 0)
	if err != nil {
		t.Fatalf("Sweep after deleting the garbled context: %v", err)
	}
	wantRes := SweepResult{
		ScannedChunks: 9, RemovedChunks: 2, ReclaimedBytes: 41,
		RemovedHashes:      sortedHashes("garbled-l0", "garbled-t0"),
		PrunedFingerprints: 2, // "0c01", whose payload went, and the garbled "0bad"
	}
	if !reflect.DeepEqual(res, wantRes) {
		t.Errorf("Sweep = %+v, want %+v", res, wantRes)
	}
	if u, err := s.Usage(ctx); err != nil || u != (Usage{Manifests: 2, Chunks: 7, ChunkBytes: 147}) {
		t.Errorf("Usage after sweep = %+v, %v; want 2 manifests, 7 chunks, 147 bytes", u, err)
	}

	// What today's FileStore writes is byte for byte what the fixture holds.
	fresh, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	alpha := fixtureAlpha()
	if err := fresh.PutManifest(ctx, alpha); err != nil {
		t.Fatal(err)
	}
	if err := fresh.PutFingerprint(ctx, "0a01", fixtureFingerprints()["0a01"]); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{fresh.manifestPath(alpha.Meta.ContextID), fresh.fpPath("0a01")} {
		rel, _ := filepath.Rel(fresh.root, path)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "filestore", rel))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s written as\n%s\nfixture holds\n%s", rel, got, want)
		}
	}

	// Manifest lookups are served from the index: with the file gone
	// from under the open store, they still answer as before.
	if err := os.Remove(fresh.manifestPath(alpha.Meta.ContextID)); err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.GetManifest(ctx, alpha.Meta.ContextID); err != nil || !reflect.DeepEqual(got, alpha) {
		t.Errorf("GetManifest without its file = %+v, %v", got, err)
	}
	if ids, err := fresh.ListContexts(ctx); err != nil || !reflect.DeepEqual(ids, []string{alpha.Meta.ContextID}) {
		t.Errorf("ListContexts without the file = %v, %v", ids, err)
	}
	if u, err := fresh.Usage(ctx); err != nil || u.Manifests != 1 {
		t.Errorf("Usage without the file = %+v, %v", u, err)
	}
}

func sortedHashes(names ...string) []string {
	out := make([]string, len(names))
	for i, name := range names {
		out[i] = fixtureHash(name)
	}
	sort.Strings(out)
	return out
}

// countTemp counts the .tmp files under dir.
func countTemp(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), ".tmp") {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}
