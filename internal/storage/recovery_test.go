package storage

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Crash-recovery coverage for FileStore: interrupted writes leave .tmp
// files, crashes mid-write leave truncated or garbled manifests. Opening
// the store must reap the temp files, corrupt manifests must surface
// clean errors for their own context only, and the GC must refuse to
// reclaim while a manifest's references are unknowable.

func openWithContext(t *testing.T, dir, id string) (*FileStore, Manifest) {
	t.Helper()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := testManifest(t, s, id)
	if err := s.PutManifest(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestFileStoreReapsTempFilesOnOpen(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, m := openWithContext(t, dir, "recov/tmp")

	// Simulate writes that died before their rename: stray .tmp files in
	// every subtree, including one shadowing a live chunk.
	liveHash := m.Hashes[0][0]
	strays := []string{
		s1.chunkPath(liveHash) + ".tmp",
		filepath.Join(dir, "chunks", "zz", "deadbeef.bin.tmp"),
		filepath.Join(dir, "manifests", "SOMECTX.json.tmp"),
		filepath.Join(dir, "fp", "ab", "abcd.json.tmp"),
	}
	for _, p := range strays {
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("open with .tmp leftovers: %v", err)
	}
	for _, p := range strays {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("stray %s survived open", p)
		}
	}
	// The shadowed live chunk is untouched.
	if _, err := s2.GetChunk(ctx, liveHash); err != nil {
		t.Errorf("live chunk lost while reaping: %v", err)
	}
	// Tmp leftovers contribute nothing to usage or listings.
	u, err := s2.Usage(ctx)
	if err != nil || u.Manifests != 1 {
		t.Errorf("usage after reap = %+v, %v", u, err)
	}
}

func corruptManifestFile(t *testing.T, s *FileStore, id string, mutate func([]byte) []byte) {
	t.Helper()
	path := s.manifestPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreCorruptManifestSurfacesCleanly(t *testing.T) {
	for name, mutate := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:len(b)/3] },
		"garbled":   func(b []byte) []byte { return []byte(strings.Repeat("\x00garbage", 20)) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ctx := context.Background()
			s1, _ := openWithContext(t, dir, "recov/bad")
			good := testManifest(t, s1, "recov/good")
			if err := s1.PutManifest(ctx, good); err != nil {
				t.Fatal(err)
			}
			corruptManifestFile(t, s1, "recov/bad", mutate)

			s2, err := NewFileStore(dir)
			if err != nil {
				t.Fatalf("open with corrupt manifest: %v", err)
			}
			// The corrupt context errors cleanly...
			if _, err := s2.GetManifest(ctx, "recov/bad"); !errors.Is(err, ErrCorruptManifest) {
				t.Errorf("GetManifest(corrupt) = %v, want ErrCorruptManifest", err)
			}
			// ...and does not poison other contexts' reads.
			gm, err := s2.GetManifest(ctx, "recov/good")
			if err != nil {
				t.Fatalf("healthy context poisoned: %v", err)
			}
			for _, lv := range []int{0, 1, TextLevel} {
				for c := 0; c < gm.Meta.NumChunks(); c++ {
					h, _ := gm.ChunkHash(lv, c)
					if _, err := s2.GetChunk(ctx, h); err != nil {
						t.Errorf("healthy chunk (lv %d, c %d): %v", lv, c, err)
					}
				}
			}
			// GC refuses while references are unknowable.
			if _, err := s2.Sweep(ctx, 0); err == nil {
				t.Error("sweep ran with a corrupt manifest present")
			}
			// Deleting the corrupt context clears the breakage; a sweep then
			// reclaims its now-unreferenced payloads (their refs were never
			// derived from the unreadable manifest).
			if err := s2.DeleteContext(ctx, "recov/bad"); err != nil {
				t.Fatalf("deleting corrupt context: %v", err)
			}
			res, err := s2.Sweep(ctx, 0)
			if err != nil {
				t.Fatalf("sweep after clearing corruption: %v", err)
			}
			if res.RemovedChunks != 9 { // 3 chunks × (2 levels + text)
				t.Errorf("sweep reclaimed %d chunks, want 9", res.RemovedChunks)
			}
			if _, err := s2.GetManifest(ctx, "recov/good"); err != nil {
				t.Errorf("healthy context lost after recovery: %v", err)
			}
		})
	}
}

func TestFileStoreCorruptManifestReplacedByPut(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s1, m := openWithContext(t, dir, "recov/replace")
	corruptManifestFile(t, s1, "recov/replace", func(b []byte) []byte { return b[:10] })

	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.GetManifest(ctx, "recov/replace"); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("expected corruption, got %v", err)
	}
	// Re-publishing the context heals it in place.
	if err := s2.PutManifest(ctx, m); err != nil {
		t.Fatalf("republish over corrupt manifest: %v", err)
	}
	if _, err := s2.GetManifest(ctx, "recov/replace"); err != nil {
		t.Errorf("healed manifest unreadable: %v", err)
	}
	if _, err := s2.Sweep(ctx, 0); err != nil {
		t.Errorf("sweep after heal: %v", err)
	}
}
