package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
)

// Crash-point coverage for FileStore: a publish/replace/delete/sweep
// script is stopped at every mutating filesystem call in turn — the
// failing call leaves a torn .tmp behind when it is a write — and the
// directory is reopened. Whatever step the crash hit, the reopened store
// must hold only whole manifests, each one the script wrote, and every
// payload they reference, with no .tmp left and nothing for a second
// sweep to do.

var errCrash = errors.New("crash")

// crashManifest is a one-level context over the given payloads.
func crashManifest(id string, payloads ...string) *Manifest {
	m := &Manifest{
		Meta:   ContextMeta{ContextID: id, Model: "crash", TokenCount: len(payloads), Levels: 1, SizesBytes: [][]int64{nil}},
		Hashes: map[int][]string{0: nil},
	}
	for _, p := range payloads {
		m.Meta.ChunkTokens = append(m.Meta.ChunkTokens, 1)
		m.Meta.SizesBytes[0] = append(m.Meta.SizesBytes[0], int64(len(p)))
		m.Hashes[0] = append(m.Hashes[0], HashChunk([]byte(p)))
	}
	return m
}

// crashOp is one step of the script. A manifest op names the context it
// changes and the manifest the context has once the op returns (nil for a
// delete).
type crashOp struct {
	id  string
	m   *Manifest
	run func(ctx context.Context, s Store) error
}

func crashScript() []crashOp {
	aOld := crashManifest("crash/a", "shared", "a-only")
	aNew := crashManifest("crash/a", "shared", "a-replacement")
	b := crashManifest("crash/b", "shared", "b-only")
	var ops []crashOp
	for _, p := range []string{"shared", "a-only", "b-only", "a-replacement"} {
		ops = append(ops, crashOp{run: func(ctx context.Context, s Store) error {
			return s.PutChunk(ctx, HashChunk([]byte(p)), []byte(p))
		}})
	}
	for i, p := range []string{"shared", "a-only", "b-only"} {
		fp := Fingerprint{Hash: HashChunk([]byte(p)), Bytes: int64(len(p))}
		ops = append(ops, crashOp{run: func(ctx context.Context, s Store) error {
			return s.PutFingerprint(ctx, fmt.Sprintf("c0%02d", i), fp)
		}})
	}
	putManifest := func(m *Manifest) crashOp {
		return crashOp{id: m.Meta.ContextID, m: m, run: func(ctx context.Context, s Store) error {
			return s.PutManifest(ctx, *m)
		}}
	}
	return append(ops,
		putManifest(aOld),
		// B reuses the shared payload the way a dedup publish does.
		crashOp{run: func(ctx context.Context, s Store) error {
			ok, err := s.TouchChunk(ctx, HashChunk([]byte("shared")))
			if err == nil && !ok {
				err = errors.New("shared payload missing")
			}
			return err
		}},
		putManifest(b),
		putManifest(aNew),
		crashOp{id: "crash/b", run: func(ctx context.Context, s Store) error {
			return s.DeleteContext(ctx, "crash/b")
		}},
		crashOp{run: func(ctx context.Context, s Store) error {
			_, err := s.Sweep(ctx, 0)
			return err
		}},
	)
}

func TestFileStoreCrashPoints(t *testing.T) {
	ctx := context.Background()
	seen := map[string]bool{}
	for n := 1; ; n++ {
		dir := t.TempDir()
		s, err := NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		steps := 0
		s.crash = func(op, path string) error {
			if steps++; steps < n {
				return nil
			}
			seen[op] = true
			if op == "write" {
				if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return errCrash
		}

		// acked holds each context's manifest as of the last op that
		// returned; the op the crash stopped may have landed or not.
		acked := map[string]*Manifest{}
		var inflight crashOp
		for _, op := range crashScript() {
			if err := op.run(ctx, s); err != nil {
				if !errors.Is(err, errCrash) {
					t.Fatalf("crash at step %d: script failed with %v", n, err)
				}
				inflight = op
				break
			}
			if op.id != "" {
				acked[op.id] = op.m
			}
		}
		if inflight.run == nil && steps >= n {
			t.Fatalf("crash at step %d: the script ran to its end past the crash", n)
		}

		checkReopened(t, n, dir, acked, inflight)
		if inflight.run == nil {
			t.Logf("the script makes %d mutating calls; all were crash points", n-1)
			break
		}
	}
	for _, op := range []string{"write", "rename", "remove", "chtimes"} {
		if !seen[op] {
			t.Errorf("no crash point was a %s", op)
		}
	}
}

// checkReopened reopens dir after a crash at step n and checks what it
// holds against what the script had acknowledged.
func checkReopened(t *testing.T, n int, dir string, acked map[string]*Manifest, inflight crashOp) {
	t.Helper()
	ctx := context.Background()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatalf("crash at step %d: reopen: %v", n, err)
	}
	if _, err := s.Sweep(ctx, 0); err != nil {
		t.Fatalf("crash at step %d: sweep after reopen: %v", n, err)
	}
	for _, id := range []string{"crash/a", "crash/b"} {
		allowed := []*Manifest{acked[id]}
		if inflight.id == id {
			allowed = append(allowed, inflight.m)
		}
		got, err := s.GetManifest(ctx, id)
		if errors.Is(err, ErrNotFound) {
			if allowed[0] != nil && (len(allowed) == 1 || allowed[1] != nil) {
				t.Errorf("crash at step %d: %s lost", n, id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("crash at step %d: %s: %v", n, id, err)
		}
		whole := false
		for _, m := range allowed {
			whole = whole || (m != nil && reflect.DeepEqual(got, *m))
		}
		if !whole {
			t.Errorf("crash at step %d: %s reads as %+v, not a manifest the script wrote", n, id, got)
		}
		for _, h := range got.AllHashes() {
			if data, err := s.GetChunk(ctx, h); err != nil || HashChunk(data) != h {
				t.Errorf("crash at step %d: %s references %s, which reads back as %v", n, id, h, err)
			}
		}
	}
	if k := countTemp(t, dir); k != 0 {
		t.Errorf("crash at step %d: %d .tmp files after reopen", n, k)
	}
	if res, err := s.Sweep(ctx, 0); err != nil || res.RemovedChunks != 0 || res.PrunedFingerprints != 0 {
		t.Errorf("crash at step %d: second sweep = %+v, %v; want nothing to do", n, res, err)
	}
}
