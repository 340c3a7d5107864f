package storage

import (
	"encoding/base32"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// FileStore is a filesystem-backed Store: the index a MemStore keeps, over
// files each written to a .tmp sibling and renamed into place.
//
//	root/chunks/ab/<hash>.bin   content-addressed payloads (fan-out by
//	                            the hash's first byte)
//	root/manifests/<id>.json    per-context manifests (name-encoded id)
//
// Manifests are read once, at open, and payload refcounts and the dedup
// index derived from them, which makes both crash-safe: a manifest either
// landed (its rename is atomic) or did not. Chunk GC ages are file mtimes.
type FileStore struct {
	*index
	*fileBackend
}

// NewFileStore creates (if needed) and opens a store rooted at dir,
// reaping the .tmp files of interrupted writes and the fp/ tree in which
// older stores persisted the dedup index. A corrupt (truncated,
// garbled) manifest surfaces as ErrCorruptManifest from GetManifest for
// its context only, and blocks Sweep until that context is deleted.
func NewFileStore(dir string) (*FileStore, error) {
	b := &fileBackend{root: dir}
	s := &FileStore{newIndex(b), b}
	for _, sub := range []string{"chunks", "manifests"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("storage: creating %s: %w", sub, err)
		}
	}
	// A .tmp file was never renamed into place, so nothing references it.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".tmp") {
			err = b.fsop("remove", path, func() error { return os.Remove(path) })
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("storage: reaping .tmp files: %w", err)
	}
	// Older stores kept the dedup index in fp/; it is derived from the
	// manifests instead.
	fp := filepath.Join(dir, "fp")
	if err := b.fsop("remove", fp, func() error { return os.RemoveAll(fp) }); err != nil {
		return nil, fmt.Errorf("storage: reaping fp/: %w", err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "manifests"))
	if err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		id, err := decodeID(name)
		if e.IsDir() || !ok || err != nil {
			continue // foreign file; ignore
		}
		if m, err := b.readManifest(id); err != nil {
			s.corrupt[id] = err
		} else {
			s.manifests[id] = m
			s.retain(Manifest{}, m)
		}
	}
	return s, nil
}

// fileBackend keeps an index's bytes in files under root.
type fileBackend struct {
	root string
	// crash, when set, runs before every mutating call — a .tmp write, a
	// rename, a remove, a chtimes — and its error replaces the call: the
	// seam crash-point tests stop a store at any step through.
	crash func(op, path string) error
}

// fsop makes one mutating filesystem call on path.
func (b *fileBackend) fsop(op, path string, call func() error) error {
	if b.crash != nil {
		if err := b.crash(op, path); err != nil {
			return err
		}
	}
	return call()
}

var pathEnc = base32.StdEncoding.WithPadding(base32.NoPadding)

func encodeID(id string) string { return pathEnc.EncodeToString([]byte(id)) }
func decodeID(name string) (string, error) {
	raw, err := pathEnc.DecodeString(strings.ToUpper(name))
	return string(raw), err
}

func (b *fileBackend) chunkPath(hash string) string {
	return filepath.Join(b.root, "chunks", hash[:2], hash+".bin")
}

func (b *fileBackend) manifestPath(id string) string {
	return filepath.Join(b.root, "manifests", encodeID(id)+".json")
}

// writeAtomic writes data to path via a .tmp sibling and rename.
func (b *fileBackend) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := b.fsop("write", tmp, func() error { return os.WriteFile(tmp, data, 0o644) }); err != nil {
		return err
	}
	return b.fsop("rename", path, func() error { return os.Rename(tmp, path) })
}

func (b *fileBackend) remove(path string) error {
	return b.fsop("remove", path, func() error { return os.Remove(path) })
}

func (b *fileBackend) putChunk(hash string, data []byte) error {
	return b.writeAtomic(b.chunkPath(hash), data)
}

func (b *fileBackend) touchChunk(hash string) error {
	path, now := b.chunkPath(hash), time.Now()
	return b.fsop("chtimes", path, func() error { return os.Chtimes(path, now, now) })
}

func (b *fileBackend) getChunk(hash string) ([]byte, error) { return os.ReadFile(b.chunkPath(hash)) }

func (b *fileBackend) statChunk(hash string) (int64, time.Time, error) {
	info, err := os.Stat(b.chunkPath(hash))
	if err != nil {
		return 0, time.Time{}, err
	}
	return info.Size(), info.ModTime(), nil
}

func (b *fileBackend) removeChunk(hash string) error { return b.remove(b.chunkPath(hash)) }

// eachChunk calls fn with every payload's hash; foreign files and writes
// in flight are skipped.
func (b *fileBackend) eachChunk(fn func(hash string)) error {
	return filepath.WalkDir(filepath.Join(b.root, "chunks"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if hash, ok := strings.CutSuffix(d.Name(), ".bin"); ok && validateHash(hash) == nil && p == b.chunkPath(hash) {
			fn(hash)
		}
		return nil
	})
}

func (b *fileBackend) readManifest(id string) (Manifest, error) {
	data, err := os.ReadFile(b.manifestPath(id))
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err = json.Unmarshal(data, &m); err == nil {
		err = m.Validate()
	}
	if err != nil {
		return Manifest{}, fmt.Errorf("%w: context %q: %v", ErrCorruptManifest, id, err)
	}
	return m, nil
}

func (b *fileBackend) putManifest(m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return b.writeAtomic(b.manifestPath(m.Meta.ContextID), data)
}

func (b *fileBackend) deleteManifest(id string) error { return b.remove(b.manifestPath(id)) }
