package storage

import (
	"fmt"
)

// Manifest is the per-context reference layer of the content-addressed
// store: it carries the ContextMeta the streamer adapts over plus, for
// every stored level (real encoding levels and TextLevel), the ordered
// content hashes of the context's chunk payloads. Publishing a context
// writes payloads once and a manifest referencing them; contexts sharing
// payloads share hashes.
//
// A manifest may hold rows for levels its meta does not declare: older
// publishers stored refinement streams under the pseudo-levels 1000+t
// (and meta fields refine_targets/refine_bytes, which decoding ignores).
// Such rows load, and their payloads stay referenced (AllHashes counts
// them), until the context's next Append writes a manifest without them.
type Manifest struct {
	Meta ContextMeta `json:"meta"`
	// Hashes maps a stored level to per-chunk payload hashes. JSON object
	// keys are the decimal level (encoding/json renders int keys as
	// strings), so -1 is the text pseudo-level; rows for undeclared levels
	// (1000+t, an older publisher's refinement streams) load, stay
	// refcounted and are dropped by the next Append.
	Hashes map[int][]string `json:"hashes"`
	// ChainDigests[i] is the running digest of the context's token stream
	// through the end of chunk i (chained SHA-256, see streamer). Append
	// resumes the chain from the last clean chunk without replaying the
	// whole history, and the publisher's dedup fingerprints derive from
	// these digests.
	ChainDigests []string `json:"chain_digests,omitempty"`
}

// levelRows returns every level the manifest must carry for its meta:
// all real levels, and the text pseudo-level when text payloads are
// stored.
func (m Manifest) levelRows() []int {
	rows := make([]int, 0, m.Meta.Levels+1)
	for lv := 0; lv < m.Meta.Levels; lv++ {
		rows = append(rows, lv)
	}
	if len(m.Meta.TextBytes) > 0 {
		rows = append(rows, TextLevel)
	}
	return rows
}

// Validate checks the manifest against its meta: one well-formed hash per
// chunk at every stored level.
func (m Manifest) Validate() error {
	if err := m.Meta.Validate(); err != nil {
		return err
	}
	n := m.Meta.NumChunks()
	for _, lv := range m.levelRows() {
		row, ok := m.Hashes[lv]
		if !ok {
			return fmt.Errorf("storage: manifest %q missing hashes for level %d", m.Meta.ContextID, lv)
		}
		if len(row) != n {
			return fmt.Errorf("storage: manifest %q level %d has %d hashes for %d chunks",
				m.Meta.ContextID, lv, len(row), n)
		}
		for c, h := range row {
			if err := validateHash(h); err != nil {
				return fmt.Errorf("storage: manifest %q level %d chunk %d: %w", m.Meta.ContextID, lv, c, err)
			}
		}
	}
	if len(m.ChainDigests) != 0 && len(m.ChainDigests) != n {
		return fmt.Errorf("storage: manifest %q has %d chain digests for %d chunks",
			m.Meta.ContextID, len(m.ChainDigests), n)
	}
	return nil
}

// ChunkHash returns the content hash of one chunk payload at a stored
// level (TextLevel for the token text). A row for a level the meta does
// not declare answers too, while the manifest still holds it.
func (m Manifest) ChunkHash(level, chunk int) (string, error) {
	row, ok := m.Hashes[level]
	if !ok {
		return "", fmt.Errorf("storage: context %q stores no level %d", m.Meta.ContextID, level)
	}
	if chunk < 0 || chunk >= len(row) {
		return "", fmt.Errorf("storage: context %q chunk %d outside [0,%d)", m.Meta.ContextID, chunk, len(row))
	}
	return row[chunk], nil
}

// AllHashes returns every payload reference in the manifest, with
// multiplicity — the unit of refcounting.
func (m Manifest) AllHashes() []string {
	var out []string
	for _, row := range m.Hashes {
		out = append(out, row...)
	}
	return out
}

// clone deep-copies the manifest so callers cannot alias store state.
func (m Manifest) clone() Manifest {
	cp := m
	cp.Hashes = make(map[int][]string, len(m.Hashes))
	for lv, row := range m.Hashes {
		cp.Hashes[lv] = append([]string{}, row...)
	}
	cp.ChainDigests = append([]string{}, m.ChainDigests...)
	if len(cp.ChainDigests) == 0 {
		cp.ChainDigests = nil
	}
	// Meta's slices are read-only by convention; copy the rows that
	// Append extends in place.
	cp.Meta.ChunkTokens = append([]int{}, m.Meta.ChunkTokens...)
	cp.Meta.SizesBytes = copyRows(m.Meta.SizesBytes)
	cp.Meta.TextBytes = append([]int64{}, m.Meta.TextBytes...)
	if len(cp.Meta.TextBytes) == 0 {
		cp.Meta.TextBytes = nil
	}
	return cp
}

func copyRows(rows [][]int64) [][]int64 {
	if rows == nil {
		return nil
	}
	out := make([][]int64, len(rows))
	for i, row := range rows {
		out[i] = append([]int64{}, row...)
	}
	return out
}
