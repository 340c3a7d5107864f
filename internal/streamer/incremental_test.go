package streamer

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
)

// incStack publishes a context with refinement targets and returns the
// stack plus the published manifest.
func incStack(t *testing.T, targets []core.Level) (*testStack, storage.Manifest) {
	t.Helper()
	s := newStack(t)
	man, _, err := Publish(context.Background(), s.store, s.codec, s.model, "inc-1", s.tokens,
		PublishOptions{KV: s.kv, RefineTargets: targets})
	if err != nil {
		t.Fatal(err)
	}
	return s, man
}

func TestPublishWithRefinements(t *testing.T) {
	s, man := incStack(t, []core.Level{0, 1})
	meta := man.Meta
	if len(meta.RefineTargets) != 2 || meta.RefineTargets[0] != 0 || meta.RefineTargets[1] != 1 {
		t.Fatalf("RefineTargets = %v", meta.RefineTargets)
	}
	ctx := context.Background()
	for ti, target := range meta.RefineTargets {
		for c := 0; c < meta.NumChunks(); c++ {
			hash, err := man.ChunkHash(storage.RefineLevelKey(target), c)
			if err != nil {
				t.Fatal(err)
			}
			data, err := s.store.GetChunk(ctx, hash)
			if err != nil {
				t.Fatalf("refinement chunk %d target L%d missing: %v", c, target, err)
			}
			if int64(len(data)) != meta.RefineBytes[ti][c] {
				t.Errorf("refinement size mismatch: %d vs meta %d", len(data), meta.RefineBytes[ti][c])
			}
		}
	}
	// Refinements count toward the storage footprint.
	if meta.TotalBytes() <= metaWithoutRefinements(meta).TotalBytes() {
		t.Error("refinement bytes not accounted in TotalBytes")
	}
}

func metaWithoutRefinements(m storage.ContextMeta) storage.ContextMeta {
	m.RefineTargets = nil
	m.RefineBytes = nil
	return m
}

func TestPublishRejectsBadRefineTargets(t *testing.T) {
	s := newStack(t)
	coarsest := core.Level(s.codec.Config().Levels() - 1)
	for _, target := range []core.Level{coarsest, coarsest + 1, -1} {
		_, _, err := Publish(context.Background(), s.store, s.codec, s.model, "bad", s.tokens,
			PublishOptions{KV: s.kv, RefineTargets: []core.Level{target}})
		if err == nil {
			t.Errorf("accepted refinement target %d", target)
		}
	}
}

// TestFetchIncremental runs the two-phase fetch over both acquirers: the
// base phase is an ordinary fetch pinned at the coarsest level, so it
// streams exactly when a plain fetch would.
func TestFetchIncremental(t *testing.T) {
	s, man := incStack(t, []core.Level{0})
	for _, streaming := range []bool{true, false} {
		t.Run(map[bool]string{true: "stream", false: "per-chunk"}[streaming], func(t *testing.T) {
			testFetchIncremental(t, s, man.Meta, streaming)
		})
	}
}

func testFetchIncremental(t *testing.T, s *testStack, meta storage.ContextMeta, streaming bool) {
	f := &Fetcher{
		Source:           s.client,
		Codec:            s.codec,
		Model:            s.model,
		Device:           llm.A40x4(),
		Planner:          Planner{Adapt: false, DefaultLevel: 0},
		PipelineDepth:    2,
		DisableStreaming: !streaming,
	}
	ctx := context.Background()
	inc, err := f.FetchIncremental(ctx, "inc-1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Base.Tokens != len(s.tokens) {
		t.Fatalf("base covers %d tokens", inc.Base.Tokens)
	}
	if inc.BaseReport.Streamed != streaming {
		t.Errorf("base phase streamed = %v, want %v", inc.BaseReport.Streamed, streaming)
	}

	// The base phase must move fewer bytes than a direct finest-level
	// fetch would (that is the whole point of starting coarse).
	var finest, coarsest int64
	for c := 0; c < meta.NumChunks(); c++ {
		finest += meta.SizesBytes[0][c]
		coarsest += meta.SizesBytes[meta.Levels-1][c]
	}
	if inc.BaseReport.BytesReceived != coarsest {
		t.Errorf("base phase moved %d bytes, want coarsest total %d", inc.BaseReport.BytesReceived, coarsest)
	}
	if coarsest >= finest {
		t.Fatalf("coarsest level (%d B) not smaller than finest (%d B)", coarsest, finest)
	}

	// Base is usable but lossier than the upgrade.
	qp := llm.DefaultQualityParams()
	baseErr, err := s.model.KVError(s.kv, inc.Base, qp)
	if err != nil {
		t.Fatal(err)
	}
	up, upReport, err := inc.Upgrade(ctx)
	if err != nil {
		t.Fatal(err)
	}
	upErr, err := s.model.KVError(s.kv, up, qp)
	if err != nil {
		t.Fatal(err)
	}
	if upErr >= baseErr {
		t.Errorf("upgrade did not improve error: base %.4f -> %.4f", baseErr, upErr)
	}
	if upReport.BytesReceived <= 0 || up.Tokens != len(s.tokens) {
		t.Errorf("upgrade report %+v, tokens %d", upReport, up.Tokens)
	}

	// The upgraded cache matches a direct fetch at the target level.
	direct := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	directKV, _, err := direct.Fetch(ctx, "inc-1")
	if err != nil {
		t.Fatal(err)
	}
	directErr, err := s.model.KVError(s.kv, directKV, qp)
	if err != nil {
		t.Fatal(err)
	}
	if upErr > directErr*1.3+0.02 {
		t.Errorf("upgraded error %.4f far above direct level-0 error %.4f", upErr, directErr)
	}
}

func TestFetchIncrementalValidation(t *testing.T) {
	s, _ := incStack(t, []core.Level{1})
	f := &Fetcher{
		Source:  s.client,
		Codec:   s.codec,
		Model:   s.model,
		Device:  llm.A40x4(),
		Planner: Planner{Adapt: false, DefaultLevel: 0},
	}
	ctx := context.Background()
	// Unpublished target.
	if _, err := f.FetchIncremental(ctx, "inc-1", 0); err == nil {
		t.Error("accepted unpublished refinement target")
	}
	// Missing context.
	if _, err := f.FetchIncremental(ctx, "missing", 1); err == nil {
		t.Error("accepted missing context")
	}
	// Misconfigured fetcher.
	bad := &Fetcher{Source: s.client}
	if _, err := bad.FetchIncremental(ctx, "inc-1", 1); err == nil {
		t.Error("accepted fetcher without codec")
	}
}
