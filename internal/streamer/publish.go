package streamer

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// PublishOptions tune Publish and Append.
type PublishOptions struct {
	// SizeScale multiplies the *reported* bitstream sizes in the stored
	// metadata (not the payloads). Experiments that synthesise a channel
	// subsample set this to Config.ChannelScale() so that transfer-time
	// accounting reflects the full-size model; the live path leaves it 1.
	// Text payload sizes are never scaled (tokens are tokens).
	SizeScale float64
	// KV, if non-nil, is the precomputed cache for the tokens (skips
	// CalculateKV). For Append it must cover the context's *full* new
	// token count; the engine encodes the dirty suffix out of it in place.
	KV *tensor.KV
}

// PublishStats accounts one publish or append against the
// content-addressed store: how much was actually encoded and uploaded
// versus adopted by reference. The dedup ratio experiments (X6) and the
// gateway sessions read these.
type PublishStats struct {
	// Chunks is the number of chunks the resulting manifest covers;
	// EncodedChunks of them went through the engine this call, and
	// ReusedChunks were adopted wholesale from the prior manifest (the
	// append path's clean prefix).
	Chunks, EncodedChunks, ReusedChunks int
	// PayloadsStored counts payloads written to the store (new content);
	// PayloadsReused counts references to payloads that already existed.
	PayloadsStored, PayloadsReused int
	// BytesStored / BytesReused are the corresponding raw payload bytes.
	BytesStored, BytesReused int64
	// EncodesSkipped counts bitstream encodes avoided entirely because
	// the fingerprint index recognised the chunk's inputs.
	EncodesSkipped int
}

// add folds o into s (concurrent workers merge through a mutex).
func (s *PublishStats) add(o PublishStats) {
	s.Chunks += o.Chunks
	s.EncodedChunks += o.EncodedChunks
	s.ReusedChunks += o.ReusedChunks
	s.PayloadsStored += o.PayloadsStored
	s.PayloadsReused += o.PayloadsReused
	s.BytesStored += o.BytesStored
	s.BytesReused += o.BytesReused
	s.EncodesSkipped += o.EncodesSkipped
}

// Publish is the store_kv interface of §6 over the content-addressed
// store: it computes (or accepts) the context's KV cache, splits it into
// chunks, encodes every chunk at every encoding level plus the per-chunk
// token text (for the recompute fallback), stores each payload under its
// bitstream hash, and writes the manifest mapping the context to its
// payload references.
//
// Publish is manifest-diff-aware through the store's fingerprint index:
// a chunk whose identity (codec fingerprint, model, position, token
// prefix) was encoded before — by this context or any other — skips both
// the encode and the upload, so contexts sharing prefixes (RAG document
// pools, forked conversations) cost storage and CPU once.
func Publish(ctx context.Context, st storage.Store, codec *core.Codec, model *llm.Model,
	contextID string, tokens []llm.Token, opts PublishOptions) (storage.Manifest, *PublishStats, error) {

	if len(tokens) == 0 {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: publishing empty context %q", contextID)
	}
	if opts.KV != nil && opts.KV.Tokens != len(tokens) {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: cache covers %d tokens, context has %d", opts.KV.Tokens, len(tokens))
	}
	job := publishJob{
		contextID:    contextID,
		total:        len(tokens),
		firstChunk:   0,
		startOffset:  0,
		suffixTokens: tokens,
		scale:        normScale(opts.SizeScale),
	}
	job.kv = kvProvider(model, tokens, opts.KV)
	frag, err := encodeChunks(ctx, st, codec, model, job)
	if err != nil {
		return storage.Manifest{}, nil, err
	}
	man := frag.manifest(contextID, model.Config().Name, len(tokens), codec.Config().Levels())
	if err := st.PutManifest(ctx, man); err != nil {
		return storage.Manifest{}, nil, fmt.Errorf("streamer: storing manifest: %w", err)
	}
	frag.stats.Chunks = man.Meta.NumChunks()
	return man, &frag.stats, nil
}

func normScale(s float64) float64 {
	if s <= 0 {
		return 1
	}
	return s
}

// kvProvider returns a lazy accessor for the whole context's KV cache —
// the precomputed one, or the model's for tokens. A fully-deduplicated
// publish never touches it, so CalculateKV only runs when at least one
// chunk actually encodes; chunks encode out of it in place.
func kvProvider(model *llm.Model, tokens []llm.Token, precomputed *tensor.KV) func() *tensor.KV {
	var once sync.Once
	kv := precomputed
	return func() *tensor.KV {
		once.Do(func() {
			if kv == nil {
				kv = model.CalculateKV(tokens)
			}
		})
		return kv
	}
}

// publishJob describes the chunk range [firstChunk, numChunks(total)) an
// engine call encodes: a fresh publish covers everything, an append only
// the dirty suffix.
type publishJob struct {
	contextID   string
	total       int    // token count of the whole (resulting) context
	firstChunk  int    // first chunk index to encode
	startOffset int    // absolute token offset of firstChunk
	prevChain   string // chain digest through chunk firstChunk-1 ("" at 0)
	// suffixTokens are tokens[startOffset:total].
	suffixTokens []llm.Token
	scale        float64
	// kv lazily yields the cache of the whole context (all `total` tokens).
	kv func() *tensor.KV
}

// chunkFragments is the engine's output: manifest/meta rows for the
// encoded chunk range, positionally aligned from job.firstChunk.
type chunkFragments struct {
	chunkTokens []int
	chains      []string
	hashes      map[int][]string // level → per-chunk payload hashes
	sizes       map[int][]int64  // level → reported (scaled) sizes
	stats       PublishStats
}

// manifest assembles a whole-context manifest from fragments that cover
// every chunk (the fresh-publish case).
func (f *chunkFragments) manifest(contextID, modelName string, total, levels int) storage.Manifest {
	meta := storage.ContextMeta{
		ContextID:   contextID,
		Model:       modelName,
		TokenCount:  total,
		ChunkTokens: f.chunkTokens,
		Levels:      levels,
		TextBytes:   f.sizes[storage.TextLevel],
		Format:      core.FormatV2,
	}
	meta.SizesBytes = make([][]int64, meta.Levels)
	for lv := 0; lv < meta.Levels; lv++ {
		meta.SizesBytes[lv] = f.sizes[lv]
	}
	return storage.Manifest{Meta: meta, Hashes: f.hashes, ChainDigests: f.chains}
}

// modelFingerprint identifies the KV process: the same tokens under a
// different model (or seed) must never dedup against each other.
func modelFingerprint(model *llm.Model) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("cachegen-model-v1|%+v", model.Config())))
	return hex.EncodeToString(sum[:])
}

// chainDigest extends a running digest of the token stream. KV values are
// causal in the prefix (§5.1: self-attention), so a chunk's bitstream is
// a pure function of (codec, model, position, this digest) — which is
// exactly what the fingerprint index keys on.
func chainDigest(prev string, tokens []llm.Token) string {
	h := sha256.New()
	h.Write([]byte(prev))
	var buf [4]byte
	for _, t := range tokens {
		binary.BigEndian.PutUint32(buf[:], uint32(t))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprintKey derives the dedup-index key of one (chunk, level)
// payload from everything its bitstream depends on.
func fingerprintKey(codecFP, modelFP string, level, chunk, lo, n int, chain string) string {
	h := sha256.New()
	fmt.Fprintf(h, "cachegen-fp-v1|%s|%s|%d|%d|%d|%d|%s", codecFP, modelFP, level, chunk, lo, n, chain)
	return hex.EncodeToString(h.Sum(nil))
}

// encodeChunks runs the publish engine over the job's chunk range:
// chunks are processed in parallel (bounded by the codec's worker
// budget), each first consulting the fingerprint index to skip encoding,
// then the store's content addressing to skip uploading.
func encodeChunks(ctx context.Context, st storage.Store, codec *core.Codec, model *llm.Model, job publishJob) (*chunkFragments, error) {
	cfg := codec.Config()
	offs := codec.SplitOffsets(job.total)
	nChunks := len(offs) - 1
	span := nChunks - job.firstChunk
	if span <= 0 {
		return nil, fmt.Errorf("streamer: empty chunk range for %q", job.contextID)
	}
	if offs[job.firstChunk] != job.startOffset {
		return nil, fmt.Errorf("streamer: chunk %d starts at %d, job says %d", job.firstChunk, offs[job.firstChunk], job.startOffset)
	}
	codecFP, err := codec.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("streamer: %w", err)
	}
	modelFP := modelFingerprint(model)

	frag := &chunkFragments{
		chunkTokens: make([]int, span),
		chains:      make([]string, span),
		hashes:      map[int][]string{},
		sizes:       map[int][]int64{},
	}
	// Every real level, and the text pseudo-level (TextLevel is -1).
	for lv := storage.TextLevel; lv < cfg.Levels(); lv++ {
		frag.hashes[lv] = make([]string, span)
		frag.sizes[lv] = make([]int64, span)
	}

	// Chain digests are sequential but cheap (hashing token ids); payload
	// work is parallel.
	chain := job.prevChain
	for si := 0; si < span; si++ {
		lo, hi := offs[job.firstChunk+si], offs[job.firstChunk+si+1]
		frag.chunkTokens[si] = hi - lo
		chain = chainDigest(chain, job.suffixTokens[lo-job.startOffset:hi-job.startOffset])
		frag.chains[si] = chain
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var mu sync.Mutex // guards frag.stats
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	errs := make([]error, span)
	for si := 0; si < span; si++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(si int) {
			defer wg.Done()
			defer func() { <-sem }()
			stats, err := encodeOneChunk(ctx, st, codec, model, job, frag, offs, si, codecFP, modelFP)
			if err != nil {
				errs[si] = err
				return
			}
			mu.Lock()
			frag.stats.add(stats)
			mu.Unlock()
		}(si)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return frag, nil
}

// encodeOneChunk resolves every payload of one chunk: fingerprint-index
// reuse, content-addressed upload dedup, or a fresh encode. A freshly
// encoded payload's store round trips (touch, put, index) run behind the
// next payload's lookup and encode, one payload at a time; the first error
// in payload order wins, and nothing outlives the call.
func encodeOneChunk(ctx context.Context, st storage.Store, codec *core.Codec, model *llm.Model,
	job publishJob, frag *chunkFragments, offs []int, si int, codecFP, modelFP string) (PublishStats, error) {

	var stats PublishStats
	i := job.firstChunk + si // absolute chunk index
	lo, hi := offs[i], offs[i+1]
	n := hi - lo
	chain := frag.chains[si]

	// record notes one resolved payload in the manifest rows.
	record := func(level int, hash string, bytes int64) {
		frag.hashes[level][si] = hash
		if level != storage.TextLevel {
			bytes = int64(math.Round(float64(bytes) * job.scale))
		}
		frag.sizes[level][si] = bytes
	}

	// storePayload writes one resolved payload unless the store already
	// holds the content, indexes it under key (text has none) and returns
	// what that added to the stats. The index entry is written last: a
	// payload whose upload failed is never findable by fingerprint.
	storePayload := func(level int, key string, data []byte) (PublishStats, error) {
		var st1 PublishStats
		hash := storage.HashChunk(data)
		exists, err := st.TouchChunk(ctx, hash)
		if err != nil {
			return st1, fmt.Errorf("streamer: touching chunk %d level %d: %w", i, level, err)
		}
		if exists {
			st1.PayloadsReused++
			st1.BytesReused += int64(len(data))
		} else {
			if err := st.PutChunk(ctx, hash, data); err != nil {
				return st1, fmt.Errorf("streamer: storing chunk %d level %d: %w", i, level, err)
			}
			st1.PayloadsStored++
			st1.BytesStored += int64(len(data))
		}
		record(level, hash, int64(len(data)))
		if key != "" {
			fp := storage.Fingerprint{Hash: hash, Bytes: int64(len(data))}
			if err := st.PutFingerprint(ctx, key, fp); err != nil {
				return st1, fmt.Errorf("streamer: indexing chunk %d level %d: %w", i, level, err)
			}
		}
		return st1, nil
	}

	// storing is the one storePayload in flight; join folds it in.
	type stored struct {
		stats PublishStats
		err   error
	}
	var storing chan stored
	join := func() error {
		if storing == nil {
			return nil
		}
		r := <-storing
		storing = nil
		stats.add(r.stats)
		return r.err
	}
	// fail is the return for an error met while a store may be in flight: it
	// leaves none running, and an error of the earlier payload comes first.
	fail := func(err error) error {
		if jerr := join(); jerr != nil {
			return jerr
		}
		return err
	}

	// reusePayload adopts a fingerprint-index hit without re-encoding,
	// provided the payload still exists on its placement nodes (a sweep
	// may have reclaimed it since the index entry was written).
	reusePayload := func(level int, fp storage.Fingerprint) (bool, error) {
		exists, err := st.TouchChunk(ctx, fp.Hash)
		if err != nil || !exists {
			return false, err
		}
		record(level, fp.Hash, fp.Bytes)
		stats.PayloadsReused++
		stats.BytesReused += fp.Bytes
		stats.EncodesSkipped++
		return true, nil
	}

	// encoded resolves one level's bitstream payload through the
	// fingerprint index.
	encoded := func(level int) error {
		key := fingerprintKey(codecFP, modelFP, level, i, lo, n, chain)
		if fp, err := st.GetFingerprint(ctx, key); err == nil {
			ok, err := reusePayload(level, fp)
			if err != nil {
				return fail(fmt.Errorf("streamer: touching chunk %d level %d: %w", i, level, err))
			}
			if ok {
				return nil
			}
		}
		// The context's KV, fetched lazily: if every bitstream payload is a
		// fingerprint hit, it is never materialised. In place: the chunk's
		// rows are read where they lie in the context.
		data, err := codec.EncodeChunkRange(job.kv(), lo, hi, i, lo, core.Level(level))
		if err != nil {
			return fail(fmt.Errorf("streamer: encoding chunk %d level %d: %w", i, level, err))
		}
		if err := join(); err != nil {
			return err
		}
		stats.EncodedChunks = 1 // this chunk went through the encoder
		storing = make(chan stored, 1)
		go func(done chan<- stored) {
			st1, err := storePayload(level, key, data)
			done <- stored{st1, err}
		}(storing)
		return nil
	}

	for lv := 0; lv < codec.Config().Levels(); lv++ {
		if err := encoded(lv); err != nil {
			return stats, err
		}
	}
	if err := join(); err != nil {
		return stats, err
	}
	// Token text needs no fingerprint indirection: serialising tokens is
	// cheap, and the content address alone dedups the upload.
	text := llm.EncodeTokens(job.suffixTokens[lo-job.startOffset : hi-job.startOffset])
	st1, err := storePayload(storage.TextLevel, "", text)
	stats.add(st1)
	return stats, err
}
