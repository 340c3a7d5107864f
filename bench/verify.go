package main

import (
	"fmt"
	"hash/maphash"
	"math/bits"
	"strings"
	"unsafe"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/streamer"
	"repro/internal/tensor"
)

// The output check. Keeping every KV that Submit returned until the run
// ends is not possible (hundreds of 25 MB tensors), so each one is
// reduced to a 64-bit digest of its raw float32 bits the moment it
// arrives, outside the timed interval. After the run the reference KV of
// every unique (context, per-chunk decision vector) is rebuilt from the
// lossless KV — encode each chunk at the level the request landed on and
// decode it, recompute text chunks through the model — and its digest
// must equal the digest of every request that reported that vector.

var digestSeed = maphash.MakeSeed()

func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), len(f)*4)
}

// kvDigest hashes the tensor's exact bits.
func kvDigest(kv *tensor.KV) uint64 {
	return maphash.Bytes(digestSeed, floatBytes(kv.K)) ^
		bits.RotateLeft64(maphash.Bytes(digestSeed, floatBytes(kv.V)), 1)
}

// decisionKey renders a fetch's per-chunk choices, e.g. "L1,L1,text".
func decisionKey(ds []streamer.ChunkDecision) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.Choice.String()
	}
	return strings.Join(parts, ",")
}

type refKey struct {
	ctx *benchContext
	key string
}

type refValue struct {
	digest  uint64
	quality float64
}

// verifier rebuilds references lazily and remembers them.
type verifier struct {
	model   *llm.Model
	codec   *core.Codec
	refs    map[refKey]refValue
	payload map[string][]byte // "<ctx>/<chunk>/<level>" → encoded chunk
}

func newVerifier(model *llm.Model, codec *core.Codec) *verifier {
	return &verifier{model: model, codec: codec, refs: map[refKey]refValue{}, payload: map[string][]byte{}}
}

func parseChoice(s string) (streamer.Choice, error) {
	if s == "text" {
		return streamer.Choice{Text: true}, nil
	}
	var lv int
	if _, err := fmt.Sscanf(s, "L%d", &lv); err != nil {
		return streamer.Choice{}, fmt.Errorf("bad choice %q", s)
	}
	return streamer.Choice{Level: core.Level(lv)}, nil
}

// reference returns the digest and modelled quality of the KV a correct
// fetch of c under the decision vector key must produce.
func (v *verifier) reference(c *benchContext, key string) (refValue, error) {
	rk := refKey{c, key}
	if ref, ok := v.refs[rk]; ok {
		return ref, nil
	}
	offs := v.codec.SplitOffsets(len(c.tokens))
	choices := strings.Split(key, ",")
	if len(choices) != len(offs)-1 {
		return refValue{}, fmt.Errorf("context %s: %d decisions for %d chunks", c.id, len(choices), len(offs)-1)
	}
	dest := tensor.New(c.kv.Layers, c.kv.Tokens, c.kv.Channels)
	for i, cs := range choices {
		choice, err := parseChoice(cs)
		if err != nil {
			return refValue{}, err
		}
		lo, hi := offs[i], offs[i+1]
		if choice.Text {
			part, err := v.model.ExtendKV(dest, lo, c.tokens[lo:hi])
			if err != nil {
				return refValue{}, err
			}
			if err := dest.CopyTokensAt(lo, part, 0, part.Tokens); err != nil {
				return refValue{}, err
			}
			continue
		}
		pk := fmt.Sprintf("%s/%d/%d", c.id, i, choice.Level)
		data, ok := v.payload[pk]
		if !ok {
			part, err := c.kv.SliceTokens(lo, hi)
			if err != nil {
				return refValue{}, err
			}
			if data, err = v.codec.EncodeChunk(part, i, lo, choice.Level); err != nil {
				return refValue{}, err
			}
			v.payload[pk] = data
		}
		if _, err := v.codec.DecodeChunkInto(dest, lo, data); err != nil {
			return refValue{}, err
		}
	}
	qp := llm.DefaultQualityParams()
	e, err := v.model.KVError(c.kv, dest, qp)
	if err != nil {
		return refValue{}, err
	}
	ref := refValue{
		digest:  kvDigest(dest),
		quality: llm.Task{Metric: llm.MetricAccuracy, Baseline: 1}.Score(e, 0, qp),
	}
	v.refs[rk] = ref
	return ref, nil
}
