// Package tensor provides the KV-cache tensor substrate used throughout the
// CacheGen reproduction: a dense [layer][token][channel] float32 layout for
// the key and value tensors of a transformer context, plus the slicing,
// delta and statistics operations the codec and the LLM simulator are
// built on.
//
// The layout follows the paper's indexing (§5.1.3): every element of a KV
// cache is addressed by its layer, channel, and token position. Keys and
// values are stored as separate flat slices in (layer, token, channel)
// row-major order so that all channels of one token in one layer are
// contiguous — the access pattern of both the codec (per-token-group
// encoding) and the attention cost model.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Kind selects the key or the value tensor of a KV cache.
type Kind int

const (
	// Key selects the K tensor.
	Key Kind = iota
	// Value selects the V tensor.
	Value
)

// Kinds lists both tensor kinds in a stable order, for range loops.
var Kinds = [2]Kind{Key, Value}

// String returns "K" or "V".
func (k Kind) String() string {
	if k == Key {
		return "K"
	}
	return "V"
}

// KV is the KV cache of one context: the key and value tensors produced by
// every transformer layer for every token. It is the unit the CacheGen
// encoder consumes and the decoder reconstructs.
//
// The zero value is an empty cache; use New to allocate a sized one.
type KV struct {
	Layers   int // number of transformer layers
	Tokens   int // number of tokens in the context
	Channels int // KV channels per token per layer (heads × head dim)

	// K and V hold the key and value tensors as flat slices of length
	// Layers*Tokens*Channels, indexed (layer*Tokens+token)*Channels+channel.
	K, V []float32
}

// New allocates a zeroed KV cache with the given dimensions.
func New(layers, tokens, channels int) *KV {
	n := layers * tokens * channels
	return &KV{
		Layers:   layers,
		Tokens:   tokens,
		Channels: channels,
		K:        make([]float32, n),
		V:        make([]float32, n),
	}
}

// Elems returns the number of elements in one of the two tensors
// (layers × tokens × channels).
func (kv *KV) Elems() int { return kv.Layers * kv.Tokens * kv.Channels }

// Data returns the flat slice backing the tensor of the given kind.
func (kv *KV) Data(kind Kind) []float32 {
	if kind == Key {
		return kv.K
	}
	return kv.V
}

// Index returns the flat index of (layer, token, channel).
func (kv *KV) Index(layer, token, channel int) int {
	return (layer*kv.Tokens+token)*kv.Channels + channel
}

// At returns the element of the given kind at (layer, token, channel).
func (kv *KV) At(kind Kind, layer, token, channel int) float32 {
	return kv.Data(kind)[kv.Index(layer, token, channel)]
}

// Set stores x at (layer, token, channel) in the tensor of the given kind.
func (kv *KV) Set(kind Kind, layer, token, channel int, x float32) {
	kv.Data(kind)[kv.Index(layer, token, channel)] = x
}

// Row returns the contiguous channel vector of one token in one layer.
// Mutating the returned slice mutates the cache.
func (kv *KV) Row(kind Kind, layer, token int) []float32 {
	base := (layer*kv.Tokens + token) * kv.Channels
	return kv.Data(kind)[base : base+kv.Channels]
}

// Rows returns the contiguous rows of tokens [from, to) in one layer, to
// channel vectors back to back. Mutating the returned slice mutates the
// cache.
func (kv *KV) Rows(kind Kind, layer, from, to int) []float32 {
	base := layer * kv.Tokens
	return kv.Data(kind)[(base+from)*kv.Channels : (base+to)*kv.Channels]
}

// SizeBytesFP16 returns the transmission-time size of the uncompressed
// cache assuming fp16 storage (2 bytes/element, both K and V), the format
// the paper's "original" sizes refer to (§3).
func (kv *KV) SizeBytesFP16() int64 {
	return int64(kv.Elems()) * 2 * 2
}

// Clone returns a deep copy of the cache.
func (kv *KV) Clone() *KV {
	out := New(kv.Layers, kv.Tokens, kv.Channels)
	copy(out.K, kv.K)
	copy(out.V, kv.V)
	return out
}

// SliceTokens returns a deep copy of the token range [from, to) across all
// layers and channels. It is how a context's KV cache is split into chunks
// (§5.3): each chunk contains the layers and channels of its tokens.
func (kv *KV) SliceTokens(from, to int) (*KV, error) {
	if from < 0 || to > kv.Tokens || from > to {
		return nil, fmt.Errorf("tensor: token slice [%d,%d) out of range 0..%d", from, to, kv.Tokens)
	}
	out := New(kv.Layers, to-from, kv.Channels)
	for l := 0; l < kv.Layers; l++ {
		for _, kind := range Kinds {
			src := kv.Data(kind)
			dst := out.Data(kind)
			sBase := (l*kv.Tokens + from) * kv.Channels
			dBase := l * out.Tokens * out.Channels
			copy(dst[dBase:dBase+(to-from)*kv.Channels], src[sBase:sBase+(to-from)*kv.Channels])
		}
	}
	return out, nil
}

// CopyTokensAt copies tokens [srcFrom, srcTo) of src into kv starting at
// token dstOff, across all layers and channels. It is the writable
// token-range counterpart of SliceTokens: a caller assembling a context
// allocates the destination once and copies (or decodes) each part into
// place, instead of concatenating per-part tensors — the O(n²)
// reassembly pattern this replaces.
func (kv *KV) CopyTokensAt(dstOff int, src *KV, srcFrom, srcTo int) error {
	if src.Layers != kv.Layers || src.Channels != kv.Channels {
		return fmt.Errorf("tensor: copy source has shape (%d,·,%d), want (%d,·,%d)",
			src.Layers, src.Channels, kv.Layers, kv.Channels)
	}
	if srcFrom < 0 || srcTo > src.Tokens || srcFrom > srcTo {
		return fmt.Errorf("tensor: source token range [%d,%d) out of range 0..%d", srcFrom, srcTo, src.Tokens)
	}
	n := srcTo - srcFrom
	if dstOff < 0 || dstOff+n > kv.Tokens {
		return fmt.Errorf("tensor: %d tokens do not fit destination at offset %d (have %d)", n, dstOff, kv.Tokens)
	}
	for l := 0; l < kv.Layers; l++ {
		for _, kind := range Kinds {
			srcData := src.Data(kind)
			dstData := kv.Data(kind)
			sBase := (l*src.Tokens + srcFrom) * kv.Channels
			dBase := (l*kv.Tokens + dstOff) * kv.Channels
			copy(dstData[dBase:dBase+n*kv.Channels], srcData[sBase:sBase+n*kv.Channels])
		}
	}
	return nil
}

// ConcatTokens concatenates the given caches along the token dimension.
// All parts must share layer and channel dimensions. It is the inverse of
// splitting a cache into chunks: decoded chunks are concatenated to
// reconstruct the full KV cache (§5.3).
func ConcatTokens(parts ...*KV) (*KV, error) {
	if len(parts) == 0 {
		return nil, errors.New("tensor: concat of zero parts")
	}
	layers, channels := parts[0].Layers, parts[0].Channels
	total := 0
	for i, p := range parts {
		if p.Layers != layers || p.Channels != channels {
			return nil, fmt.Errorf("tensor: concat part %d has shape (%d,·,%d), want (%d,·,%d)",
				i, p.Layers, p.Channels, layers, channels)
		}
		total += p.Tokens
	}
	out := New(layers, total, channels)
	off := 0
	for _, p := range parts {
		for l := 0; l < layers; l++ {
			for _, kind := range Kinds {
				src := p.Data(kind)
				dst := out.Data(kind)
				sBase := l * p.Tokens * channels
				dBase := (l*total + off) * channels
				copy(dst[dBase:dBase+p.Tokens*channels], src[sBase:sBase+p.Tokens*channels])
			}
		}
		off += p.Tokens
	}
	return out, nil
}

// DropTokens returns a copy of the cache containing only the tokens for
// which keep[token] is true, preserving order. It is the operation
// token-dropping baselines (H2O, Scissorhands) perform on a KV cache.
func (kv *KV) DropTokens(keep []bool) (*KV, error) {
	if len(keep) != kv.Tokens {
		return nil, fmt.Errorf("tensor: keep mask has %d entries, want %d", len(keep), kv.Tokens)
	}
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	out := New(kv.Layers, kept, kv.Channels)
	for l := 0; l < kv.Layers; l++ {
		dt := 0
		for t := 0; t < kv.Tokens; t++ {
			if !keep[t] {
				continue
			}
			for _, kind := range Kinds {
				copy(out.Row(kind, l, dt), kv.Row(kind, l, t))
			}
			dt++
		}
	}
	return out, nil
}

// Delta writes, for every (layer, channel), the difference between token
// `token` and token `anchor` of the given kind into dst (length Channels)
// for the given layer. Exposed for the codec's change-based encoding (§5.2).
func (kv *KV) Delta(kind Kind, layer, token, anchor int, dst []float32) {
	tr := kv.Row(kind, layer, token)
	ar := kv.Row(kind, layer, anchor)
	for c := range dst {
		dst[c] = tr[c] - ar[c]
	}
}

// LayerRMSE returns, per layer, the root-mean-square error between kv and
// other across both K and V. The quality model consumes this as its
// per-layer loss signal (§5.1.2).
func (kv *KV) LayerRMSE(other *KV) ([]float64, error) {
	if err := kv.sameShape(other); err != nil {
		return nil, err
	}
	out := make([]float64, kv.Layers)
	per := kv.Tokens * kv.Channels
	for l := 0; l < kv.Layers; l++ {
		var sum float64
		base := l * per
		for _, kind := range Kinds {
			a := kv.Data(kind)[base : base+per]
			b := other.Data(kind)[base : base+per]
			for i := range a {
				d := float64(a[i]) - float64(b[i])
				sum += d * d
			}
		}
		out[l] = math.Sqrt(sum / float64(2*per))
	}
	return out, nil
}

// LayerStd returns the per-layer standard deviation of kv across both K and
// V, used to normalise per-layer losses.
func (kv *KV) LayerStd() []float64 {
	out := make([]float64, kv.Layers)
	per := kv.Tokens * kv.Channels
	for l := 0; l < kv.Layers; l++ {
		var sum, sumSq float64
		base := l * per
		n := float64(2 * per)
		for _, kind := range Kinds {
			a := kv.Data(kind)[base : base+per]
			for _, x := range a {
				f := float64(x)
				sum += f
				sumSq += f * f
			}
		}
		mean := sum / n
		v := sumSq/n - mean*mean
		if v < 0 {
			v = 0
		}
		out[l] = math.Sqrt(v)
	}
	return out
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// kv and other across both tensors.
func (kv *KV) MaxAbsDiff(other *KV) (float64, error) {
	if err := kv.sameShape(other); err != nil {
		return 0, err
	}
	var m float64
	for _, kind := range Kinds {
		a, b := kv.Data(kind), other.Data(kind)
		for i := range a {
			d := math.Abs(float64(a[i]) - float64(b[i]))
			if d > m {
				m = d
			}
		}
	}
	return m, nil
}

func (kv *KV) sameShape(other *KV) error {
	if kv.Layers != other.Layers || kv.Tokens != other.Tokens || kv.Channels != other.Channels {
		return fmt.Errorf("tensor: shape mismatch (%d,%d,%d) vs (%d,%d,%d)",
			kv.Layers, kv.Tokens, kv.Channels, other.Layers, other.Tokens, other.Channels)
	}
	return nil
}
