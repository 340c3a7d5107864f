// Package dataset provides synthetic stand-ins for the four long-context
// datasets of the paper's evaluation (§7.1, Table 2): LongChat, TriviaQA,
// NarrativeQA and WikiText. The real corpora are text; all the evaluation
// consumes is (a) token sequences with the right length distributions,
// (b) the task each dataset scores (accuracy, F1, perplexity) and its
// lossless baseline, and (c) a per-context query. Token content is sampled
// from a Zipfian vocabulary, deterministically per context id, so every
// run sees identical workloads.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/tensor"
)

// Context is one long context: the unit whose KV cache CacheGen stores,
// compresses and streams.
type Context struct {
	ID      string
	Dataset string
	Tokens  []llm.Token
	// Query is the user prompt that reuses this context.
	Query string
}

// Len returns the context length in tokens.
func (c Context) Len() int { return len(c.Tokens) }

// Dataset describes one evaluation dataset: its task and the length
// distribution of its contexts.
type Dataset struct {
	Name string
	Task llm.Task
	// Size is the number of contexts the paper evaluates (Table 2).
	Size int

	seed      uint64
	sampleLen func(r *rand.Rand) int
	queries   []string
}

// sampler builders ------------------------------------------------------

func clippedNormal(mean, std float64, lo, hi int) func(*rand.Rand) int {
	return func(r *rand.Rand) int {
		x := mean + std*r.NormFloat64()
		n := int(math.Round(x))
		if n < lo {
			n = lo
		}
		if n > hi {
			n = hi
		}
		return n
	}
}

func clippedLogNormal(median, sigma float64, lo, hi int) func(*rand.Rand) int {
	mu := math.Log(median)
	return func(r *rand.Rand) int {
		n := int(math.Round(math.Exp(mu + sigma*r.NormFloat64())))
		if n < lo {
			n = lo
		}
		if n > hi {
			n = hi
		}
		return n
	}
}

// LongChat returns the LongChat dataset [90]: 200 multi-round conversation
// histories of 9.2–9.6K tokens; the task asks for the first topic
// discussed and is scored by exact-match accuracy.
func LongChat() *Dataset {
	return &Dataset{
		Name:      "LongChat",
		Task:      llm.Task{Name: "LongChat", Metric: llm.MetricAccuracy, Baseline: 0.92},
		Size:      200,
		seed:      0x10C,
		sampleLen: clippedNormal(longChatTokens, 164, 9200, 9600),
		queries: []string{
			"What is the first topic we discussed?",
			"What was the second topic in our conversation?",
			"Summarize the first thing I asked you about.",
		},
	}
}

// longChatTokens is LongChat's mean context length (Table 2).
const longChatTokens = 9400

// Stack is a model and the codec bank trained for it on LongChat
// contexts (§5.2: one bank per LLM, profiled offline) — what every CLI
// and each harness rig starts from.
type Stack struct {
	Model *llm.Model
	Codec *core.Codec
	// Samples are the training contexts' caches.
	Samples []*tensor.KV
	// Contexts are the LongChat contexts after the training ones, for
	// publishing or held-out calibration.
	Contexts []Context
}

// TrainStack builds cfg's model and trains its codec bank on the first
// train LongChat contexts, scaled to about tokens tokens each, and
// returns it with the next n contexts at the same scale.
func TrainStack(cfg llm.Config, train, n, tokens int) (*Stack, error) {
	model, err := llm.New(cfg)
	if err != nil {
		return nil, err
	}
	ctxs := LongChat().Contexts(train+n, float64(tokens)/longChatTokens)
	samples := make([]*tensor.KV, 0, train)
	for _, c := range ctxs[:train] {
		samples = append(samples, model.CalculateKV(c.Tokens))
	}
	bank, err := core.Train(core.DefaultConfig(), samples)
	if err != nil {
		return nil, fmt.Errorf("dataset: training bank for %s: %w", cfg.Name, err)
	}
	return &Stack{Model: model, Codec: core.NewCodec(bank), Samples: samples, Contexts: ctxs[train:]}, nil
}

// TriviaQA returns the TriviaQA reading-comprehension dataset [75] (via
// LongBench): single documents with questions, scored by F1.
func TriviaQA() *Dataset {
	return &Dataset{
		Name:      "TriviaQA",
		Task:      llm.Task{Name: "TriviaQA", Metric: llm.MetricF1, Baseline: 95},
		Size:      200,
		seed:      0x77A,
		sampleLen: clippedLogNormal(9300, 0.30, 1400, 15000),
		queries: []string{
			"Answer the question based on the passage above.",
			"Who is referred to in the second paragraph?",
			"When did the event described take place?",
		},
	}
}

// NarrativeQA returns the NarrativeQA dataset [81] (via LongBench):
// stories/scripts with questions, scored by F1.
func NarrativeQA() *Dataset {
	return &Dataset{
		Name:      "NarrativeQA",
		Task:      llm.Task{Name: "NarrativeQA", Metric: llm.MetricF1, Baseline: 30},
		Size:      200,
		seed:      0xA44,
		sampleLen: clippedNormal(14000, 1916, 8000, 15500),
		queries: []string{
			"Answer the question about the story above.",
			"Why did the protagonist leave?",
			"Where does the final scene take place?",
		},
	}
}

// WikiText returns the WikiText language-modelling dataset [102]: wiki
// articles scored by next-token perplexity.
func WikiText() *Dataset {
	return &Dataset{
		Name:      "WikiText",
		Task:      llm.Task{Name: "WikiText", Metric: llm.MetricPerplexity, Baseline: 6.0},
		Size:      62,
		seed:      0x3717,
		sampleLen: clippedLogNormal(5900, 0.56, 1400, 14800),
		queries: []string{
			"Continue the article above.",
		},
	}
}

// All returns the four evaluation datasets in the paper's order.
func All() []*Dataset {
	return []*Dataset{LongChat(), TriviaQA(), NarrativeQA(), WikiText()}
}

// ByName returns the named dataset or an error.
func ByName(name string) (*Dataset, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("dataset: unknown dataset %q", name)
}

// Contexts deterministically generates n contexts (n ≤ Size typically, but
// any n works). lengthScale shrinks context lengths for scaled-down runs;
// 1.0 reproduces Table 2's distributions. Token ids follow a Zipfian
// distribution over the vocabulary, like natural text.
func (d *Dataset) Contexts(n int, lengthScale float64) []Context {
	if lengthScale <= 0 {
		lengthScale = 1
	}
	out := make([]Context, n)
	for i := range out {
		r := rand.New(rand.NewSource(int64(d.seed)<<20 + int64(i)))
		length := int(math.Round(float64(d.sampleLen(r)) * lengthScale))
		if length < 16 {
			length = 16
		}
		zipf := rand.NewZipf(r, 1.2, 8, llm.VocabSize-1)
		toks := make([]llm.Token, length)
		for t := range toks {
			toks[t] = llm.Token(zipf.Uint64())
		}
		out[i] = Context{
			ID:      fmt.Sprintf("%s-%04d", d.Name, i),
			Dataset: d.Name,
			Tokens:  toks,
			Query:   d.queries[i%len(d.queries)],
		}
	}
	return out
}

// LengthStats samples the dataset's length distribution and returns the
// median, standard deviation and 95th percentile (the Table 2 columns).
func (d *Dataset) LengthStats(samples int) (median float64, std float64, p95 float64) {
	if samples <= 0 {
		samples = d.Size
	}
	lens := make([]float64, samples)
	var sum float64
	for i := range lens {
		r := rand.New(rand.NewSource(int64(d.seed)<<20 + int64(i)))
		lens[i] = float64(d.sampleLen(r))
		sum += lens[i]
	}
	mean := sum / float64(samples)
	var v float64
	for _, x := range lens {
		v += (x - mean) * (x - mean)
	}
	std = math.Sqrt(v / float64(samples))
	sorted := append([]float64{}, lens...)
	sort.Float64s(sorted)
	median = sorted[samples/2]
	p95 = sorted[int(float64(samples)*0.95)]
	return median, std, p95
}
