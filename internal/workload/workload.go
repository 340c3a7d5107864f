// Package workload defines replayable, seeded scenario traces for the
// serving stack: a trace names the contexts a scenario publishes and the
// per-tenant request schedule replayed against the gateway. A trace is
// what a builder returns (the named scenarios and Poisson in
// scenarios.go), a pure function of its parameters and seed, so the same
// scenario replays bit-for-bit across runs, hosts, and fault schedules;
// the chaos subsystem (internal/chaos) composes with any trace because
// faults are injected by wall-clock offset against the same t=0 the
// trace replays from.
//
// The gateway replays traces with gateway.Replay; the open-loop Poisson
// generator is a builder here (Poisson) and replays through the same
// path.
package workload

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/llm"
)

// ContextSpec describes one context a scenario publishes before replay
// starts. Token content is fully determined by (PrefixID, PrefixTokens,
// Seed, Tokens), so a republished context is bit-for-bit identical —
// which is what lets the chaos harness compare a faulted run's KV
// against an unfaulted reference run.
type ContextSpec struct {
	// ID is the published context id.
	ID string
	// Tokens is the total context length.
	Tokens int
	// PrefixID, when set, names a shared corpus: the context's first
	// PrefixTokens tokens come from CorpusTokens(PrefixID), so every
	// context naming the same corpus shares a hot prefix (and the
	// content-addressed store dedups their chunks).
	PrefixID string
	// PrefixTokens is how much of the context the shared corpus covers.
	PrefixTokens int
	// Seed determines the context's unique (non-corpus) tokens.
	Seed int64
}

// BuildTokens synthesises the context's exact token content.
func (c ContextSpec) BuildTokens() []llm.Token {
	out := make([]llm.Token, 0, c.Tokens)
	if c.PrefixID != "" && c.PrefixTokens > 0 {
		n := c.PrefixTokens
		if n > c.Tokens {
			n = c.Tokens
		}
		out = append(out, CorpusTokens(c.PrefixID, n)...)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	for len(out) < c.Tokens {
		out = append(out, llm.Token(rng.Intn(llm.VocabSize)))
	}
	return out
}

// CorpusTokens returns the first n tokens of the named shared corpus.
// The stream is a pure function of the id, so independently built
// contexts naming the same corpus share an identical prefix.
func CorpusTokens(id string, n int) []llm.Token {
	h := fnv.New64a()
	h.Write([]byte(id))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

// TurnTokens synthesises one session turn's token content (the user
// prompt plus tool output an agentic turn appends). Turn numbering is
// 1-based; the stream is a pure function of (seed, turn), so replayed
// sessions append identical histories regardless of scheduling order.
func TurnTokens(seed int64, turn, n int) []llm.Token {
	const mix = -0x61c8864680b583eb // 0x9e3779b97f4a7c15 as signed int64
	rng := rand.New(rand.NewSource(seed ^ int64(turn)*mix))
	out := make([]llm.Token, n)
	for i := range out {
		out[i] = llm.Token(rng.Intn(llm.VocabSize))
	}
	return out
}

// Arrival is one scheduled session arrival: at offset At from replay
// start, the tenant submits a session of Turns turns against ContextID.
// With AppendTokens > 0 the session is agentic — each turn appends
// TurnTokens(Seed, turn, AppendTokens) through gateway.Session, growing
// the published context — otherwise turns re-fetch the same context with
// the previous turn's KV resident (a chat re-reading its history).
type Arrival struct {
	// At is the arrival's offset from replay start.
	At time.Duration
	// Tenant is the submitting tenant.
	Tenant string
	// ContextID is the context requested (for agentic arrivals, the
	// context the session creates on its first turn).
	ContextID string
	// SuffixTokens is the per-turn prompt-suffix length (0 = gateway
	// default).
	SuffixTokens int
	// SLO is the per-turn TTFT objective (0 = none).
	SLO time.Duration
	// Deadline hard-abandons a turn that long after admission (0 = none).
	Deadline time.Duration
	// Turns is the session length (0 or 1 = single-shot).
	Turns int
	// ThinkTime is the mean think time between turns (exponential, drawn
	// from Seed; capped at 5× the mean).
	ThinkTime time.Duration
	// AppendTokens, when > 0, makes each turn append that many tokens via
	// gateway.Session (agentic tool output).
	AppendTokens int
	// Seed drives the session's private randomness: think-time draws and
	// agentic turn content.
	Seed int64
}

// ExpDuration draws an exponential duration with the given mean, capped
// at 5× the mean so one unlucky draw cannot stall a run or a session. It
// draws Poisson's inter-arrival gaps and replayed sessions' think times.
func ExpDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	return min(time.Duration(rng.ExpFloat64()*float64(mean)), 5*mean)
}

// Trace is a complete replayable scenario: the contexts to publish and
// the arrival schedule, replayed by gateway.Replay.
type Trace struct {
	// TraceName labels the scenario in reports.
	TraceName string
	// Seed is the master seed the trace was built from (informational
	// after building — all randomness is already materialised in the
	// arrivals and specs).
	Seed int64
	// ContextList names the contexts replay publishes before t=0.
	// Agentic contexts are absent: their sessions create them.
	ContextList []ContextSpec
	// ArrivalList is the schedule, sorted by At.
	ArrivalList []Arrival
}

// Validate checks the trace is replayable: sorted arrivals, named
// tenants and contexts, sane counts. Builders always produce valid
// traces; gateway.Replay validates whatever it is given.
func (t *Trace) Validate() error {
	if t.TraceName == "" {
		return errors.New("workload: trace has no name")
	}
	if len(t.ArrivalList) == 0 {
		return fmt.Errorf("workload: trace %q has no arrivals", t.TraceName)
	}
	seen := map[string]bool{}
	for i, c := range t.ContextList {
		if c.ID == "" {
			return fmt.Errorf("workload: trace %q: context %d has no id", t.TraceName, i)
		}
		if seen[c.ID] {
			return fmt.Errorf("workload: trace %q: duplicate context %q", t.TraceName, c.ID)
		}
		seen[c.ID] = true
		if c.Tokens <= 0 {
			return fmt.Errorf("workload: trace %q: context %q has %d tokens", t.TraceName, c.ID, c.Tokens)
		}
		if c.PrefixTokens < 0 || c.PrefixTokens > c.Tokens {
			return fmt.Errorf("workload: trace %q: context %q prefix %d outside [0, %d]",
				t.TraceName, c.ID, c.PrefixTokens, c.Tokens)
		}
	}
	last := time.Duration(-1)
	for i, a := range t.ArrivalList {
		if a.Tenant == "" || a.ContextID == "" {
			return fmt.Errorf("workload: trace %q: arrival %d needs a tenant and a context id", t.TraceName, i)
		}
		if a.At < 0 {
			return fmt.Errorf("workload: trace %q: arrival %d at negative offset %v", t.TraceName, i, a.At)
		}
		if a.At < last {
			return fmt.Errorf("workload: trace %q: arrivals not sorted by offset (index %d)", t.TraceName, i)
		}
		last = a.At
		if a.Turns < 0 {
			return fmt.Errorf("workload: trace %q: arrival %d has negative turn count", t.TraceName, i)
		}
		if a.AppendTokens < 0 {
			return fmt.Errorf("workload: trace %q: arrival %d has negative append tokens", t.TraceName, i)
		}
		if a.AppendTokens > 0 && !seen[a.ContextID] {
			continue // agentic sessions create their own context
		}
		if len(t.ContextList) > 0 && !seen[a.ContextID] {
			return fmt.Errorf("workload: trace %q: arrival %d requests unpublished context %q",
				t.TraceName, i, a.ContextID)
		}
	}
	return nil
}

// sortArrivals orders the schedule by offset, stably, so builders can
// emit per-tenant streams and merge them.
func sortArrivals(as []Arrival) {
	sort.SliceStable(as, func(i, j int) bool { return as[i].At < as[j].At })
}

// Duration returns the schedule length (the last arrival's offset).
func (t *Trace) Duration() time.Duration {
	if len(t.ArrivalList) == 0 {
		return 0
	}
	return t.ArrivalList[len(t.ArrivalList)-1].At
}
