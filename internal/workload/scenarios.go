package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// defaultTenants are the tenants every scenario builder spreads its
// arrivals across, uniformly (seeded).
var defaultTenants = []string{"tenant-a", "tenant-b"}

// RAGBurst models retrieval-augmented serving: many contexts share a hot
// corpus prefix (the retrieved document set / system prompt), and
// requests arrive in tight bursts as a popular query fans out. The
// shared prefix is what the content-addressed store dedups and what the
// RAM tier keeps hot; the bursts are what stresses admission and
// prefetch.
func RAGBurst(seed int64) *Trace {
	const (
		contexts      = 6
		contextTokens = 192
		prefixTokens  = 128
		requests      = 18
		window        = 900 * time.Millisecond
		slo           = 300 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		TraceName: "rag-burst",
		Seed:      seed,
	}
	corpus := fmt.Sprintf("rag-corpus-%d", seed)
	for i := 0; i < contexts; i++ {
		t.ContextList = append(t.ContextList, ContextSpec{
			ID: fmt.Sprintf("rag-%02d", i), Tokens: contextTokens,
			PrefixID: corpus, PrefixTokens: prefixTokens,
			Seed: rng.Int63(),
		})
	}
	// Three bursts: each takes a third of the requests inside a tenth of
	// the window, separated by quiet gaps.
	bursts := 3
	per := requests / bursts
	for b := 0; b < bursts; b++ {
		burstStart := time.Duration(float64(window) * float64(b) / float64(bursts))
		n := per
		if b == bursts-1 {
			n = requests - per*(bursts-1)
		}
		for i := 0; i < n; i++ {
			at := burstStart + time.Duration(rng.Int63n(int64(window)/int64(10*bursts)+1))
			t.ArrivalList = append(t.ArrivalList, Arrival{
				At:        at,
				Tenant:    defaultTenants[rng.Intn(len(defaultTenants))],
				ContextID: fmt.Sprintf("rag-%02d", rng.Intn(contexts)),
				SLO:       slo,
				Seed:      rng.Int63(),
			})
		}
	}
	sortArrivals(t.ArrivalList)
	return t
}

// Agentic models tool-using agents: each arrival is a multi-turn session
// that appends tool output to its own context every turn through
// gateway.Session, so warm turns fetch only the tail the previous append
// produced. It exercises append-publish, warm fetches and the
// store's multi-turn path under concurrent sessions.
func Agentic(seed int64) *Trace {
	const (
		requests     = 6
		window       = 600 * time.Millisecond
		turns        = 3
		thinkTime    = 30 * time.Millisecond
		appendTokens = 96
		slo          = 400 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		TraceName: "agentic",
		Seed:      seed,
	}
	for i := 0; i < requests; i++ {
		at := time.Duration(float64(window) * float64(i) / float64(requests))
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:           at,
			Tenant:       defaultTenants[rng.Intn(len(defaultTenants))],
			ContextID:    fmt.Sprintf("agent-%02d", i),
			SLO:          slo,
			Turns:        turns,
			ThinkTime:    thinkTime,
			AppendTokens: appendTokens,
			Seed:         rng.Int63(),
		})
	}
	sortArrivals(t.ArrivalList)
	return t
}

// LongDocQA models long-document question answering: a few large
// contexts (the documents), each queried repeatedly with substantial
// prompt suffixes (the questions). Per-request bytes dominate, so this
// is the scenario most sensitive to bandwidth faults.
func LongDocQA(seed int64) *Trace {
	const (
		contexts      = 2
		contextTokens = 448
		requests      = 10
		window        = 800 * time.Millisecond
		suffixTokens  = 64
		slo           = 400 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		TraceName: "longdoc-qa",
		Seed:      seed,
	}
	for i := 0; i < contexts; i++ {
		t.ContextList = append(t.ContextList, ContextSpec{
			ID: fmt.Sprintf("doc-%02d", i), Tokens: contextTokens, Seed: rng.Int63(),
		})
	}
	for i := 0; i < requests; i++ {
		// Uniform arrivals with seeded jitter: questions trickle in.
		at := time.Duration(float64(window)*float64(i)/float64(requests)) +
			time.Duration(rng.Int63n(int64(window)/int64(4*requests)+1))
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:           at,
			Tenant:       defaultTenants[rng.Intn(len(defaultTenants))],
			ContextID:    fmt.Sprintf("doc-%02d", rng.Intn(contexts)),
			SuffixTokens: suffixTokens,
			SLO:          slo,
			Seed:         rng.Int63(),
		})
	}
	sortArrivals(t.ArrivalList)
	return t
}

// FlashCrowd models a viral moment: every tenant hammers one hot context
// inside a tight spike at the start of the window, then a trickle of
// stragglers. The hot context's primary node is the obvious chaos
// victim.
func FlashCrowd(seed int64) *Trace {
	const (
		contextTokens = 256
		requests      = 16
		window        = 700 * time.Millisecond
		slo           = 300 * time.Millisecond
	)
	rng := rand.New(rand.NewSource(seed))
	t := &Trace{
		TraceName: "flash-crowd",
		Seed:      seed,
	}
	t.ContextList = append(t.ContextList, ContextSpec{
		ID: "hot-ctx", Tokens: contextTokens, Seed: rng.Int63(),
	})
	spike := requests * 3 / 4
	for i := 0; i < requests; i++ {
		var at time.Duration
		if i < spike {
			// The crowd: everyone inside the first fifth of the window.
			at = time.Duration(rng.Int63n(int64(window)/5 + 1))
		} else {
			// Stragglers spread over the rest.
			at = window/5 + time.Duration(rng.Int63n(int64(window)*4/5+1))
		}
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:        at,
			Tenant:    defaultTenants[rng.Intn(len(defaultTenants))],
			ContextID: "hot-ctx",
			SLO:       slo,
			Seed:      rng.Int63(),
		})
	}
	sortArrivals(t.ArrivalList)
	return t
}

// PoissonTenant describes one tenant's traffic in a Poisson workload.
type PoissonTenant struct {
	// Name is the tenant id submitted to the gateway.
	Name string
	// Share is the tenant's weight in the traffic mix (arrivals are split
	// proportionally to shares). ≥ 1.
	Share int
	// ContextIDs are the published contexts this tenant requests,
	// uniformly at random.
	ContextIDs []string
	// SLO, Deadline and SuffixTokens are copied onto every request.
	SLO          time.Duration
	Deadline     time.Duration
	SuffixTokens int
	// Turns, when > 1, makes each arrival a multi-turn chat session: the
	// same context is requested Turns times in sequence, separated by
	// exponentially distributed think times, and the KV returned by each
	// turn rides along as the next turn's Resident prefix — so warm turns
	// stream only what the context gained in between (nothing, here;
	// append traffic is Session territory). 0 or 1 = single-shot.
	Turns int
	// ThinkTime is the mean think time between a session's turns
	// (exponential; seeded like everything else). 0 = back-to-back.
	ThinkTime time.Duration
}

// Poisson materialises the classic open-loop Poisson workload as a
// trace: exponential inter-arrival gaps at rate arrivals/second
// regardless of how the gateway keeps up (the open-loop property that
// exposes queueing collapse), each arrival drawn from the tenant mix. The
// draw order is fixed, so a given seed produces the same request
// sequence it always did. Contexts are assumed already published
// (ContextList is empty).
func Poisson(rate float64, requests int, tenants []PoissonTenant, seed int64) (*Trace, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("workload: poisson rate %v must be positive", rate)
	}
	if requests <= 0 {
		return nil, fmt.Errorf("workload: poisson needs requests, got %d", requests)
	}
	if len(tenants) == 0 {
		return nil, errors.New("workload: poisson has no tenants")
	}
	totalShare := 0
	for _, t := range tenants {
		if t.Name == "" || len(t.ContextIDs) == 0 {
			return nil, fmt.Errorf("workload: tenant %q needs a name and contexts", t.Name)
		}
		if t.Share < 1 {
			return nil, fmt.Errorf("workload: tenant %q has share %d, want ≥ 1", t.Name, t.Share)
		}
		if t.Turns < 0 {
			return nil, fmt.Errorf("workload: tenant %q has negative turn count", t.Name)
		}
		totalShare += t.Share
	}
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{
		TraceName: "poisson",
		Seed:      seed,
	}
	mean := time.Duration(float64(time.Second) / rate)
	at := time.Duration(0)
	for i := 0; i < requests; i++ {
		if i > 0 {
			at += ExpDuration(rng, mean)
		}
		t := pickShare(rng, tenants, totalShare)
		tr.ArrivalList = append(tr.ArrivalList, Arrival{
			At:           at,
			Tenant:       t.Name,
			ContextID:    t.ContextIDs[rng.Intn(len(t.ContextIDs))],
			SuffixTokens: t.SuffixTokens,
			SLO:          t.SLO,
			Deadline:     t.Deadline,
			Turns:        t.Turns,
			ThinkTime:    t.ThinkTime,
			Seed:         rng.Int63(),
		})
	}
	return tr, nil
}

// pickShare draws a tenant proportionally to its share.
func pickShare(rng *rand.Rand, tenants []PoissonTenant, total int) PoissonTenant {
	n := rng.Intn(total)
	for _, t := range tenants {
		n -= t.Share
		if n < 0 {
			return t
		}
	}
	return tenants[len(tenants)-1]
}

// Builders maps scenario names to their builders, for CLIs that accept
// a scenario by name ("rag-burst", "agentic", "longdoc-qa",
// "flash-crowd").
func Builders() map[string]func(seed int64) *Trace {
	return map[string]func(seed int64) *Trace{
		"rag-burst":   RAGBurst,
		"agentic":     Agentic,
		"longdoc-qa":  LongDocQA,
		"flash-crowd": FlashCrowd,
	}
}

// Resolve builds the named scenario with the given seed. An unknown
// name's error lists the scenarios.
func Resolve(name string, seed int64) (*Trace, error) {
	if build, ok := Builders()[name]; ok {
		return build(seed), nil
	}
	names := make([]string, 0, len(Builders()))
	for n := range Builders() {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("workload: unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
}
