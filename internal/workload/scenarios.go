package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Params configures the scenario builders. Every field has a
// builder-specific default, so the zero value (plus a Seed) produces a
// small, fast scenario; the chaos harness (X10) uses exactly those.
type Params struct {
	// Tenants are the submitting tenants; arrivals are spread across them
	// uniformly (seeded). Default: ["tenant-a", "tenant-b"].
	Tenants []string
	// Contexts is how many contexts the scenario publishes.
	Contexts int
	// ContextTokens is each context's length.
	ContextTokens int
	// PrefixTokens is the shared corpus prefix length (RAG burst).
	PrefixTokens int
	// Requests is the number of session arrivals.
	Requests int
	// Window is the schedule length arrivals are spread over.
	Window time.Duration
	// SuffixTokens, SLO and Deadline are copied onto every arrival.
	SuffixTokens int
	SLO          time.Duration
	Deadline     time.Duration
	// Turns and ThinkTime shape multi-turn sessions (agentic scenario).
	Turns     int
	ThinkTime time.Duration
	// AppendTokens is the per-turn append size (agentic scenario).
	AppendTokens int
	// Seed makes the whole trace reproducible.
	Seed int64
}

func (p Params) withDefaults(d Params) Params {
	if len(p.Tenants) == 0 {
		p.Tenants = d.Tenants
		if len(p.Tenants) == 0 {
			p.Tenants = []string{"tenant-a", "tenant-b"}
		}
	}
	if p.Contexts == 0 {
		p.Contexts = d.Contexts
	}
	if p.ContextTokens == 0 {
		p.ContextTokens = d.ContextTokens
	}
	if p.PrefixTokens == 0 {
		p.PrefixTokens = d.PrefixTokens
	}
	if p.Requests == 0 {
		p.Requests = d.Requests
	}
	if p.Window == 0 {
		p.Window = d.Window
	}
	if p.SuffixTokens == 0 {
		p.SuffixTokens = d.SuffixTokens
	}
	if p.SLO == 0 {
		p.SLO = d.SLO
	}
	if p.Deadline == 0 {
		p.Deadline = d.Deadline
	}
	if p.Turns == 0 {
		p.Turns = d.Turns
	}
	if p.ThinkTime == 0 {
		p.ThinkTime = d.ThinkTime
	}
	if p.AppendTokens == 0 {
		p.AppendTokens = d.AppendTokens
	}
	return p
}

// RAGBurst models retrieval-augmented serving: many contexts share a hot
// corpus prefix (the retrieved document set / system prompt), and
// requests arrive in tight bursts as a popular query fans out. The
// shared prefix is what the content-addressed store dedups and what the
// RAM tier keeps hot; the bursts are what stresses admission and
// prefetch.
func RAGBurst(p Params) *Trace {
	p = p.withDefaults(Params{
		Contexts: 6, ContextTokens: 192, PrefixTokens: 128,
		Requests: 18, Window: 900 * time.Millisecond,
		SLO: 300 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Trace{
		TraceName: "rag-burst",
		Description: fmt.Sprintf("%d contexts sharing a %d-token corpus prefix; %d requests in bursts",
			p.Contexts, p.PrefixTokens, p.Requests),
		Seed: p.Seed,
	}
	corpus := fmt.Sprintf("rag-corpus-%d", p.Seed)
	for i := 0; i < p.Contexts; i++ {
		t.ContextList = append(t.ContextList, ContextSpec{
			ID: fmt.Sprintf("rag-%02d", i), Tokens: p.ContextTokens,
			PrefixID: corpus, PrefixTokens: p.PrefixTokens,
			Seed: rng.Int63(),
		})
	}
	// Three bursts: each takes a third of the requests inside a tenth of
	// the window, separated by quiet gaps.
	bursts := 3
	per := p.Requests / bursts
	for b := 0; b < bursts; b++ {
		burstStart := time.Duration(float64(p.Window) * float64(b) / float64(bursts))
		n := per
		if b == bursts-1 {
			n = p.Requests - per*(bursts-1)
		}
		for i := 0; i < n; i++ {
			at := burstStart + time.Duration(rng.Int63n(int64(p.Window)/int64(10*bursts)+1))
			t.ArrivalList = append(t.ArrivalList, Arrival{
				At:     Duration(at),
				Tenant: p.Tenants[rng.Intn(len(p.Tenants))],
				ContextID: fmt.Sprintf("rag-%02d",
					rng.Intn(p.Contexts)),
				SuffixTokens: p.SuffixTokens,
				SLO:          Duration(p.SLO),
				Deadline:     Duration(p.Deadline),
				Seed:         rng.Int63(),
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
func Agentic(p Params) *Trace {
	p = p.withDefaults(Params{
		Requests: 6, Window: 600 * time.Millisecond,
		Turns: 3, ThinkTime: 30 * time.Millisecond,
		ContextTokens: 128, AppendTokens: 96,
		SLO: 400 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Trace{
		TraceName: "agentic",
		Description: fmt.Sprintf("%d tool-using sessions of %d turns, each appending %d tokens per turn",
			p.Requests, p.Turns, p.AppendTokens),
		Seed: p.Seed,
	}
	for i := 0; i < p.Requests; i++ {
		at := time.Duration(float64(p.Window) * float64(i) / float64(p.Requests))
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:           Duration(at),
			Tenant:       p.Tenants[rng.Intn(len(p.Tenants))],
			ContextID:    fmt.Sprintf("agent-%02d", i),
			SuffixTokens: p.SuffixTokens,
			SLO:          Duration(p.SLO),
			Deadline:     Duration(p.Deadline),
			Turns:        p.Turns,
			ThinkTime:    Duration(p.ThinkTime),
			AppendTokens: p.AppendTokens,
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
func LongDocQA(p Params) *Trace {
	p = p.withDefaults(Params{
		Contexts: 2, ContextTokens: 448,
		Requests: 10, Window: 800 * time.Millisecond,
		SuffixTokens: 64, SLO: 400 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Trace{
		TraceName: "longdoc-qa",
		Description: fmt.Sprintf("%d documents of %d tokens queried %d times",
			p.Contexts, p.ContextTokens, p.Requests),
		Seed: p.Seed,
	}
	for i := 0; i < p.Contexts; i++ {
		t.ContextList = append(t.ContextList, ContextSpec{
			ID: fmt.Sprintf("doc-%02d", i), Tokens: p.ContextTokens, Seed: rng.Int63(),
		})
	}
	for i := 0; i < p.Requests; i++ {
		// Uniform arrivals with seeded jitter: questions trickle in.
		at := time.Duration(float64(p.Window)*float64(i)/float64(p.Requests)) +
			time.Duration(rng.Int63n(int64(p.Window)/int64(4*p.Requests)+1))
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:           Duration(at),
			Tenant:       p.Tenants[rng.Intn(len(p.Tenants))],
			ContextID:    fmt.Sprintf("doc-%02d", rng.Intn(p.Contexts)),
			SuffixTokens: p.SuffixTokens,
			SLO:          Duration(p.SLO),
			Deadline:     Duration(p.Deadline),
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
func FlashCrowd(p Params) *Trace {
	p = p.withDefaults(Params{
		Contexts: 1, ContextTokens: 256,
		Requests: 16, Window: 700 * time.Millisecond,
		SLO: 300 * time.Millisecond,
	})
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Trace{
		TraceName: "flash-crowd",
		Description: fmt.Sprintf("%d requests spiking on one %d-token context",
			p.Requests, p.ContextTokens),
		Seed: p.Seed,
	}
	t.ContextList = append(t.ContextList, ContextSpec{
		ID: "hot-ctx", Tokens: p.ContextTokens, Seed: rng.Int63(),
	})
	spike := p.Requests * 3 / 4
	for i := 0; i < p.Requests; i++ {
		var at time.Duration
		if i < spike {
			// The crowd: everyone inside the first fifth of the window.
			at = time.Duration(rng.Int63n(int64(p.Window)/5 + 1))
		} else {
			// Stragglers spread over the rest.
			at = p.Window/5 + time.Duration(rng.Int63n(int64(p.Window)*4/5+1))
		}
		t.ArrivalList = append(t.ArrivalList, Arrival{
			At:           Duration(at),
			Tenant:       p.Tenants[rng.Intn(len(p.Tenants))],
			ContextID:    "hot-ctx",
			SuffixTokens: p.SuffixTokens,
			SLO:          Duration(p.SLO),
			Deadline:     Duration(p.Deadline),
			Seed:         rng.Int63(),
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
		TraceName:   "poisson",
		Description: fmt.Sprintf("open-loop Poisson, %.0f arrivals/s, %d sessions", rate, requests),
		Seed:        seed,
	}
	mean := time.Duration(float64(time.Second) / rate)
	at := time.Duration(0)
	for i := 0; i < requests; i++ {
		if i > 0 {
			// Exponential gap, capped at 5× the mean (one unlucky draw must
			// not stall the run).
			d := time.Duration(rng.ExpFloat64() * float64(mean))
			if max := 5 * mean; d > max {
				d = max
			}
			at += d
		}
		t := pickShare(rng, tenants, totalShare)
		tr.ArrivalList = append(tr.ArrivalList, Arrival{
			At:           Duration(at),
			Tenant:       t.Name,
			ContextID:    t.ContextIDs[rng.Intn(len(t.ContextIDs))],
			SuffixTokens: t.SuffixTokens,
			SLO:          Duration(t.SLO),
			Deadline:     Duration(t.Deadline),
			Turns:        t.Turns,
			ThinkTime:    Duration(t.ThinkTime),
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
func Builders() map[string]func(Params) *Trace {
	return map[string]func(Params) *Trace{
		"rag-burst":   RAGBurst,
		"agentic":     Agentic,
		"longdoc-qa":  LongDocQA,
		"flash-crowd": FlashCrowd,
	}
}

// Resolve turns a CLI trace argument into a trace: a builder name
// ("rag-burst") builds the scenario with the given params, anything
// else is read as a trace file path. Params only apply to builders — a
// trace file is already materialised data.
func Resolve(nameOrPath string, p Params) (*Trace, error) {
	if build, ok := Builders()[nameOrPath]; ok {
		return build(p), nil
	}
	t, err := Load(nameOrPath)
	if err != nil {
		names := make([]string, 0, len(Builders()))
		for name := range Builders() {
			names = append(names, name)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workload: %q is neither a scenario (%s) nor a readable trace file: %w",
			nameOrPath, strings.Join(names, ", "), err)
	}
	return t, nil
}
