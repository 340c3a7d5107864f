package workload

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestBuildersValidAndDeterministic: every named builder produces a
// valid trace, and the same seed reproduces it field-for-field.
func TestBuildersValidAndDeterministic(t *testing.T) {
	for name, build := range Builders() {
		t.Run(name, func(t *testing.T) {
			a := build(42)
			if err := a.Validate(); err != nil {
				t.Fatalf("builder produced invalid trace: %v", err)
			}
			if a.TraceName != name {
				t.Fatalf("trace name %q, want %q", a.TraceName, name)
			}
			b := build(42)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed produced different traces")
			}
			c := build(43)
			if reflect.DeepEqual(a, c) {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

// TestRAGBurstSharedPrefix: every context in the burst shares the corpus
// prefix bit-for-bit, while tails differ.
func TestRAGBurstSharedPrefix(t *testing.T) {
	tr := RAGBurst(1)
	if len(tr.ContextList) < 2 {
		t.Fatalf("want ≥ 2 contexts, got %d", len(tr.ContextList))
	}
	first := tr.ContextList[0]
	want := CorpusTokens(first.PrefixID, first.PrefixTokens)
	for _, c := range tr.ContextList {
		toks := c.BuildTokens()
		if len(toks) != c.Tokens {
			t.Fatalf("context %s: built %d tokens, want %d", c.ID, len(toks), c.Tokens)
		}
		if !reflect.DeepEqual(toks[:c.PrefixTokens], want) {
			t.Fatalf("context %s does not share the corpus prefix", c.ID)
		}
	}
	a := tr.ContextList[0].BuildTokens()
	b := tr.ContextList[1].BuildTokens()
	if reflect.DeepEqual(a, b) {
		t.Fatal("distinct contexts built identical token streams")
	}
}

// TestAgenticArrivals: agentic arrivals carry turns, think time and
// append sizes, and reference contexts the sessions create themselves.
func TestAgenticArrivals(t *testing.T) {
	tr := Agentic(9)
	if len(tr.ContextList) != 0 {
		t.Fatalf("agentic trace pre-publishes %d contexts, want 0", len(tr.ContextList))
	}
	for i, a := range tr.ArrivalList {
		if a.Turns < 2 {
			t.Fatalf("arrival %d has %d turns, want ≥ 2", i, a.Turns)
		}
		if a.AppendTokens <= 0 {
			t.Fatalf("arrival %d has no append tokens", i)
		}
	}
	// Turn content is a pure function of (seed, turn).
	x := TurnTokens(7, 2, 32)
	y := TurnTokens(7, 2, 32)
	if !reflect.DeepEqual(x, y) {
		t.Fatal("TurnTokens not deterministic")
	}
	if reflect.DeepEqual(x, TurnTokens(7, 3, 32)) {
		t.Fatal("different turns produced identical content")
	}
}

// TestFlashCrowdShape: all arrivals hit the single hot context and the
// spike lands early.
func TestFlashCrowdShape(t *testing.T) {
	tr := FlashCrowd(3)
	if len(tr.ContextList) != 1 {
		t.Fatalf("flash crowd has %d contexts, want 1", len(tr.ContextList))
	}
	early := 0
	for _, a := range tr.ArrivalList {
		if a.ContextID != tr.ContextList[0].ID {
			t.Fatalf("arrival targets %q, want the hot context", a.ContextID)
		}
		if a.At <= 140*time.Millisecond {
			early++
		}
	}
	if early < len(tr.ArrivalList)/2 {
		t.Fatalf("only %d/%d arrivals in the spike window", early, len(tr.ArrivalList))
	}
}

// TestValidateRejectsBadTraces: malformed traces come back with
// descriptive errors, not degenerate schedules.
func TestValidateRejectsBadTraces(t *testing.T) {
	arrival := func(at time.Duration, ctx string) Arrival {
		return Arrival{At: at, Tenant: "a", ContextID: ctx}
	}
	one := []Arrival{arrival(0, "c")}
	cases := []struct {
		name  string
		trace Trace
		want  string
	}{
		{"no name", Trace{ArrivalList: one}, "no name"},
		{"no arrivals", Trace{TraceName: "x"}, "no arrivals"},
		{"negative offset", Trace{TraceName: "x", ArrivalList: []Arrival{arrival(-time.Second, "c")}}, "negative offset"},
		{"unsorted arrivals", Trace{TraceName: "x", ArrivalList: []Arrival{
			arrival(20*time.Millisecond, "c"), arrival(5*time.Millisecond, "c")}}, "not sorted"},
		{"missing tenant", Trace{TraceName: "x", ArrivalList: []Arrival{{ContextID: "c"}}}, "tenant"},
		{"duplicate context", Trace{TraceName: "x", ArrivalList: one,
			ContextList: []ContextSpec{{ID: "c", Tokens: 8}, {ID: "c", Tokens: 8}}}, "duplicate"},
		{"zero-token context", Trace{TraceName: "x", ArrivalList: one,
			ContextList: []ContextSpec{{ID: "c"}}}, "tokens"},
		{"prefix exceeds tokens", Trace{TraceName: "x", ArrivalList: one,
			ContextList: []ContextSpec{{ID: "c", Tokens: 8, PrefixID: "p", PrefixTokens: 9}}}, "prefix"},
		{"unpublished context", Trace{TraceName: "x", ArrivalList: []Arrival{arrival(0, "other")},
			ContextList: []ContextSpec{{ID: "c", Tokens: 8}}}, "unpublished"},
		{"negative turns", Trace{TraceName: "x", ArrivalList: []Arrival{{Tenant: "a", ContextID: "c", Turns: -1}}}, "turn count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.trace.Validate()
			if err == nil {
				t.Fatal("malformed trace accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPoissonBuilder: validation errors propagate, shares are respected
// in aggregate, and the schedule is sorted and seeded.
func TestPoissonBuilder(t *testing.T) {
	if _, err := Poisson(0, 10, []PoissonTenant{{Name: "a", Share: 1, ContextIDs: []string{"c"}}}, 1); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := Poisson(100, 10, nil, 1); err == nil {
		t.Fatal("no tenants accepted")
	}
	tenants := []PoissonTenant{
		{Name: "heavy", Share: 3, ContextIDs: []string{"c1", "c2"}, SLO: 100 * time.Millisecond},
		{Name: "light", Share: 1, ContextIDs: []string{"c3"}},
	}
	tr, err := Poisson(200, 400, tenants, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, a := range tr.ArrivalList {
		counts[a.Tenant]++
	}
	if counts["heavy"] <= counts["light"] {
		t.Fatalf("share-3 tenant drew %d arrivals vs share-1's %d", counts["heavy"], counts["light"])
	}
	again, err := Poisson(200, 400, tenants, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, again) {
		t.Fatal("same seed produced different poisson traces")
	}
}

// TestResolve: a scenario name builds with the seed, and an unknown
// name's error lists the scenarios.
func TestResolve(t *testing.T) {
	byName, err := Resolve("rag-burst", 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byName, RAGBurst(9)) {
		t.Fatal("Resolve(\"rag-burst\") differs from RAGBurst")
	}

	_, err = Resolve("no-such-scenario", 0)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, want := range []string{"rag-burst", "flash-crowd", "no-such-scenario"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Resolve error %q does not mention %q", err, want)
		}
	}
}
