package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// routable reports whether routing would try id.
func routable(m *Manager, id string) bool { return len(m.Order([]string{id})) == 1 }

func TestStateMachine(t *testing.T) {
	m := New(Config{DeadAfter: 3})
	if s := m.State("n1"); s != Healthy {
		t.Fatalf("fresh node = %v, want healthy", s)
	}
	m.ReportFailure("n1")
	if s := m.State("n1"); s != Suspect {
		t.Fatalf("after 1 failure = %v, want suspect", s)
	}
	m.ReportSuccess("n1", time.Millisecond)
	if s := m.State("n1"); s != Healthy {
		t.Fatalf("after recovery success = %v, want healthy", s)
	}
	for i := 0; i < 3; i++ {
		m.ReportFailure("n1")
	}
	if s := m.State("n1"); s != Dead {
		t.Fatalf("after 3 failures = %v, want dead", s)
	}
	if routable(m, "n1") {
		t.Fatal("dead node is still routed to")
	}
	// A probe success makes it routable again but not yet trusted.
	m.probeSuccess("n1", time.Millisecond)
	if s := m.State("n1"); s != Recovering {
		t.Fatalf("after probe success = %v, want recovering", s)
	}
	if !routable(m, "n1") {
		t.Fatal("recovering node should be routable")
	}
	// One real success promotes; a failure would demote straight to dead.
	m.ReportSuccess("n1", time.Millisecond)
	if s := m.State("n1"); s != Healthy {
		t.Fatalf("after real success = %v, want healthy", s)
	}
	// Recovering → failure → dead without burning the full threshold.
	for i := 0; i < 3; i++ {
		m.ReportFailure("n1")
	}
	m.probeSuccess("n1", time.Millisecond)
	m.ReportFailure("n1")
	if s := m.State("n1"); s != Dead {
		t.Fatalf("recovering node that failed = %v, want dead", s)
	}
}

func TestRetryBudget(t *testing.T) {
	b := NewRetryBudget(0.5, 2)
	// Starts full: two tokens.
	if !b.Try() || !b.Try() {
		t.Fatal("burst tokens missing")
	}
	if b.Try() {
		t.Fatal("empty bucket granted a token")
	}
	// Two requests earn one token.
	b.OnRequest()
	if b.Try() {
		t.Fatal("half a token granted")
	}
	b.OnRequest()
	if !b.Try() {
		t.Fatal("earned token denied")
	}
	// Cap at burst.
	for i := 0; i < 100; i++ {
		b.OnRequest()
	}
	if got := b.Tokens(); got != 2 {
		t.Fatalf("tokens = %v, want capped at 2", got)
	}
	// Nil budget grants everything.
	var nilB *RetryBudget
	if !nilB.Try() {
		t.Fatal("nil budget denied")
	}
	nilB.OnRequest()
}

func TestOrder(t *testing.T) {
	m := New(Config{})
	for i := 0; i < 3; i++ {
		m.ReportFailure("dead")
	}
	m.ReportFailure("sus")
	ordered := m.Order([]string{"dead", "a", "sus", "b"})
	if want := []string{"a", "b", "sus"}; fmt.Sprint(ordered) != fmt.Sprint(want) {
		t.Fatalf("ordered = %v, want %v", ordered, want)
	}
	if ordered := m.Order([]string{"dead"}); len(ordered) != 0 {
		t.Fatalf("single dead node ordered = %v, want none", ordered)
	}
}

func TestHedgeDelay(t *testing.T) {
	m := New(Config{})
	// The delay is trusted from the 16th latency sample on.
	for i := 0; i < 15; i++ {
		m.ReportSuccess("n", 10*time.Millisecond)
	}
	if _, ok := m.HedgeDelay("n"); ok {
		t.Fatal("15 samples produced a hedge delay")
	}
	m.ReportSuccess("n", 10*time.Millisecond)
	d, ok := m.HedgeDelay("n")
	if !ok {
		t.Fatal("16 samples produced no hedge delay")
	}
	if d <= time.Millisecond || d >= 250*time.Millisecond {
		t.Fatalf("hedge delay %v, want the unclamped P99 of 10ms samples", d)
	}
	// A fast node clamps at 1ms, a slow one at 250ms.
	for i := 0; i < 16; i++ {
		m.ReportSuccess("fast", 10*time.Microsecond)
		m.ReportSuccess("slow", 3*time.Second)
	}
	if d, _ := m.HedgeDelay("fast"); d != time.Millisecond {
		t.Fatalf("fast node delay %v, want clamped 1ms", d)
	}
	if d, _ := m.HedgeDelay("slow"); d != 250*time.Millisecond {
		t.Fatalf("slow node delay %v, want clamped 250ms", d)
	}
}

func TestHedgeDelayIgnoresOneOutlier(t *testing.T) {
	m := New(Config{})
	// One stall among 40 fast answers: the P99 of 41 samples is the
	// stall itself, and a delay set by it would never hedge the node.
	for i := 0; i < 40; i++ {
		m.ReportSuccess("n", 2*time.Millisecond)
	}
	m.ReportSuccess("n", 200*time.Millisecond)
	if d, _ := m.HedgeDelay("n"); d >= 10*time.Millisecond {
		t.Fatalf("hedge delay %v after one 200ms outlier among 2ms samples, want near 2ms", d)
	}
	// Two slow samples are a tail, not an outlier: the delay follows.
	m.ReportSuccess("n", 200*time.Millisecond)
	if d, _ := m.HedgeDelay("n"); d < 100*time.Millisecond {
		t.Fatalf("hedge delay %v after two 200ms samples among 40, want near 200ms", d)
	}
}

func TestProberRecoversDeadNode(t *testing.T) {
	m := New(Config{ProbeInterval: 5 * time.Millisecond, DeadAfter: 1})
	defer m.Close()
	var healed atomic.Bool
	m.StartProber(func(ctx context.Context, node string) error {
		if healed.Load() {
			return nil
		}
		return errors.New("still down")
	})
	m.ReportFailure("n1")
	if s := m.State("n1"); s != Dead {
		t.Fatalf("state = %v, want dead", s)
	}
	// While down, probes fail and the node stays dead.
	time.Sleep(25 * time.Millisecond)
	if s := m.State("n1"); s != Dead {
		t.Fatalf("state while down = %v, want dead", s)
	}
	healed.Store(true)
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if m.State("n1") == Recovering {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s := m.State("n1"); s != Recovering {
		t.Fatalf("state after heal = %v, want recovering", s)
	}
	if !routable(m, "n1") {
		t.Fatal("recovered node should be routable")
	}
	st := m.Stats()
	if st.Probes == 0 || st.ProbeFailures == 0 || st.Recoveries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAttemptTimeout(t *testing.T) {
	// No budget: base passes through.
	if got := AttemptTimeout(context.Background(), time.Second, 3); got != time.Second {
		t.Fatalf("no budget = %v", got)
	}
	// Budget split across attempts.
	ctx := WithBudget(context.Background(), 300*time.Millisecond)
	got := AttemptTimeout(ctx, time.Second, 3)
	if got < 80*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("split = %v, want ~100ms", got)
	}
	// Base still caps when smaller than the split.
	if got := AttemptTimeout(ctx, 20*time.Millisecond, 3); got != 20*time.Millisecond {
		t.Fatalf("cap = %v, want 20ms", got)
	}
	// Floor when nearly exhausted.
	tight := WithBudget(context.Background(), time.Millisecond)
	if got := AttemptTimeout(tight, time.Second, 3); got != AttemptFloor {
		t.Fatalf("floor = %v, want %v", got, AttemptFloor)
	}
	// Context deadlines count as budget too.
	dctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if rem, ok := Remaining(dctx); !ok || rem <= 0 || rem > 200*time.Millisecond {
		t.Fatalf("Remaining from deadline = %v %v", rem, ok)
	}
}

func TestMarkRecoveredFastPath(t *testing.T) {
	m := New(Config{DeadAfter: 1})
	m.ReportFailure("n1")
	if routable(m, "n1") {
		t.Fatal("dead node routable before any heal evidence")
	}
	m.MarkRecovered("n1")
	if !routable(m, "n1") {
		t.Fatal("MarkRecovered did not fast-path the node")
	}
	if s := m.State("n1"); s != Recovering {
		t.Fatalf("state = %v, want recovering", s)
	}
}

// TestRecoveryCountedOnce: a node leaving Dead is one recovery whichever
// route it takes back, and entering Dead is one death.
func TestRecoveryCountedOnce(t *testing.T) {
	for name, heal := range map[string]func(m *Manager){
		"probe then success": func(m *Manager) {
			m.probeSuccess("n1", time.Millisecond)
			m.ReportSuccess("n1", time.Millisecond)
		},
		"heal hook then success": func(m *Manager) {
			m.MarkRecovered("n1")
			m.ReportSuccess("n1", time.Millisecond)
		},
		"late success": func(m *Manager) {
			m.ReportSuccess("n1", time.Millisecond)
		},
	} {
		m := New(Config{DeadAfter: 1})
		m.ReportFailure("n1")
		m.ReportFailure("n1")
		heal(m)
		if s := m.State("n1"); s != Healthy {
			t.Errorf("%s: state = %v, want healthy", name, s)
		}
		if st := m.Stats(); st.Recoveries != 1 || st.Deaths != 1 {
			t.Errorf("%s: %d recoveries, %d deaths, want 1 and 1", name, st.Recoveries, st.Deaths)
		}
	}
}
