package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestInjectorFlaky drives one flaky event through the fake fleet:
// imposed on a single seeded victim, healed on the timer, strikes
// accounted by delta.
func TestInjectorFlaky(t *testing.T) {
	target := newFakeTarget("n1", "n2", "n3")
	var counters Counters
	inj := New(target, &counters)
	s := Schedule{Seed: 11, Events: []Event{
		{Class: Flaky, At: 0, Heal: 15 * time.Millisecond, Rate: 0.3, Latency: 50 * time.Millisecond, ErrFrac: 0.25},
	}}
	if err := inj.Start(s); err != nil {
		t.Fatal(err)
	}
	time.Sleep(s.Duration() + 20*time.Millisecond)
	if err := inj.Finish(); err != nil {
		t.Fatal(err)
	}

	calls := target.snapshot()
	var on, off int
	for _, c := range calls {
		if strings.HasPrefix(c, "flaky ") && strings.HasSuffix(c, " true") {
			on++
		}
		if strings.HasPrefix(c, "flaky ") && strings.HasSuffix(c, " false") {
			off++
		}
	}
	if on != 1 || off != 1 {
		t.Fatalf("flaky imposed %d times, healed %d, want 1/1: %v", on, off, calls)
	}
	snap := counters.Snapshot()
	if snap.FlakyNodes != 1 || snap.FlakyHealed != 1 || snap.FlakyStrikes != 5 {
		t.Errorf("counters = %+v, want flaky 1/1 with 5 strikes", snap)
	}
}

// TestParseFlaky covers the flaky strike spec grammar.
func TestParseFlaky(t *testing.T) {
	s, err := ParseSchedule("flaky@2s+8s:p=0.3", 1)
	if err != nil {
		t.Fatal(err)
	}
	e := s.Events[0]
	if e.Class != Flaky || e.At != 2*time.Second || e.Heal != 8*time.Second {
		t.Fatalf("flaky event = %+v", e)
	}
	if e.Rate != 0.3 {
		t.Fatalf("strike probability = %v, want 0.3", e.Rate)
	}
	// Defaults.
	if e.Latency != 50*time.Millisecond || e.ErrFrac != 0.25 {
		t.Fatalf("defaults = delay %v err %v, want 50ms / 0.25", e.Latency, e.ErrFrac)
	}

	s, err = ParseSchedule("flaky@0s:p=0.5,delay=80ms,err=0", 1)
	if err != nil {
		t.Fatal(err)
	}
	e = s.Events[0]
	if e.Rate != 0.5 || e.Latency != 80*time.Millisecond || e.ErrFrac != 0 {
		t.Fatalf("explicit params = %+v", e)
	}

	bad := []struct{ name, spec, want string }{
		{"no param", "flaky@0s", "strike probability"},
		{"no p", "flaky@0s:delay=10ms", "p=<probability>"},
		{"bad p", "flaky@0s:p=often", "bad strike probability"},
		{"p over 1", "flaky@0s:p=1.5", "outside (0, 1]"},
		{"bad delay", "flaky@0s:p=0.3,delay=soon", "bad stall delay"},
		{"zero delay", "flaky@0s:p=0.3,delay=0s", "positive stall delay"},
		{"err is 1", "flaky@0s:p=0.3,err=1", "outside [0, 1)"},
		{"unknown key", "flaky@0s:p=0.3,jitter=5ms", "unknown flaky parameter"},
		{"not key=value", "flaky@0s:p", "key=value"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSchedule(tc.spec, 1)
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
