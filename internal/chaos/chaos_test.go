package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// fakeTarget records every injector call, in order.
type fakeTarget struct {
	mu    sync.Mutex
	nodes []string
	calls []string
	// corrupted and struck simulate per-node injection counters: each
	// SetCorruption with rate > 0 "injects" 3 frames before heal, each
	// SetFlaky with rate > 0 "strikes" 5 requests.
	corrupted map[string]uint64
	struck    map[string]uint64
	failOn    string // substring: matching calls return an error
}

func newFakeTarget(nodes ...string) *fakeTarget {
	return &fakeTarget{nodes: nodes, corrupted: map[string]uint64{}, struck: map[string]uint64{}}
}

func (f *fakeTarget) record(call string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, call)
	if f.failOn != "" && strings.Contains(call, f.failOn) {
		return fmt.Errorf("fake failure on %s", call)
	}
	return nil
}

func (f *fakeTarget) Nodes() []string { return f.nodes }
func (f *fakeTarget) Kill(n string) error {
	return f.record("kill " + n)
}
func (f *fakeTarget) Restart(n string) error {
	return f.record("restart " + n)
}
func (f *fakeTarget) SetPartitioned(n string, on bool) error {
	return f.record(fmt.Sprintf("partition %s %v", n, on))
}
func (f *fakeTarget) SetDiskLatency(n string, d time.Duration) error {
	return f.record(fmt.Sprintf("slow-disk %s %v", n, d))
}
func (f *fakeTarget) SetEgressTrace(n string, tr netsim.Trace) error {
	return f.record(fmt.Sprintf("cliff %s %v", n, tr != nil))
}
func (f *fakeTarget) SetCorruption(n string, rate float64, seed int64) error {
	err := f.record(fmt.Sprintf("corrupt %s %.2f", n, rate))
	if err == nil && rate > 0 {
		f.mu.Lock()
		f.corrupted[n] += 3
		f.mu.Unlock()
	}
	return err
}
func (f *fakeTarget) CorruptionInjected(n string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.corrupted[n]
}
func (f *fakeTarget) SetFlaky(n string, rate float64, delay time.Duration, errFrac float64, seed int64) error {
	err := f.record(fmt.Sprintf("flaky %s %v", n, rate > 0))
	if err == nil && rate > 0 {
		f.mu.Lock()
		f.struck[n] += 5
		f.mu.Unlock()
	}
	return err
}
func (f *fakeTarget) FlakyInjected(n string) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.struck[n]
}

func (f *fakeTarget) snapshot() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

// TestInjectorFullSchedule drives one event of every class through a
// fake fleet and checks the calls, the heals, and the counters.
func TestInjectorFullSchedule(t *testing.T) {
	target := newFakeTarget("n1", "n2", "n3")
	var counters Counters
	inj := New(target, &counters)
	s := Schedule{Seed: 7, Events: []Event{
		{Class: Kill, At: 0, Heal: 20 * time.Millisecond},
		{Class: Partition, At: 5 * time.Millisecond, Heal: 20 * time.Millisecond},
		{Class: SlowDisk, At: 0, Latency: 2 * time.Millisecond}, // heals at Finish
		{Class: Cliff, At: 0, Heal: 25 * time.Millisecond, Trace: netsim.Constant(5e7)},
		{Class: Corrupt, At: 0, Rate: 0.5}, // heals at Finish
	}}
	if err := inj.Start(s); err != nil {
		t.Fatal(err)
	}
	time.Sleep(s.Duration() + 30*time.Millisecond)
	if err := inj.Finish(); err != nil {
		t.Fatal(err)
	}

	calls := target.snapshot()
	has := func(sub string) bool {
		for _, c := range calls {
			if strings.Contains(c, sub) {
				return true
			}
		}
		return false
	}
	for _, want := range []string{
		"kill n", "restart n", "partition n", "slow-disk n",
		"cliff n1 true", "cliff n2 true", "cliff n3 true", // fleet-wide
		"cliff n1 false", "corrupt n1 0.50", "corrupt n1 0.00",
	} {
		if !has(want) {
			t.Errorf("missing call %q in %v", want, calls)
		}
	}
	// Kill and restart must hit the same node.
	var killed, restarted string
	for _, c := range calls {
		if strings.HasPrefix(c, "kill ") {
			killed = strings.TrimPrefix(c, "kill ")
		}
		if strings.HasPrefix(c, "restart ") {
			restarted = strings.TrimPrefix(c, "restart ")
		}
	}
	if killed == "" || killed != restarted {
		t.Errorf("killed %q but restarted %q", killed, restarted)
	}

	snap := counters.Snapshot()
	want := Snapshot{
		NodeKills: 1, NodeRestarts: 1,
		Partitions: 1, PartitionsHealed: 1,
		SlowDisks: 1, SlowDisksHealed: 1,
		BandwidthCliffs: 3, BandwidthCliffsHealed: 3,
		CorruptFramesInjected: 9, // 3 per node, 3 nodes
	}
	if snap != want {
		t.Errorf("counters = %+v, want %+v", snap, want)
	}
}

// TestInjectorDeterministicVictims: the same seed picks the same
// victims; a different seed eventually differs.
func TestInjectorDeterministicVictims(t *testing.T) {
	victims := func(seed int64) []string {
		target := newFakeTarget("n1", "n2", "n3", "n4", "n5")
		inj := New(target, nil)
		s := Schedule{Seed: seed, Events: []Event{
			{Class: Kill, At: 0},
			{Class: Partition, At: 0},
			{Class: SlowDisk, At: 0, Latency: time.Millisecond},
		}}
		if err := inj.Start(s); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		if err := inj.Finish(); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, c := range target.snapshot() {
			if strings.HasPrefix(c, "kill ") || strings.HasPrefix(c, "partition ") && strings.HasSuffix(c, "true") {
				out = append(out, c)
			}
		}
		return out
	}
	a, b := victims(11), victims(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed picked different victims: %v vs %v", a, b)
	}
	for seed := int64(12); seed < 40; seed++ {
		if !reflect.DeepEqual(a, victims(seed)) {
			return
		}
	}
	t.Fatal("28 different seeds all picked identical victims")
}

// TestInjectorErrorsSurface: a failing target call shows up in Finish's
// joined error instead of vanishing.
func TestInjectorErrorsSurface(t *testing.T) {
	target := newFakeTarget("n1")
	target.failOn = "kill"
	inj := New(target, nil)
	if err := inj.Start(Schedule{Events: []Event{{Class: Kill, At: 0, Heal: time.Millisecond}}}); err != nil {
		t.Fatal(err)
	}
	err := inj.Finish()
	if err == nil || !strings.Contains(err.Error(), "fake failure") {
		t.Fatalf("Finish() = %v, want the kill failure", err)
	}
}

// TestInjectorValidation: bad schedules are rejected at Start, before
// any fault fires.
func TestInjectorValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative offset", Event{Class: Kill, At: -time.Second}, "negative offset"},
		{"slow-disk without latency", Event{Class: SlowDisk}, "latency"},
		{"cliff without trace", Event{Class: Cliff}, "trace"},
		{"corrupt rate over 1", Event{Class: Corrupt, Rate: 1.5}, "outside"},
		{"unknown class", Event{Class: "meteor"}, "unknown fault class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := New(newFakeTarget("n1"), nil)
			err := inj.Start(Schedule{Events: []Event{tc.ev}})
			if err == nil {
				t.Fatal("bad event accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	inj := New(&fakeTarget{}, nil)
	if err := inj.Start(Schedule{Events: []Event{{Class: Kill}}}); err == nil {
		t.Fatal("empty fleet accepted")
	}
}

// TestParseSchedule covers the CLI spec syntax: the full grammar, the
// class parameters, and the error paths.
func TestParseSchedule(t *testing.T) {
	s, err := ParseSchedule("kill@300ms+500ms; cliff@250ms+1s:200Mbps:1s,5Mbps; corrupt@0s:0.25; slow-disk@0s+1s:5ms; partition@100ms", 42)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 42 || len(s.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(s.Events))
	}
	e := s.Events[0]
	if e.Class != Kill || e.At != 300*time.Millisecond || e.Heal != 500*time.Millisecond {
		t.Fatalf("kill event = %+v", e)
	}
	if s.Events[1].Trace == nil {
		t.Fatal("cliff trace not parsed")
	}
	// The multi-segment trace must survive the ':' cut: at 1.5s in, the
	// cliff rate is 5 Mbps.
	if got := s.Events[1].Trace.BandwidthAt(1500 * time.Millisecond); got != 5e6 {
		t.Fatalf("cliff trace at 1.5s = %v, want 5e6", got)
	}
	if s.Events[2].Rate != 0.25 {
		t.Fatalf("corrupt rate = %v", s.Events[2].Rate)
	}
	if s.Events[3].Latency != 5*time.Millisecond {
		t.Fatalf("slow-disk latency = %v", s.Events[3].Latency)
	}
	if s.Events[4].Heal != 0 {
		t.Fatalf("partition heal = %v, want 0 (until Finish)", s.Events[4].Heal)
	}

	bad := []struct{ name, spec, want string }{
		{"empty", "", "no events"},
		{"no at", "kill", "class@offset"},
		{"bad offset", "kill@soon", "bad offset"},
		{"bad heal", "kill@0s+later", "bad heal"},
		{"zero heal", "kill@0s+0s", "positive"},
		{"kill param", "kill@0s:n1", "no parameter"},
		{"slow-disk no latency", "slow-disk@0s", "latency"},
		{"cliff bad trace", "cliff@0s:fast", "rate"},
		{"corrupt no rate", "corrupt@0s", "rate"},
		{"corrupt bad rate", "corrupt@0s:often", "rate"},
		{"unknown class", "meteor@0s", "unknown fault class"},
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

// TestParseScheduleRegion: partition takes no parameter, so the
// region=<label> scope older specs carried fails at parse time, not when
// the injector starts.
func TestParseScheduleRegion(t *testing.T) {
	cases := []struct {
		name string
		spec string
		err  string // the error substring; "" for an accepted spec
	}{
		{name: "region scope", spec: "partition@0s:region=eu", err: "no parameter"},
		{name: "region with heal", spec: "partition@0s+250ms:region=us-east", err: "no parameter"},
		{name: "plain partition still works", spec: "partition@0s"},
		{name: "empty label", spec: "partition@0s:region=", err: "no parameter"},
		{name: "not a region param", spec: "partition@0s:n1", err: "no parameter"},
		{name: "region on kill", spec: "kill@0s:region=eu", err: "no parameter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseSchedule(tc.spec, 1)
			if tc.err == "" {
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Events) != 1 || s.Events[0].Class != Partition {
					t.Fatalf("events = %+v, want one partition", s.Events)
				}
				return
			}
			if err == nil {
				t.Fatal("malformed spec accepted")
			}
			if !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("error %q does not mention %q", err, tc.err)
			}
		})
	}
}

// TestScheduleDuration: the duration covers the latest timed heal.
func TestScheduleDuration(t *testing.T) {
	s := Schedule{Events: []Event{
		{Class: Kill, At: 10 * time.Millisecond, Heal: 50 * time.Millisecond},
		{Class: Partition, At: 40 * time.Millisecond},
	}}
	if got := s.Duration(); got != 60*time.Millisecond {
		t.Fatalf("Duration = %v, want 60ms", got)
	}
}
