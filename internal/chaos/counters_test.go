package chaos

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
)

// TestChaosCountersConcurrentSnapshot hammers the counters from writer
// goroutines while a reader snapshots — the race detector proves the
// atomics make Snapshot safe, and each final count must equal what the
// writers added.
func TestChaosCountersConcurrentSnapshot(t *testing.T) {
	var c Counters
	const writers, perWriter = 8, 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			// Injections only grow; a snapshot must never observe more
			// rejections than injections the way the writers order them.
			if s.CorruptFramesRejected > s.CorruptFramesInjected {
				t.Error("snapshot saw rejections ahead of injections")
				return
			}
			_ = s.String()
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.NodeKills.Add(1)
				c.CorruptFramesInjected.Add(1)
				c.CorruptFramesRejected.Add(1)
				c.Partitions.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	s := c.Snapshot()
	if s.NodeKills != writers*perWriter || s.Partitions != writers*perWriter ||
		s.CorruptFramesInjected != writers*perWriter || s.CorruptFramesRejected != writers*perWriter {
		t.Errorf("final snapshot lost updates: %+v", s)
	}
	if s.Zero() {
		t.Error("non-empty counters reported Zero")
	}
}

// TestRegisterChaosExposesEveryCounter walks Counters by
// reflection, gives each counter its own value, and asserts that the
// registry exposes a chaos series carrying that value — so a counter
// added to the struct and ticked by the injector cannot stay invisible
// on /debug/metrics.
func TestRegisterChaosExposesEveryCounter(t *testing.T) {
	c := &Counters{}
	r := telemetry.NewRegistry()
	c.Register(r)

	v := reflect.ValueOf(c).Elem()
	want := map[uint64]string{}
	for i := 0; i < v.NumField(); i++ {
		ctr, ok := v.Field(i).Addr().Interface().(*atomic.Uint64)
		if !ok {
			t.Fatalf("Counters.%s is not an atomic.Uint64", v.Type().Field(i).Name)
		}
		n := uint64(1001 + i)
		ctr.Add(n)
		want[n] = v.Type().Field(i).Name
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	got := map[uint64]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "cachegen_chaos_") {
			continue
		}
		if n, err := strconv.ParseUint(val, 10, 64); err == nil {
			got[n] = true
		}
	}
	for n, field := range want {
		if !got[n] {
			t.Errorf("Counters.%s (= %d) has no cachegen_chaos_ series", field, n)
		}
	}
}
