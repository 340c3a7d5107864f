package telemetry

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/metrics"
)

// TestRegisterChaosExposesEveryCounter walks metrics.ChaosCounters by
// reflection, gives each counter its own value, and asserts that the
// registry exposes a chaos series carrying that value — so a counter
// added to the struct and ticked by the injector cannot stay invisible
// on /debug/metrics.
func TestRegisterChaosExposesEveryCounter(t *testing.T) {
	c := &metrics.ChaosCounters{}
	r := NewRegistry()
	RegisterChaos(r, c)

	v := reflect.ValueOf(c).Elem()
	want := map[uint64]string{}
	for i := 0; i < v.NumField(); i++ {
		ctr, ok := v.Field(i).Addr().Interface().(*atomic.Uint64)
		if !ok {
			t.Fatalf("ChaosCounters.%s is not an atomic.Uint64", v.Type().Field(i).Name)
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
			t.Errorf("ChaosCounters.%s (= %d) has no cachegen_chaos_ series", field, n)
		}
	}
}
