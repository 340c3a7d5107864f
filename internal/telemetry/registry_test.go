package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cachegen_test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("cachegen_test_total", "a counter"); again != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("cachegen_test_level", "a gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if g.Value() != 2.0 {
		t.Errorf("gauge = %g, want 2", g.Value())
	}
	r.GaugeFunc("cachegen_test_fn", "a func gauge", func() float64 { return 7 })

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE cachegen_test_total counter",
		"cachegen_test_total 5",
		"# TYPE cachegen_test_level gauge",
		"cachegen_test_level 2",
		"cachegen_test_fn 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x", "")
	r.GaugeFunc("x", "", func() float64 { return 1 })
	c.Inc()
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil instruments must read zero")
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	r.WriteDashboard(&buf)
	if buf.Len() != 0 {
		t.Fatal("nil registry wrote output")
	}
}

func TestLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("cachegen_reqs_total", "requests", "tenant", "a")
	b := r.Counter("cachegen_reqs_total", "requests", "tenant", "b")
	if a == b {
		t.Fatal("different labels shared an instrument")
	}
	a.Add(1)
	b.Add(2)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	if !strings.Contains(out, `cachegen_reqs_total{tenant="a"} 1`) ||
		!strings.Contains(out, `cachegen_reqs_total{tenant="b"} 2`) {
		t.Errorf("labeled series missing:\n%s", out)
	}
	if strings.Count(out, "# TYPE cachegen_reqs_total") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
}

// TestHistogramQuantiles: the streaming estimate must land within one
// bucket factor squared of the exact order statistic — the accuracy the
// README states for the registry's P50/P95/P99 exposition.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Histogram{}
	xs := make([]float64, 5000)
	for i := range xs {
		// Log-normal-ish latencies spanning ~3 decades.
		xs[i] = math.Exp(rng.NormFloat64()*1.2 - 2)
		h.Observe(xs[i])
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		lo, hi := exact/(BucketFactor*BucketFactor), exact*BucketFactor*BucketFactor
		if got < lo || got > hi {
			t.Errorf("q%.2f = %g, exact %g: outside one-bucket tolerance [%g, %g]", q, got, exact, lo, hi)
		}
	}
	if h.Count() != 5000 {
		t.Errorf("count = %d", h.Count())
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if math.Abs(h.Sum()-sum) > 1e-6*sum {
		t.Errorf("sum = %g, want %g", h.Sum(), sum)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile nonzero")
	}
	h.Observe(0)
	h.Observe(-1)
	if h.Quantile(0.5) != 0 {
		t.Error("non-positive observations must quantile to 0")
	}
	h.Observe(1e30) // far past the top bucket: clamped, not lost
	if h.Count() != 3 {
		t.Errorf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(1); q <= 0 {
		t.Errorf("max quantile %g, want the top bucket's midpoint", q)
	}
	var hd Histogram
	hd.ObserveDuration(time.Second)
	if q := hd.Quantile(0.5); q < 0.9 || q > 1.2 {
		t.Errorf("1s duration landed at %g", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cachegen_test_seconds", "latencies")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if s := h.Sum(); math.Abs(s-80) > 1e-9 {
		t.Errorf("sum = %g, want 80", s)
	}
}

func TestDashboardAndSummaryExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cachegen_gateway_ttft_seconds", "TTFT", "tenant", "a")
	for i := 0; i < 100; i++ {
		h.Observe(0.1)
	}
	var prom, dash bytes.Buffer
	r.WritePrometheus(&prom)
	r.WriteDashboard(&dash)
	for _, want := range []string{
		"# TYPE cachegen_gateway_ttft_seconds summary",
		`cachegen_gateway_ttft_seconds{tenant="a",quantile="0.5"}`,
		`cachegen_gateway_ttft_seconds_sum{tenant="a"}`,
		`cachegen_gateway_ttft_seconds_count{tenant="a"} 100`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
	if !strings.Contains(dash.String(), "n=100") {
		t.Errorf("dashboard missing histogram line:\n%s", dash.String())
	}
}
