package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repo root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesSpec holds BENCHMARK.json and spec.go together
// and inside the driver's limits.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	bf := readBenchmarkFile(t)
	if n := len(bf.Workloads); n != len(workloadSpecs) || n < 2 || n > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go (limit 2..8)", n, len(workloadSpecs))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadSpecs[i].Name || w.Why != workloadSpecs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec.go has %q (or their whys differ)", i, w.Name, workloadSpecs[i].Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why over 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if n := len(bf.EndToEnd); n != len(endToEndSpecs) || n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go (limit 1..16)", n, len(endToEndSpecs))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		sp := endToEndSpecs[i]
		if m.Name != sp.Name || m.Unit != sp.Unit || m.Better != sp.Better || m.Bound != sp.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, sp)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || seen[m.Name] {
			t.Errorf("end-to-end %q: bad name, unit, bound or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
	if n := len(bf.PerLayer); n != len(perLayerSpecs) || n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (limit 1..128)", n, len(perLayerSpecs))
	}
	for i, m := range bf.PerLayer {
		sp := perLayerSpecs[i]
		if m.Name != sp.Name || m.Unit != sp.Unit || m.Better != sp.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, spec.go has %+v", i, m, sp)
		}
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("per-layer %q: bad name, unit or duplicate", m.Name)
		}
		seen[m.Name] = true
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload once at a scaled-down size, traced, so
// tier-1 keeps the benchmark building and honest without running it at
// length: every metric of both kinds is emitted under its contracted name,
// nothing fails the output check, and the trace file parses.
func TestSmoke(t *testing.T) {
	seconds := 1.0
	if testing.Short() {
		seconds = 0.8 // still ≥ 1 request in each of the two windows
	}
	for _, ws := range workloadSpecs {
		t.Run(ws.Name, func(t *testing.T) {
			out, err := execute(runConfig{
				Workload: ws.Name, Seed: 1, Seconds: seconds, Trace: true, OutDir: t.TempDir(), Small: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if out.tally.sent == 0 || out.tally.bad() != 0 {
				t.Errorf("sent %d requests, %d of %d operations failed or were incorrect",
					out.tally.sent, out.tally.bad(), out.tally.attempted())
			}
			check := func(kind string, got map[string]float64, specs []metricSpec) {
				if len(got) != len(specs) {
					t.Errorf("%s: %d metrics emitted, %d contracted: %v", kind, len(got), len(specs), keys(got))
				}
				for _, sp := range specs {
					if _, ok := got[sp.Name]; !ok {
						t.Errorf("%s metric %s not emitted", kind, sp.Name)
					}
				}
			}
			check("end-to-end", out.endToEnd, endToEndSpecs)
			check("per-layer", out.perLayer, perLayerSpecs)
			for _, sp := range endToEndSpecs {
				if sp.Name == "goodput_rps" {
					continue // 0 on a host slow enough (-race) to miss every limit
				}
				if out.endToEnd[sp.Name] <= 0 {
					t.Errorf("end-to-end metric %s is %g; the driver wants metrics that are never 0", sp.Name, out.endToEnd[sp.Name])
				}
			}
			if r := out.perLayer["loadgen.fail_ratio"]; r != 0 {
				t.Errorf("loadgen.fail_ratio = %g", r)
			}

			data, err := os.ReadFile(out.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name  string  `json:"name"`
					Phase string  `json:"ph"`
					TS    float64 `json:"ts"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("trace file does not parse: %v", err)
			}
			if len(doc.TraceEvents) == 0 {
				t.Error("trace file holds no events")
			}
		})
	}
}
