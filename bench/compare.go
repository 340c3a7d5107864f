package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// summary is one metric over the runs of a -repeat set.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// spread is the inter-quartile distance as a share of the median, the
// run-to-run noise a difference has to clear.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	d := (s.Q3 - s.Q1) / s.Median
	if d < 0 {
		d = -d
	}
	return d
}

// summaryFile is what -repeat -out writes and -compare reads: one entry
// per workload, merged across invocations.
type summaryFile struct {
	GoVersion  string                        `json:"go_version"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	Cores      int                           `json:"cores"`
	Workloads  map[string]map[string]summary `json:"workloads"`
}

func readSummary(path string) (*summaryFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f summaryFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// lastLine returns the last non-empty line of a run's standard output.
func lastLine(out []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	return lines[len(lines)-1]
}

// repeatRuns runs the workload n times, each in a fresh process with the
// next seed, prints median and quartiles per metric, and merges the
// summary into outPath when one is given.
func repeatRuns(workload string, seed int64, seconds float64, trace int, outDir string, n int, outPath string) error {
	if _, err := lookupWorkload(workload); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		cmd := exec.Command(self,
			"-workload", workload,
			"-seed", strconv.FormatInt(seed+int64(i), 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace),
			"-outdir", outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var res runResult
		if err := json.Unmarshal(lastLine(out), &res); err != nil {
			return fmt.Errorf("run %d: parsing result: %w", i+1, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d: %d of %d operations failed or were incorrect", i+1, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}

	sums := map[string]summary{}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d runs\tmedian\tq1\tq3\tspread\tunit\n", workload, n)
	for _, sp := range append(append([]metricSpec{}, endToEndSpecs...), perLayerSpecs...) {
		xs, ok := values[sp.Name]
		if !ok {
			continue
		}
		q1, q3 := quartiles(xs)
		s := summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs), Unit: units[sp.Name]}
		sums[sp.Name] = s
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%.6g\t%.2f%%\t%s\n", sp.Name, s.Median, s.Q1, s.Q3, 100*s.spread(), s.Unit)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if outPath == "" {
		return nil
	}
	file, err := readSummary(outPath)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		file = &summaryFile{Workloads: map[string]map[string]summary{}}
	}
	file.GoVersion, file.GOMAXPROCS, file.Cores = runtime.Version(), min(runtime.NumCPU(), 4), runtime.NumCPU()
	if file.Workloads[workload] == nil {
		file.Workloads[workload] = map[string]summary{}
	}
	for name, s := range sums { // an untraced and a traced set share one entry
		file.Workloads[workload][name] = s
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

// compareFiles prints every end-to-end metric of every workload both
// summaries hold, one row each, with the verdict of section 6 of the
// choosing-metrics guide: regressed when B's median is worse than A's by
// more than the metric's bound, unresolved when either side's own
// run-to-run spread exceeds that bound, ok otherwise. It reports whether
// any row regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA\tB\tchange\tbound\tspread\tverdict\n")
	for _, ws := range workloadSpecs {
		ma, mb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		for _, sp := range endToEndSpecs {
			sa, okA := ma[sp.Name]
			sb, okB := mb[sp.Name]
			if !okA || !okB {
				continue
			}
			change := ratio(sb.Median-sa.Median, sa.Median)
			worse := change
			if sp.Better == "higher" {
				worse = -change
			}
			spread := max(sa.spread(), sb.spread())
			verdict := "ok"
			switch {
			case spread > sp.Bound:
				verdict = "unresolved"
			case worse > sp.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%% %s\t%.2f%%\t%s\n",
				ws.Name, sp.Name, sa.Median, sb.Median, 100*change, 100*sp.Bound,
				strings.ToLower(sp.Better), 100*spread, verdict)
		}
	}
	return regressed, tw.Flush()
}
