// Command bench is the repo's end-to-end benchmark: a TTFT ledger over the
// real gateway → sched → streamer → transport → storage stack on loopback,
// four workloads, and a per-layer split. See README.md in this directory
// and BENCHMARK.json at the repo root.
//
// One run (what the driver calls, through run.sh):
//
//	bench -workload decode-bound -seed 1 -seconds 20 -trace 0
//
// prints progress on standard error and one JSON object as the last line
// of standard output: with -trace 0 every end-to-end metric, with -trace 1
// every per-layer metric (and a Chrome trace_event file under -outdir).
//
// Several runs in fresh processes, summarised and merged into a file:
//
//	bench -workload decode-bound -seed 1 -repeat 5 -out A.json
//
// Two such files side by side, exit status 1 if a metric regressed:
//
//	bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: decode-bound, wire-cliff, fleet-openloop, publish-beside-read")
	seed := flag.Int64("seed", 1, "seed for token streams, popularity draws and arrival times")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics and a trace file instead of the end-to-end metrics")
	outDir := flag.String("outdir", "bench/out", "directory for trace files and temporary FileStore data")
	repeat := flag.Int("repeat", 0, "run the workload N times in fresh processes (seeds seed..seed+N-1) and report median and quartiles")
	out := flag.String("out", "", "with -repeat: merge the summary into this JSON file")
	compare := flag.Bool("compare", false, "compare two -repeat summaries: bench -compare A.json B.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *repeat > 0:
		if err := repeatRuns(*workloadName, *seed, *seconds, *trace, *outDir, *repeat, *out); err != nil {
			fatal(err)
		}
	default:
		res, err := run(runConfig{Workload: *workloadName, Seed: *seed, Seconds: *seconds, Trace: *trace != 0, OutDir: *outDir})
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
