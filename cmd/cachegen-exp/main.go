// Command cachegen-exp runs the paper-reproduction experiments and prints
// the tables/figures the paper reports.
//
// Usage:
//
//	cachegen-exp -run all            # every experiment
//	cachegen-exp -run F8,F13         # selected experiments
//	cachegen-exp -list               # list experiment ids
//	cachegen-exp -run all -full      # paper-scale workloads (slower)
//
// A single chaos cell (one workload trace under one fault schedule, the
// X10 matrix à la carte) runs via -workload-trace, optionally with
// -chaos:
//
//	cachegen-exp -workload-trace rag-burst -chaos "kill@150ms+450ms"
//	cachegen-exp -workload-trace trace.json -chaos "corrupt@0s:0.25"
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/workload"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	full := flag.Bool("full", false, "use paper-scale workloads (slower)")
	trace := flag.String("workload-trace", "", "replay one workload trace (scenario name or trace file) under -chaos and exit")
	chaosSpec := flag.String("chaos", "", "fault schedule for -workload-trace, as class@offset[+heal][:param];... (e.g. \"kill@150ms+450ms; corrupt@0s:0.25\")")
	seed := flag.Int64("seed", 1234, "seed for -workload-trace scenario builders and fault victim selection")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-5s %s\n", e.ID, e.Paper)
		}
		return
	}

	if *trace != "" {
		tr, err := workload.Resolve(*trace, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachegen-exp:", err)
			os.Exit(1)
		}
		rep, err := harness.ChaosScenario(tr, *chaosSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cachegen-exp:", err)
			os.Exit(1)
		}
		if err := rep.Fprint(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cachegen-exp:", err)
			os.Exit(1)
		}
		return
	}
	if *chaosSpec != "" {
		fmt.Fprintln(os.Stderr, "cachegen-exp: -chaos needs -workload-trace (the schedule fires against a trace replay)")
		os.Exit(1)
	}

	scale := harness.DefaultScale()
	if *full {
		scale = harness.FullScale()
	}
	f := harness.NewFixture(scale)

	if strings.EqualFold(*run, "all") {
		if err := harness.RunAll(f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cachegen-exp:", err)
			os.Exit(1)
		}
		return
	}
	for _, id := range strings.Split(*run, ",") {
		if err := harness.Run(strings.TrimSpace(id), f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "cachegen-exp:", err)
			os.Exit(1)
		}
	}
}
