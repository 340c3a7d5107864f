// Command cachegen-exp runs the paper-reproduction experiments and prints
// the tables/figures the paper reports.
//
// Usage:
//
//	cachegen-exp -run all            # every experiment
//	cachegen-exp -run F8,F13         # selected experiments
//	cachegen-exp -list               # list experiment ids
//	cachegen-exp -run all -full      # paper-scale workloads (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	full := flag.Bool("full", false, "use paper-scale workloads (slower)")
	flag.Parse()

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-5s %s\n", e.ID, e.Paper)
		}
		return
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
