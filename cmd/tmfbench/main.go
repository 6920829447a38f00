// Command tmfbench regenerates the paper's figures and claims as text
// tables: each experiment builds a simulated ENCOMPASS system, drives it,
// and prints the resulting table plus a PASS/FAIL verdict for the
// qualitative claim it reproduces. Performance numbers come from bench/
// (BENCHMARK.json), not from here.
//
// Usage:
//
//	tmfbench -exp all         # every experiment, in registry order (default)
//	tmfbench -exp F4          # one experiment
//	tmfbench -exp T9,T10,T11  # a comma-separated subset
//	tmfbench -list            # list experiments
package main

import (
	"flag"
	"fmt"
	"os"

	"encompass/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiments to run: an ID from -list, a comma-separated list, or all")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-3s %s\n", e.ID, e.Title)
		}
		return
	}

	reports, err := experiments.Run(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := 0
	for _, r := range reports {
		fmt.Println(r.String())
		if !r.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
