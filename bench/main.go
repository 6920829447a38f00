// Command bench is the repository's benchmark of record: it runs one named
// workload against the public API, prints every metric by name and unit,
// verifies the volumes against a shadow model, and exits non-zero on any
// correctness failure. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: tp1_terminal, transfer_wan, inquiry_mix or batch_backout")
		seed      = flag.Int64("seed", 1, "seed of the one generator every input comes from")
		seconds   = flag.Int("seconds", refSeconds, "scales the fixed op counts; the counts are sized for the default")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		selfcheck = flag.Bool("selfcheck", false, "run the workload twice and compare the end-to-end metrics with their bounds")
		outDir    = flag.String("out", "bench/out", "directory the traced run writes its span dump to")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q or bad arguments\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(w, *seed, *seconds))
	}
	var (
		res *result
		err error
	)
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds)
	} else {
		res, err = perLayer(w, *seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	report(w, *seed, res)
	if !res.correct {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, then the result object the
// harness reads as the last line of standard output.
func report(w *workload, seed int64, res *result) {
	fmt.Printf("workload %s seed %d\n", w.name, seed)
	for _, l := range res.lines {
		fmt.Println(l)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		fmt.Printf("%-32s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
