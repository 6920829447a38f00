package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// endToEndMetrics is the benchmark's contract: the metrics a user of the
// system would see, which way is better, and the share of the parent's
// median by which each may worsen before a change is a regression.
// BENCHMARK.json repeats it (TestBenchmarkJSONAgrees keeps them equal).
var endToEndMetrics = []struct {
	name, unit string
	higher     bool // higher is better
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"tx_per_s", "tx/s", true, 0.25},
	{"tx_p50_ms", "ms", false, 0.25},
	{"inquiry_p50_ms", "ms", false, 0.25},
	{"backout_p50_ms", "ms", false, 0.25},
	{"recover_s", "s", false, 0.25},
	{"allocs_per_op", "count", false, 0.02},
	{"alloc_kb_per_op", "KB", false, 0.03},
}

// selfCheck runs the workload twice back to back, each in a process of
// its own exactly as the harness does, and prints per end-to-end metric
// both values, how much worse the second is than the first (and the first
// than the second), and the bound. It returns 1 if either exceeds the
// bound: on a quiet host two runs of the same code must agree.
func selfCheck(w *workload, seed int64, seconds int) int {
	var runs [2]map[string]float64
	for i := range runs {
		m, err := runOnce(w, seed, seconds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: selfcheck:", err)
			return 1
		}
		runs[i] = m
	}
	code := 0
	fmt.Printf("selfcheck %s seed %d\n%-18s %14s %14s %9s %7s\n", w.name, seed, "metric", "run 1", "run 2", "worse by", "bound")
	for _, m := range endToEndMetrics {
		a, b := runs[0][m.name], runs[1][m.name]
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		// Whichever run is taken as the parent, the other must not be
		// worse by more than the bound.
		worse := hi/lo - 1
		if m.higher {
			worse = 1 - lo/hi
		}
		verdict := "ok"
		if !(worse <= m.bound) {
			verdict, code = "EXCEEDS", 1
		}
		fmt.Printf("%-18s %14.6g %14.6g %8.2f%% %6.0f%% %s\n", m.name, a, b, 100*worse, 100*m.bound, verdict)
	}
	return code
}

// runOnce runs this binary on the workload with tracing off and parses the
// result object it prints last.
func runOnce(w *workload, seed int64, seconds int) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s: run reported incorrect outputs", w.name)
	}
	m := make(map[string]float64, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = v.Value
	}
	return m, nil
}
