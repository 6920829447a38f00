// Command tmfbench regenerates the paper's figures and claims as text
// tables: each experiment builds a simulated ENCOMPASS system, drives it,
// and prints the resulting table plus a PASS/FAIL verdict for the
// qualitative claim it reproduces.
//
// Usage:
//
//	tmfbench -exp all      # every experiment (default)
//	tmfbench -exp F4       # one experiment: F1-F4 (figures), T1-T15 (claims)
//	tmfbench -exp T9,T10,T11                        # a comma-separated subset
//	tmfbench -list         # list experiments
//	tmfbench -exp T10 -loss 0.2 -dup 0.1            # tune T10's fault profile
//	tmfbench -exp T11 -discworkers 16               # tune T11's worker depth
//	tmfbench -exp T12 -seed 7 -schedules 24         # tune the DST throughput run
//	tmfbench -exp T15 -rate 150000 -terminals 20000 # tune the open-loop load
//	tmfbench -exp T15 -cpuprofile cpu.pprof         # profile a hot-path hunt
//	tmfbench -exp T9,T10,T11 -json -out BENCH.json  # machine-readable output
//
// With -json the reports are written as a single JSON document (schema in
// EXPERIMENTS.md) instead of text tables; -out redirects either format to
// a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"

	"encompass/internal/experiments"
)

var descriptions = []struct{ id, title string }{
	{"F1", "single-module failure tolerance (Figure 1)"},
	{"F2", "typical ENCOMPASS configuration (Figure 2)"},
	{"F3", "transaction state transitions (Figure 3)"},
	{"F4", "manufacturing network: autonomy and convergence (Figure 4)"},
	{"T1", "commit cost vs participant count (abbreviated vs distributed 2PC)"},
	{"T2", "checkpoint-instead-of-WAL ablation"},
	{"T3", "backout cost vs transaction size"},
	{"T4", "hot-spot contention: deadlock by timeout + restart"},
	{"T5", "ROLLFORWARD recovery vs committed-history length"},
	{"T6", "broadcast cost vs CPUs; participant-only across network"},
	{"T7", "update availability under partition"},
	{"T8", "availability through processor failure: NonStop vs conventional restart"},
	{"T9", "parallel commit fan-out and audit group commit"},
	{"T10", "suspense convergence over flaky lines (lossy partition heal)"},
	{"T11", "multithreaded DISCPROCESS: conflict-aware intra-volume parallelism"},
	{"T12", "DST explorer throughput: full fault schedules audited per second"},
	{"T13", "ROLLFORWARD recovery time vs audit-trail length (streamed replay)"},
	{"T14", "disposition under coordinator failure: blocking 2PC vs Paxos Commit (F=1)"},
	{"T15", "terminal-scale open-loop throughput"},
}

// jsonDoc is the envelope written by -json; see EXPERIMENTS.md for the
// field-by-field schema. Seed and Revision pin the run's provenance: the
// root seed every seeded experiment derives from, and the git revision of
// the tree that produced the numbers.
type jsonDoc struct {
	Tool        string                `json:"tool"`
	Seed        int64                 `json:"seed"`
	Revision    string                `json:"revision"`
	Experiments []*experiments.Report `json:"experiments"`
	Failed      int                   `json:"failed"`
}

// gitRevision reports the working tree's commit (plus "-dirty" when the
// tree has uncommitted changes), or "unknown" outside a git checkout.
func gitRevision() string {
	rev, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	r := strings.TrimSpace(string(rev))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		r += "-dirty"
	}
	return r
}

// main delegates to run so the profile-writing defers execute before the
// process exits with run's status code.
func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiments to run: F1-F4, T1-T15, a comma-separated list, or all")
	list := flag.Bool("list", false, "list experiments and exit")
	asJSON := flag.Bool("json", false, "emit one JSON document instead of text tables (schema in EXPERIMENTS.md)")
	out := flag.String("out", "", "write output to this file instead of stdout")
	loss := flag.Float64("loss", experiments.T10Loss, "T10: per-frame loss probability on every line")
	dup := flag.Float64("dup", experiments.T10Dup, "T10: per-frame duplication probability on every line")
	discWorkers := flag.Int("discworkers", 0, "T11: DISCPROCESS worker-pool depth for the parallel runs (0 = the default depth)")
	seed := flag.Int64("seed", experiments.T12Seed, "root seed for the seeded experiments (T12's first explored seed); stamped into -json output")
	schedules := flag.Int("schedules", experiments.T12Schedules, "T12: number of DST schedules the throughput run explores")
	window := flag.Duration("t14window", experiments.T14Window, "T14: how long the killed coordinator stays dead while the participant is probed")
	rate := flag.Float64("rate", experiments.T15Rate, "T15: aggregate offered open-loop load, tx/sec")
	terminals := flag.Int("terminals", experiments.T15Terminals, "T15: simulated terminal count (one goroutine each)")
	loadDur := flag.Duration("loadduration", experiments.T15Duration, "T15: measured open-loop window")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	flag.Parse()
	experiments.T10Loss = *loss
	experiments.T10Dup = *dup
	experiments.T11Workers = *discWorkers
	experiments.T12Seed = *seed
	experiments.T12Schedules = *schedules
	experiments.T14Window = *window
	experiments.T15Rate = *rate
	experiments.T15Terminals = *terminals
	experiments.T15Duration = *loadDur

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			pprof.Lookup("heap").WriteTo(f, 0)
		}()
	}

	if *list {
		for _, d := range descriptions {
			fmt.Printf("%-3s %s\n", d.id, d.title)
		}
		return 0
	}

	reports, err := experiments.Run(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	failed := 0
	for _, r := range reports {
		if !r.Pass {
			failed++
		}
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc{Tool: "tmfbench", Seed: *seed, Revision: gitRevision(), Experiments: reports, Failed: failed}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, r := range reports {
			fmt.Fprintln(w, r.String())
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}
