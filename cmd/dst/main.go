// Command dst drives the deterministic fault-schedule explorer: it
// generates schedules from root seeds, executes them against freshly
// built simulated clusters, audits every invariant, and — with -minimize
// — shrinks any failing schedule to a minimal event list ready to check
// into internal/dst/corpus/.
//
// Usage:
//
//	dst -seed 42 -v                     # one schedule, narrated
//	dst -seed 1 -schedules 1000         # explore seeds 1..1000
//	dst -seed 1 -schedules 1000 -par 8  # ... 8 clusters at a time
//	dst -seed 77 -minimize -corpus internal/dst/corpus
//	dst -replay internal/dst/corpus/seed77.json
//
// Every failure prints the exact repro command and (with -minimize) the
// minimal schedule. Exit status: 0 all clean, 1 invariant violations,
// 2 usage/internal error.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"encompass/internal/dst"
)

func main() {
	seed := flag.Int64("seed", 1, "root seed (first seed with -schedules > 1)")
	schedules := flag.Int("schedules", 1, "number of consecutive seeds to explore")
	par := flag.Int("par", 4, "schedules explored concurrently")
	minimize := flag.Bool("minimize", false, "delta-debug failing schedules to a minimal event list")
	minRuns := flag.Int("minruns", 60, "max executions the minimizer may spend per failure")
	corpusDir := flag.String("corpus", "", "write minimized failing schedules into this directory")
	replay := flag.String("replay", "", "replay one serialized schedule or corpus entry (JSON file)")
	shapeName := flag.String("shape", string(dst.ShapeMixed), "schedule shape: mixed, total-failure (archive -> total node failure -> ROLLFORWARD), coord-kill (Paxos Commit coordinator killed between phase one and the commit record), or phase-partition (interconnect severed at a phase boundary, abbreviated or paxos by seed)")
	verbose := flag.Bool("v", false, "narrate each schedule's events and rounds")
	flag.Parse()

	shape, err := dst.ParseShape(*shapeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *replay != "" {
		os.Exit(replayFile(*replay, *verbose))
	}
	os.Exit(explore(*seed, *schedules, *par, shape, *minimize, *minRuns, *corpusDir, *verbose))
}

// replayFile re-runs one serialized schedule (a corpus entry or a bare
// schedule document) and reports the verdict.
func replayFile(path string, verbose bool) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	sched, err := dst.DecodeAny(b)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opt := dst.Options{}
	if verbose {
		opt.Log = os.Stdout
	}
	v, err := dst.Run(sched, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("seed %d: %s (%d committed, %d aborted, %d faults)\n",
		v.Seed, v.Summary(), v.Committed, v.Aborted, v.Faults)
	if v.Failed() {
		return 1
	}
	return 0
}

// explore runs schedules for seeds seed..seed+schedules-1, par at a time.
func explore(seed int64, schedules, par int, shape dst.Shape, minimize bool, minRuns int, corpusDir string, verbose bool) int {
	if par < 1 {
		par = 1
	}
	type result struct {
		seed    int64
		verdict *dst.Verdict
		err     error
		wall    time.Duration
	}
	start := time.Now()
	seeds := make(chan int64)
	results := make(chan result)
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range seeds {
				opt := dst.Options{}
				if verbose {
					opt.Log = os.Stdout
				}
				t0 := time.Now()
				v, err := dst.Run(dst.GenerateShaped(s, shape), opt)
				results <- result{s, v, err, time.Since(t0)}
			}
		}()
	}
	go func() {
		for i := 0; i < schedules; i++ {
			seeds <- seed + int64(i)
		}
		close(seeds)
		wg.Wait()
		close(results)
	}()

	clean, failed := 0, 0
	var failedSeeds []int64
	var walls []time.Duration
	var slowest result
	for r := range results {
		walls = append(walls, r.wall)
		if r.wall > slowest.wall {
			slowest = r
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: %v\n", r.seed, r.err)
			failed++
			continue
		}
		if r.verdict.Failed() {
			failed++
			failedSeeds = append(failedSeeds, r.seed)
			f := r.verdict.FirstFailure()
			fmt.Printf("seed %d: FAIL %s: %s\n", r.seed, f.Name, f.Err)
			sched := dst.GenerateShaped(r.seed, shape)
			repro := dst.ReproCommand(&sched)
			if shape != dst.ShapeMixed {
				repro += " -shape " + string(shape)
			}
			fmt.Printf("  repro: %s\n", repro)
			if minimize {
				minimizeOne(r.seed, shape, minRuns, corpusDir)
			}
		} else {
			clean++
			if verbose || schedules <= 10 {
				fmt.Printf("seed %d: ok (%d committed, %d faults)\n", r.seed, r.verdict.Committed, r.verdict.Faults)
			}
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("explored %d schedules in %s (%.2f/sec): %d clean, %d failed\n",
		schedules, elapsed.Round(time.Millisecond), float64(schedules)/elapsed.Seconds(), clean, failed)
	for _, s := range failedSeeds {
		fmt.Printf("failing seed: %d  (repro: go run ./cmd/dst -seed %d -v)\n", s, s)
	}
	if len(walls) > 0 {
		slices.Sort(walls)
		fmt.Printf("slowest schedule: seed %d in %s; median %s per schedule\n",
			slowest.seed, slowest.wall.Round(time.Millisecond), walls[len(walls)/2].Round(time.Millisecond))
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// minimizeOne shrinks a failing seed's schedule and optionally writes the
// corpus entry.
func minimizeOne(seed int64, shape dst.Shape, minRuns int, corpusDir string) {
	fails := func(s dst.Schedule) bool {
		v, err := dst.Run(s, dst.Options{})
		return err == nil && v.Failed()
	}
	minimal := dst.Minimize(dst.GenerateShaped(seed, shape), fails, minRuns, os.Stdout)
	// Re-verify and report the minimal schedule's failure.
	v, err := dst.Run(minimal, dst.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed %d: minimized re-run: %v\n", seed, err)
		return
	}
	fmt.Printf("seed %d minimized to %d events:\n", seed, len(minimal.Events))
	for _, ev := range minimal.Events {
		fmt.Printf("  %s\n", ev)
	}
	if f := v.FirstFailure(); f != nil {
		fmt.Printf("  still fails: %s: %s\n", f.Name, f.Err)
	} else {
		fmt.Printf("  NOTE: minimal schedule passed on re-run (timing-sensitive failure)\n")
	}
	if corpusDir != "" {
		e := dst.CorpusEntry{
			Name:        fmt.Sprintf("seed%d", seed),
			Description: "minimized failing schedule (describe the root cause before checking in)",
			Schedule:    minimal,
		}
		if err := dst.SaveCorpusEntry(corpusDir, e); err != nil {
			fmt.Fprintf(os.Stderr, "seed %d: save corpus entry: %v\n", seed, err)
		} else {
			fmt.Printf("  corpus entry written: %s/seed%d.json\n", corpusDir, seed)
		}
	}
}
