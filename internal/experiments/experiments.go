// Package experiments implements the reproduction harness: one function
// per figure and per textual claim from DESIGN.md, listed once in
// Registry. Each experiment builds its own simulated system, drives it,
// and fills a Report whose rows are the "table" the paper's figure or
// claim implies and whose Pass says whether the claim held. Performance
// numbers are bench/'s job (BENCHMARK.json), not this package's.
//
// They stand on one scaffold (scaffold.go): the cluster builder
// Report.build, the commit driver commit, the Figure-4 rig Report.ring
// with its step recorder, and harness — the one failure path (an
// experiment returns its error) and the stop of all it started.
//
// cmd/tmfbench prints the reports.
package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Report is one experiment's regenerated table. Run fills ID and Title
// from the Registry entry.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Pass records whether the experiment's qualitative claim held.
	Pass bool

	stops []func() // what the experiment started, stopped by harness
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for _, row := range append([][]string{r.Columns}, r.Rows...) {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(cell))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Columns)
	dashes := make([]string, len(widths))
	for i, w := range widths {
		dashes[i] = strings.Repeat("-", w)
	}
	writeRow(dashes)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	fmt.Fprintf(&sb, "result: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[r.Pass])
	return sb.String()
}

// Experiment is one entry of the registry: the ID tmfbench -exp takes,
// the title -list prints, and the function that regenerates the table.
type Experiment struct {
	ID    string
	Title string
	Run   func() *Report
}

// Registry lists every experiment once, in the order "all" runs them:
// the figures, then the claims by number. T12 (DST explorer throughput)
// and T15 (open-loop terminal load) were retired and their IDs stay
// unused, because EXPERIMENTS.md and the frozen BENCH_PR*.json name them.
var Registry = []Experiment{
	{"F1", "single-module failure tolerance (Figure 1)", harness(f1)},
	{"F2", "typical ENCOMPASS configuration (Figure 2)", harness(f2)},
	{"F3", "transaction state transitions (Figure 3)", harness(f3)},
	{"F4", "manufacturing network: autonomy and convergence (Figure 4)", harness(f4)},
	{"T1", "commit cost vs participant count (abbreviated vs distributed 2PC)", harness(t1)},
	{"T2", "checkpoint-instead-of-WAL ablation", harness(t2)},
	{"T3", "backout cost vs transaction size", harness(t3)},
	{"T4", "hot-spot contention: deadlock by timeout + restart", harness(t4)},
	{"T5", "ROLLFORWARD recovery vs committed-history length", harness(t5)},
	{"T6", "state-change broadcast cost vs CPUs; participant-only across network", harness(t6)},
	{"T7", "update availability under partition: master+suspense vs synchronous", harness(t7)},
	{"T8", "availability through processor failure: NonStop vs conventional restart", harness(t8)},
	{"T9", "parallel commit fan-out and audit group commit", harness(t9)},
	{"T10", "suspense convergence over flaky lines (lossy partition heal)", harness(t10)},
	{"T11", "multithreaded DISCPROCESS: conflict-aware intra-volume parallelism", harness(t11)},
	{"T13", "ROLLFORWARD recovery time vs audit-trail length (streamed replay)", harness(t13)},
	{"T14", "disposition under coordinator failure: blocking 2PC vs Paxos Commit (F=1)", harness(t14)},
}

// pick resolves an ID (case-insensitive), a comma-separated list of IDs
// ("T9,T10,T11"), or "all" (the whole Registry, in order) to entries.
func pick(ids string) ([]Experiment, error) {
	var picked []Experiment
	for _, id := range strings.Split(ids, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "ALL" {
			picked = append(picked, Registry...)
			continue
		}
		i := slices.IndexFunc(Registry, func(e Experiment) bool { return e.ID == id })
		if i < 0 {
			return nil, fmt.Errorf("experiments: unknown experiment %q (tmfbench -list names them; or all)", id)
		}
		picked = append(picked, Registry[i])
	}
	return picked, nil
}

// Run executes the experiments pick resolves ids to, stamping each
// report with its Registry ID and Title.
func Run(ids string) ([]*Report, error) {
	picked, err := pick(ids)
	if err != nil {
		return nil, err
	}
	reports := make([]*Report, len(picked))
	for i, e := range picked {
		reports[i] = e.Run()
		reports[i].ID, reports[i].Title = e.ID, e.Title
	}
	return reports, nil
}

func dur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func f2s(f float64) string { return fmt.Sprintf("%.1f", f) }
func i2s(n int) string     { return fmt.Sprintf("%d", n) }
