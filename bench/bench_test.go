package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"encompass"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileAndSummary(t *testing.T) {
	vals := []float64{9, 1, 5, 3, 7} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2}} {
		if got := quantile(vals, c.p); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 9 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{2, 4}, 0.5); !near(got, 3) {
		t.Errorf("median of an even count = %v, want 3", got)
	}
	if got := quantile([]float64{6}, 0.5); !near(got, 6) {
		t.Errorf("median of one value = %v, want 6", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	s := summarize(vals)
	if !near(s.Median, 5) || !near(s.Q1, 3) || !near(s.Q3, 7) || s.N != 5 {
		t.Errorf("summarize = %+v", s)
	}
	if got := s.iqrPct(); !near(got, 80) {
		t.Errorf("iqrPct = %v, want 80", got)
	}
}

func TestPercentileNs(t *testing.T) {
	lat := make([]int64, 101)
	for i := range lat {
		lat[i] = int64(100 - i) // 100 … 0
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 0}, {50, 50}, {99, 99}, {100, 100}} {
		if got := percentileNs(lat, c.p); got != c.want {
			t.Errorf("percentileNs(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileNs(nil, 50); got != 0 {
		t.Errorf("percentileNs of nothing = %d", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "terminal.exec", Parent: noSpan, Start: 0, End: 100},
		{Name: "tmf.begin", Parent: 0, Start: 5, End: 15},
		{Name: "appserver.call", Parent: 0, Start: 20, End: 70},
		{Name: "handler", Parent: 2, Start: 30, End: 60},
		{Name: "fsys.readlock", Parent: 3, Start: 30, End: 40},
		{Name: "fsys.update", Parent: 3, Start: 35, End: 50}, // overlaps its sibling by 5
		{Name: "tmf.end", Parent: 0, Start: 90, End: 120},    // runs past its parent: clipped
	}
	want := []int64{
		100 - (10 + 50 + 10), // begin, call, and the 10 of tmf.end inside the parent
		10,
		50 - 30,
		30 - 20, // children cover 30..50 once
		10,
		15,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	tot := totalSpans(spans)
	if tot.n["handler"] != 1 || tot.dur["appserver.call"] != 50 || tot.self["appserver.call"] != 20 {
		t.Errorf("totals = %+v", tot)
	}
	if got := tot.meanUs("fsys.update"); !near(got, 0.015) {
		t.Errorf("meanUs = %v, want 0.015", got)
	}

	var off *tracer // the untraced run
	id := off.start("x", noSpan)
	off.setTrace(id, "t")
	off.end(id)
	if id != noSpan {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr := newTracer()
	root := tr.start("root", noSpan)
	kid := tr.start("kid", root)
	tr.end(kid)
	tr.setTrace(root, `\n1(0).1`)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root || tr.spans[root].Trace == "" || tr.spans[root].End < tr.spans[kid].End {
		t.Errorf("recorded spans = %+v", tr.spans)
	}
}

// digest is a stable hash of everything on the volumes.
func digest(sys *encompass.System) uint64 {
	h := fnv.New64a()
	for _, node := range sys.Nodes() {
		for _, vol := range sortedKeys(node.Volumes) {
			snap := node.Volumes[vol].Disk.Snapshot()
			for _, file := range sortedKeys(snap) {
				for _, key := range sortedKeys(snap[file]) {
					fmt.Fprintf(h, "%s\x00%s\x00%s\x00", file, key, snap[file][key])
				}
			}
		}
	}
	return h.Sum64()
}

// runOneTerminal runs a short single-terminal schedule of w and returns the
// schedule hash and the digest of the volumes it left behind.
func runOneTerminal(t *testing.T, w *workload, seed int64, roundOps int) (uint64, uint64) {
	t.Helper()
	e, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.home.Crash()
	r := newRunner(w, e, seed, 2, 1, roundOps)
	for ri := range r.sched {
		r.round(ri, nil)
	}
	if r.firstErr != nil {
		t.Fatal(r.firstErr)
	}
	if err := r.oracle(); err != nil {
		t.Fatal(err)
	}
	return r.sched.hash(), digest(e.sys)
}

// One generator drives everything: the same seed must give the same inputs
// and, with one terminal, the same volumes; another seed must change both.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := genSchedule(w, 7, 3, terminals, 400).hash()
		if b := genSchedule(w, 7, 3, terminals, 400).hash(); a != b {
			t.Errorf("%s: same seed, schedule hashes %x and %x", w.name, a, b)
		}
		if c := genSchedule(w, 8, 3, terminals, 400).hash(); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", w.name)
		}
	}
	w := findWorkload("batch_backout")
	h1, d1 := runOneTerminal(t, w, 7, 60)
	h2, d2 := runOneTerminal(t, w, 7, 60)
	h3, d3 := runOneTerminal(t, w, 8, 60)
	if h1 != h2 || d1 != d2 {
		t.Errorf("seed 7 twice: schedule %x/%x, volumes %x/%x", h1, h2, d1, d2)
	}
	if h1 == h3 || d1 == d3 {
		t.Errorf("seeds 7 and 8: schedule %x/%x, volumes %x/%x", h1, h3, d1, d3)
	}
}

func TestScheduleFollowsMix(t *testing.T) {
	for _, w := range workloads {
		sched := genSchedule(w, 1, 2, terminals, 1000)
		for _, round := range sched {
			for _, ops := range round {
				var n [numKinds]int
				for _, o := range ops {
					n[o.kind]++
					if len(o.keys) != w.keysPerOp {
						t.Fatalf("%s: op has %d keys, want %d", w.name, len(o.keys), w.keysPerOp)
					}
				}
				for k := kindInquiry; k < numKinds; k++ {
					if want := len(ops) * w.mix[k] / 100; n[k] != want {
						t.Errorf("%s: %d %s ops per terminal and round, want %d", w.name, n[k], kindNames[k], want)
					}
				}
			}
		}
	}
}

// One ScreenCOBOL debit/credit commits through load.ScobolTx, and one
// Crash/Recover cycle passes the oracle.
func TestSmokeScobolDebitCreditAndRecovery(t *testing.T) {
	w := findWorkload("tp1_terminal")
	e, err := w.build()
	if err != nil {
		t.Fatal(err)
	}
	defer e.home.Crash()
	r := newRunner(w, e, 3, 2, terminals, 100)
	r.round(0, nil)
	archive := e.home.TakeArchive()

	// The extra transaction stands in for the last op of round 1, which is
	// otherwise not run, so the oracle's view includes it.
	last := len(r.sched[1][0]) - 1
	r.sched[1][0][last] = op{kind: kindUpdate, keys: []int32{3, 4, 5}, amount: 25}
	o := &r.sched[1][0][last]
	before := e.class.Stats().Dispatched
	if _, err := e.app.transact(r.terms[0], o, opTag(1, 0, last), false); err != nil {
		t.Fatalf("debit/credit through load.ScobolTx: %v", err)
	}
	if got := e.class.Stats().Dispatched - before; got != 1 {
		t.Errorf("bank server class dispatched %d requests, want 1", got)
	}
	r.outcomes[1][0][last] = done
	m := expected(e.app, r.sched, r.outcomes)
	if err := m.check(e.sys); err != nil {
		t.Fatalf("before crash: %v", err)
	}

	if _, _, err := crashRecover(e, archive, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.check(e.sys); err != nil {
		t.Fatalf("after recovery: %v", err)
	}

	// The oracle must notice a lost update and name the key.
	acct, _, _ := tp1Keys(o)
	m.add("accounts", acct, 1)
	if err := m.check(e.sys); err == nil || !strings.Contains(err.Error(), acct) {
		t.Errorf("oracle on a balance that differs from the volume: %v, want an error naming %s", err, acct)
	}
}

// BENCHMARK.json repeats the end-to-end contract and the workload names;
// they must not drift from the code.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, roundOps are sized for %d", spec.RunSeconds, refSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the driver", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the driver", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := spec.EndToEnd[i]
		better := "lower"
		if m.higher {
			better = "higher"
		}
		if got.Name != m.name || got.Unit != m.unit || got.Better != better || got.Bound != m.bound {
			t.Errorf("end_to_end[%d] = %+v, driver has %+v", i, got, m)
		}
	}
}
