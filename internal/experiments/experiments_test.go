package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// Each experiment is the regeneration harness for one figure or claim;
// these tests pin that every Registry entry runs to completion and its
// qualitative claim (Report.Pass) holds.

// ran holds the reports of TestStopsWhatItStarts's run, which
// TestRegistry's subtests and the top-level TestF1..TestT14 reuse. Only
// that test fills it, so a test run without it (-run 'TestF1$', -count=N)
// runs what it checks every time.
var ran = map[string]*Report{}

// TestStopsWhatItStarts runs every Registry entry (declared first, so the
// checks below reuse its reports) and requires the goroutine count to come
// back to where it was: each experiment stops every system and
// application it started, so none of them runs on into the next one's
// timings.
func TestStopsWhatItStarts(t *testing.T) {
	before := runtime.NumGoroutine()
	rs, err := Run("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		ran[r.ID] = r
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(20 * time.Millisecond)
	}
	if after > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines after every experiment ran, %d before; some:\n%s", after, before, buf[:runtime.Stack(buf, true)])
	}
}

func check(t *testing.T, id string) {
	t.Helper()
	r := ran[id]
	if r == nil {
		rs, err := Run(id)
		if err != nil {
			t.Fatal(err)
		}
		r = rs[0]
	}
	t.Log("\n" + r.String())
	if !r.Pass {
		t.Errorf("%s did not pass", id)
	}
	if len(r.Rows) == 0 {
		t.Errorf("%s produced no rows", id)
	}
}

// TestRegistry is the guard that every experiment has a test: a new
// Registry entry is run here without anyone adding a function for it.
func TestRegistry(t *testing.T) {
	for _, e := range Registry {
		t.Run(e.ID, func(t *testing.T) { check(t, e.ID) })
	}
}

func TestF1(t *testing.T)  { check(t, "F1") }
func TestF2(t *testing.T)  { check(t, "F2") }
func TestF3(t *testing.T)  { check(t, "F3") }
func TestF4(t *testing.T)  { check(t, "F4") }
func TestT1(t *testing.T)  { check(t, "T1") }
func TestT2(t *testing.T)  { check(t, "T2") }
func TestT3(t *testing.T)  { check(t, "T3") }
func TestT4(t *testing.T)  { check(t, "T4") }
func TestT5(t *testing.T)  { check(t, "T5") }
func TestT6(t *testing.T)  { check(t, "T6") }
func TestT7(t *testing.T)  { check(t, "T7") }
func TestT8(t *testing.T)  { check(t, "T8") }
func TestT9(t *testing.T)  { check(t, "T9") }
func TestT14(t *testing.T) { check(t, "T14") }

// TestRunDispatch pins that -exp accepts exactly the IDs -list prints
// (both read Registry), in Registry order for "all", plus comma lists.
func TestRunDispatch(t *testing.T) {
	for _, bad := range []string{"bogus", "T12", "T15", "F1,bogus", ""} {
		if _, err := pick(bad); err == nil {
			t.Errorf("pick(%q) should error", bad)
		}
	}
	all, err := pick("all")
	if err != nil || len(all) != len(Registry) {
		t.Fatalf("pick(all) = %d entries, %v; want %d", len(all), err, len(Registry))
	}
	seen := map[string]bool{}
	for i, e := range Registry {
		got, err := pick(strings.ToLower(e.ID))
		if err != nil || len(got) != 1 || got[0].ID != e.ID || all[i].ID != e.ID || seen[e.ID] {
			t.Errorf("pick(%q) = %v, %v (duplicate ID: %v)", e.ID, got, err, seen[e.ID])
		}
		seen[e.ID] = true
	}
	rs, err := Run("f3, F2")
	if err != nil || len(rs) != 2 || rs[0].ID != "F3" || rs[1].ID != "F2" ||
		rs[0].Title != Registry[2].Title {
		t.Errorf("Run(f3, F2) = %v, %v", rs, err)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		ID: "X", Title: "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"n"},
		Pass:    true,
	}
	s := r.String()
	for _, want := range []string{"=== X: demo ===", "a", "bb", "note: n", "result: PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}
