package workload

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"encompass/internal/lock"
	"encompass/internal/obs"
)

// fakeClock is a deterministic injected clock: Sleep advances simulated
// time instead of blocking, so open-loop schedules run instantly and
// stalls can be injected with nanosecond precision.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(0, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestConfigValidation(t *testing.T) {
	open := Driver{Terminals: 1, Rate: 10, Duration: time.Second}
	closed := Driver{Terminals: 1, Count: 10}
	ok := func(int, int) error { return nil }
	cases := []struct {
		name string
		d    Driver
		body Body
	}{
		{"zero terminals", Driver{Rate: 10, Duration: time.Second}, ok},
		{"negative terminals", Driver{Terminals: -3, Count: 10}, ok},
		{"zero rate and count", Driver{Terminals: 1, Duration: time.Second}, ok},
		{"negative rate", Driver{Terminals: 1, Rate: -1, Duration: time.Second}, ok},
		{"negative count", Driver{Terminals: 1, Count: -1}, ok},
		{"both modes", Driver{Terminals: 1, Count: 10, Rate: 10, Duration: time.Second}, ok},
		{"zero duration", Driver{Terminals: 1, Rate: 10}, ok},
		{"negative warmup", Driver{Terminals: 1, Rate: 10, Duration: time.Second, Warmup: -1}, ok},
		{"closed loop with duration", Driver{Terminals: 1, Count: 10, Duration: time.Second}, ok},
		{"negative restarts", Driver{Terminals: 1, Count: 10, Restarts: -1}, ok},
		{"nil body", open, nil},
	}
	for _, tc := range cases {
		if _, err := tc.d.Run(tc.body); err == nil {
			t.Errorf("%s: Run accepted an invalid driver", tc.name)
		}
	}
	clock := newFakeClock()
	for _, d := range []Driver{open, closed} {
		d.Now, d.Sleep = clock.Now, clock.Sleep
		if _, err := d.Run(ok); err != nil {
			t.Errorf("%+v: %v", d, err)
		}
	}
}

func TestTPSEdgeCases(t *testing.T) {
	if tps := (Result{}).TPS(); tps != 0 {
		t.Errorf("zero-value TPS = %v, want 0", tps)
	}
	if tps := (Result{Committed: 5, Elapsed: -time.Second}).TPS(); tps != 0 {
		t.Errorf("negative-elapsed TPS = %v, want 0", tps)
	}
	if tps := (Result{Committed: 120, Elapsed: 2 * time.Second}).TPS(); tps != 60 {
		t.Errorf("TPS = %v, want 60", tps)
	}
	if tps := (Result{Committed: 0, Elapsed: time.Second}).TPS(); tps != 0 {
		t.Errorf("no-commit TPS = %v, want 0", tps)
	}
}

// TestClosedLoopCountsEveryTransaction: N terminals × k transactions
// issue exactly N·k, each (terminal, seq) once, with one histogram
// observation each; a body that fails restartably twice per transaction
// is restarted twice and then commits, and with a bound of one restart
// every transaction gives up.
func TestClosedLoopCountsEveryTransaction(t *testing.T) {
	const terminals, k = 5, 7
	for _, tc := range []struct {
		bound, restarts, committed int
	}{
		{bound: 2, restarts: 2 * terminals * k, committed: terminals * k},
		{bound: 1, restarts: terminals * k, committed: 0},
	} {
		clock := newFakeClock()
		var mu sync.Mutex
		attempts := map[[2]int]int{}
		res, err := Driver{Terminals: terminals, Count: terminals * k, Restarts: tc.bound,
			Now: clock.Now, Sleep: clock.Sleep}.Run(func(term, seq int) error {
			clock.Sleep(time.Millisecond)
			mu.Lock()
			defer mu.Unlock()
			attempts[[2]int{term, seq}]++
			if attempts[[2]int{term, seq}] <= 2 {
				return fmt.Errorf("attempt %d: %w", attempts[[2]int{term, seq}], lock.ErrTimeout)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Issued != terminals*k || res.Hist.Count != uint64(res.Issued) {
			t.Errorf("bound %d: issued %d with %d observations, want %d each", tc.bound, res.Issued, res.Hist.Count, terminals*k)
		}
		if res.Committed != tc.committed || res.Failed != terminals*k-tc.committed || res.Restarts != tc.restarts {
			t.Errorf("bound %d: committed/failed/restarts = %d/%d/%d, want %d/%d/%d", tc.bound,
				res.Committed, res.Failed, res.Restarts, tc.committed, terminals*k-tc.committed, tc.restarts)
		}
		if len(attempts) != terminals*k {
			t.Errorf("bound %d: %d distinct (terminal, seq) pairs ran, want %d", tc.bound, len(attempts), terminals*k)
		}
		for term := range terminals {
			for seq := range k {
				if n := attempts[[2]int{term, seq}]; n != tc.bound+1 {
					t.Errorf("bound %d: terminal %d seq %d ran %d times, want %d", tc.bound, term, seq, n, tc.bound+1)
				}
			}
		}
		if res.Elapsed <= 0 || res.MaxLag != 0 {
			t.Errorf("bound %d: elapsed %v, max lag %v", tc.bound, res.Elapsed, res.MaxLag)
		}
	}
	// A failure encompass.Restartable rejects is not restarted.
	res, err := Driver{Terminals: 2, Count: 3, Restarts: 5}.Run(func(int, int) error { return errors.New("bad input") })
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 || res.Restarts != 0 {
		t.Errorf("non-restartable failures: failed %d restarts %d, want 3 and 0", res.Failed, res.Restarts)
	}
}

// runClocked drives one single-terminal open-loop run on a fake clock.
// stallSeq < 0 disables the injected stall.
func runClocked(t *testing.T, seed int64, stallSeq int, stall time.Duration) Result {
	t.Helper()
	clock := newFakeClock()
	res, err := Driver{
		Terminals: 1,
		Rate:      1000, // mean gap 1ms
		Duration:  time.Second,
		Seed:      seed,
		Now:       clock.Now,
		Sleep:     clock.Sleep,
	}.Run(func(term, seq int) error {
		if seq == stallSeq {
			clock.Sleep(stall) // the system under test stalls
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScheduleDeterministic pins the open-loop bookkeeping: same seed,
// same clock, same counts and the same latencies, and every issued
// transaction lands in the histogram.
func TestScheduleDeterministic(t *testing.T) {
	a := runClocked(t, 7, -1, 0)
	b := runClocked(t, 7, -1, 0)
	if a.Issued != b.Issued || a.Committed != b.Committed || a.Failed != b.Failed || a.Hist.Sum != b.Hist.Sum {
		t.Errorf("re-run diverged: %+v vs %+v", a, b)
	}
	// Poisson at 1000/s over 1s: mean 1000 arrivals, sd ~32.
	if a.Issued < 850 || a.Issued > 1150 {
		t.Errorf("issued = %d, want ~1000", a.Issued)
	}
	if a.Failed != 0 || a.Committed != a.Issued {
		t.Errorf("committed/failed = %d/%d of %d issued", a.Committed, a.Failed, a.Issued)
	}
	if a.Hist.Count != uint64(a.Issued) {
		t.Errorf("histogram holds %d observations, issued %d", a.Hist.Count, a.Issued)
	}
	if a.MaxLag != 0 || a.Hist.Max != 0 {
		t.Errorf("max lag %v, max latency %v on an instantaneous system", a.MaxLag, a.Hist.Max)
	}
}

// TestWarmupExcluded: transactions whose intended send time falls inside
// the warmup window must not appear in any recorded statistic. On the
// instantaneous fake-clock system a transaction runs at its intended
// time, and every one that runs before the warmup ends fails; if the
// warmup exclusion is correct, none of those failures is visible.
func TestWarmupExcluded(t *testing.T) {
	clock := newFakeClock()
	warmEnd := clock.Now().Add(500 * time.Millisecond)
	var warm int
	res, err := Driver{
		Terminals: 1,
		Rate:      1000,
		Duration:  time.Second,
		Warmup:    500 * time.Millisecond,
		Seed:      7,
		Now:       clock.Now,
		Sleep:     clock.Sleep,
	}.Run(func(term, seq int) error {
		if clock.Now().Before(warmEnd) {
			warm++
			return errors.New("warmup-only failure")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm < 400 {
		t.Fatalf("only %d transactions ran during the 500ms warmup", warm)
	}
	if res.Failed != 0 {
		t.Errorf("%d warmup failures leaked into the measured statistics", res.Failed)
	}
	if res.Issued < 850 || res.Issued > 1150 {
		t.Errorf("issued = %d, want ~1000 over the 1s measured window", res.Issued)
	}
	if res.Committed != res.Issued {
		t.Errorf("committed = %d of %d issued", res.Committed, res.Issued)
	}
	if res.Hist.Count != uint64(res.Issued) {
		t.Errorf("histogram holds %d observations, issued %d", res.Hist.Count, res.Issued)
	}
}

// atLeast counts histogram observations whose bucket lies entirely at or
// above d (a conservative undercount when d falls inside a bucket).
func atLeast(s obs.HistogramSnapshot, d time.Duration) uint64 {
	var n uint64
	for _, b := range s.Buckets {
		if b.Lo >= d {
			n += b.N
		}
	}
	return n
}

// TestCoordinatedOmissionGuardFires is the property test for the CO guard:
// across seeds, injecting a stall into one transaction must (1) leave the
// issued count identical to the stall-free run — the schedule is never
// re-anchored, so no intended transaction is omitted — and (2) charge the
// stall to the transactions that were scheduled during it, which shows up
// as a burst of latencies far above the interarrival gap and as MaxLag
// close to the stall length.
func TestCoordinatedOmissionGuardFires(t *testing.T) {
	const stall = 50 * time.Millisecond // ~50 intended sends pile up behind it at a 1ms mean gap
	for seed := int64(1); seed <= 16; seed++ {
		base := runClocked(t, seed, -1, 0)
		hit := runClocked(t, seed, 100, stall)
		if hit.Issued != base.Issued {
			t.Errorf("seed %d: stall changed issued count %d -> %d (schedule re-anchored or omitted)",
				seed, base.Issued, hit.Issued)
		}
		// The stalled transaction itself is charged the full stall.
		if hit.Hist.Max < stall {
			t.Errorf("seed %d: max latency %v < stall %v", seed, hit.Hist.Max, stall)
		}
		// The first backlogged transaction started ~stall-mean late.
		if hit.MaxLag < stall/2 {
			t.Errorf("seed %d: max lag %v, want >= %v", seed, hit.MaxLag, stall/2)
		}
		// A co-omitting harness records ONE slow transaction; the guard
		// must record the whole backlog. With a 50ms stall over 1ms mean
		// gaps, dozens of observations exceed 10ms.
		if n := atLeast(hit.Hist, 10*time.Millisecond); n < 15 {
			t.Errorf("seed %d: only %d observations >= 10ms; the backlog was not charged to the schedule", seed, n)
		}
		if n := atLeast(base.Hist, 10*time.Millisecond); n != 0 {
			t.Errorf("seed %d: stall-free run recorded %d observations >= 10ms", seed, n)
		}
	}
}

// TestGapDistributions pins the Poisson interarrival generator: the
// arrival count is a pure function of the seed, near Rate × Duration, and
// different seeds draw different schedules (a metronome at the same rate
// would issue the same count for every seed).
func TestGapDistributions(t *testing.T) {
	res := runClocked(t, 3, -1, 0)
	// Poisson at 1000/s over 1s: mean 1000 arrivals, sd ~32. Fifteen sigma
	// of slack keeps this deterministic-in-practice for any seed.
	if res.Issued < 500 || res.Issued > 1500 {
		t.Errorf("poisson issued = %d, want ~1000", res.Issued)
	}
	if two := runClocked(t, 3, -1, 0); two.Issued != res.Issued {
		t.Errorf("same seed issued %d then %d", res.Issued, two.Issued)
	}
	counts := map[int]bool{}
	for seed := int64(1); seed <= 8; seed++ {
		counts[runClocked(t, seed, -1, 0).Issued] = true
	}
	if len(counts) < 3 {
		t.Errorf("8 seeds produced only %d distinct arrival counts; the schedule is not drawn from the seed", len(counts))
	}
}
