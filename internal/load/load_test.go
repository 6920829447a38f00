package load

import (
	"errors"
	"sync"
	"testing"
	"time"

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
	ok := Config{Terminals: 1, Rate: 10, Duration: time.Second, Tx: func(int, int) error { return nil }}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero terminals", func(c *Config) { c.Terminals = 0 }},
		{"negative terminals", func(c *Config) { c.Terminals = -3 }},
		{"zero rate", func(c *Config) { c.Rate = 0 }},
		{"negative rate", func(c *Config) { c.Rate = -1 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"nil tx", func(c *Config) { c.Tx = nil }},
		{"unknown arrival", func(c *Config) { c.Arrival = "uniform" }},
	}
	for _, tc := range cases {
		cfg := ok
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tc.name)
		}
	}
}

func TestThroughputEdgeCases(t *testing.T) {
	if tp := (Result{}).Throughput(); tp != 0 {
		t.Errorf("zero-value Result throughput = %v, want 0", tp)
	}
	if tp := (Result{Committed: 10, Elapsed: -time.Second}).Throughput(); tp != 0 {
		t.Errorf("negative-elapsed throughput = %v, want 0", tp)
	}
	if tp := (Result{Committed: 100, Elapsed: 2 * time.Second}).Throughput(); tp != 50 {
		t.Errorf("throughput = %v, want 50", tp)
	}
}

// runClocked drives one single-terminal run on a fake clock. stallSeq < 0
// disables the injected stall.
func runClocked(t *testing.T, arrival string, seed int64, warmup time.Duration, stallSeq int, stall time.Duration) Result {
	t.Helper()
	clock := newFakeClock()
	hist := obs.NewHistogram()
	res, err := Run(Config{
		Terminals: 1,
		Rate:      1000, // mean gap 1ms
		Arrival:   arrival,
		Duration:  time.Second,
		Warmup:    warmup,
		Seed:      seed,
		Hist:      hist,
		Now:       clock.Now,
		Sleep:     clock.Sleep,
		Tx: func(term, seq int) error {
			if seq == stallSeq {
				clock.Sleep(stall) // the system under test stalls
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFixedScheduleDeterministic pins the open-loop bookkeeping on a
// metronome schedule: same seed, same clock, same counts, and every issued
// transaction lands in the histogram.
func TestFixedScheduleDeterministic(t *testing.T) {
	a := runClocked(t, ArrivalFixed, 7, 0, -1, 0)
	b := runClocked(t, ArrivalFixed, 7, 0, -1, 0)
	if a.Issued != b.Issued || a.Committed != b.Committed || a.Failed != b.Failed {
		t.Errorf("re-run diverged: %+v vs %+v", a, b)
	}
	// 1s at 1ms gaps with a sub-1ms stagger: within one tick of 1000.
	if a.Issued < 999 || a.Issued > 1001 {
		t.Errorf("issued = %d, want ~1000", a.Issued)
	}
	if a.Failed != 0 || a.Committed != a.Issued {
		t.Errorf("committed/failed = %d/%d of %d issued", a.Committed, a.Failed, a.Issued)
	}
	if a.Hist.Count != a.Issued {
		t.Errorf("histogram holds %d observations, issued %d", a.Hist.Count, a.Issued)
	}
	if a.MaxLag != 0 {
		t.Errorf("max lag = %v on an instantaneous system", a.MaxLag)
	}
}

// TestWarmupExcluded: transactions whose intended send time falls inside
// the warmup window must not appear in any recorded statistic. Every
// transaction scheduled during warmup fails; if the warmup exclusion is
// correct, none of those failures is visible in the Result.
func TestWarmupExcluded(t *testing.T) {
	clock := newFakeClock()
	hist := obs.NewHistogram()
	res, err := Run(Config{
		Terminals: 1,
		Rate:      1000,
		Arrival:   ArrivalFixed,
		Duration:  time.Second,
		Warmup:    500 * time.Millisecond,
		Seed:      7,
		Hist:      hist,
		Now:       clock.Now,
		Sleep:     clock.Sleep,
		Tx: func(term, seq int) error {
			if seq < 450 { // all intended sends before the 500ms warmup ends
				return errors.New("warmup-only failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Errorf("%d warmup failures leaked into the measured statistics", res.Failed)
	}
	if res.Issued < 999 || res.Issued > 1001 {
		t.Errorf("issued = %d, want ~1000 over the 1s measured window", res.Issued)
	}
	if res.Committed != res.Issued {
		t.Errorf("committed = %d of %d issued", res.Committed, res.Issued)
	}
	if res.Hist.Count != res.Issued {
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
// across seeds and both arrival schedules, injecting a stall into one
// transaction must (1) leave the issued count identical to the stall-free
// run — the schedule is never re-anchored, so no intended transaction is
// omitted — and (2) charge the stall to the transactions that were
// scheduled during it, which shows up as a burst of latencies far above
// the interarrival gap and as MaxLag close to the stall length.
func TestCoordinatedOmissionGuardFires(t *testing.T) {
	const (
		mean  = time.Millisecond      // 1 terminal at 1000 tx/s
		stall = 50 * time.Millisecond // ~50 intended sends pile up behind it
	)
	for _, arrival := range []string{ArrivalFixed, ArrivalPoisson} {
		for seed := int64(1); seed <= 8; seed++ {
			base := runClocked(t, arrival, seed, 0, -1, 0)
			hit := runClocked(t, arrival, seed, 0, 100, stall)
			if hit.Issued != base.Issued {
				t.Errorf("%s seed %d: stall changed issued count %d -> %d (schedule re-anchored or omitted)",
					arrival, seed, base.Issued, hit.Issued)
			}
			// The stalled transaction itself is charged the full stall.
			if hit.Hist.Max < stall {
				t.Errorf("%s seed %d: max latency %v < stall %v", arrival, seed, hit.Hist.Max, stall)
			}
			// The first backlogged transaction started ~stall-mean late.
			if hit.MaxLag < stall/2 {
				t.Errorf("%s seed %d: max lag %v, want >= %v", arrival, seed, hit.MaxLag, stall/2)
			}
			// A co-omitting harness records ONE slow transaction; the guard
			// must record the whole backlog. With a 50ms stall over 1ms mean
			// gaps, dozens of observations exceed 10ms.
			if n := atLeast(hit.Hist, 10*time.Millisecond); n < 15 {
				t.Errorf("%s seed %d: only %d observations >= 10ms; the backlog was not charged to the schedule",
					arrival, seed, n)
			}
			if n := atLeast(base.Hist, 10*time.Millisecond); n != 0 {
				t.Errorf("%s seed %d: stall-free run recorded %d observations >= 10ms", arrival, seed, n)
			}
		}
	}
}

// TestGapDistributions pins the two interarrival generators.
func TestGapDistributions(t *testing.T) {
	res := runClocked(t, ArrivalPoisson, 3, 0, -1, 0)
	// Poisson at 1000/s over 1s: mean 1000 arrivals, sd ~32. Fifteen sigma
	// of slack keeps this deterministic-in-practice for any seed.
	if res.Issued < 500 || res.Issued > 1500 {
		t.Errorf("poisson issued = %d, want ~1000", res.Issued)
	}
	two := runClocked(t, ArrivalPoisson, 3, 0, -1, 0)
	if two.Issued != res.Issued {
		t.Errorf("same seed issued %d then %d", res.Issued, two.Issued)
	}
	other := runClocked(t, ArrivalPoisson, 4, 0, -1, 0)
	if other.Issued == res.Issued && other.Hist.Sum == res.Hist.Sum && other.MaxLag == res.MaxLag {
		t.Logf("seeds 3 and 4 produced identical summaries (possible but suspicious)")
	}
}
