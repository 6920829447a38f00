package workload

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"encompass"
	"encompass/internal/obs"
)

// Body is one terminal transaction, the unit Driver.Run issues. terminal
// identifies the issuing terminal (0 to Terminals-1, stable across the
// run), seq counts that terminal's transactions from zero. A nil error
// counts as committed.
type Body func(terminal, seq int) error

// Driver drives transactions from a population of simulated terminals,
// one goroutine each, the way the paper's front end multiplexes
// terminals into the TMF commit path. It runs in one of two modes:
//
//   - closed loop (Count > 0): each terminal issues its next transaction
//     when the previous one returns. Count is split evenly, the first
//     Count%Terminals terminals running one more, so which terminal runs
//     which transactions does not depend on timing;
//   - open loop (Rate > 0): each terminal issues on its own seeded
//     Poisson schedule, the aggregate Rate divided evenly and the first
//     sends staggered over one mean gap so the population does not
//     arrive as one wave.
//
// The driver is the one place a transaction restarts: a body whose error
// encompass.Restartable accepts (RESTART-TRANSACTION, the paper's
// deadlock-by-timeout rule) runs again as the same (terminal, seq), up
// to Restarts times.
//
// Latency runs from a transaction's intended send time to the return of
// its last attempt. In the open loop the intended times come from the
// schedule, which is never re-anchored to completions: a terminal held
// up by a stall charges the whole backlog to the transactions scheduled
// during it, so the histogram is safe from coordinated omission.
type Driver struct {
	// Terminals is the number of simulated terminals.
	Terminals int
	// Count is the number of transactions of a closed-loop run.
	Count int
	// Rate is the offered load of an open-loop run, in transactions per
	// second over all terminals. Duration is its measured window; Warmup
	// runs first and is left out of every statistic. Seed makes the
	// arrival schedules reproducible.
	Rate             float64
	Duration, Warmup time.Duration
	Seed             int64
	// Restarts bounds how often one transaction is restarted.
	Restarts int
	// Now and Sleep inject a clock for tests; nil means the real one.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Result summarizes a run. An open-loop run counts only transactions
// whose intended send time fell inside the measured window.
type Result struct {
	Issued    int
	Committed int
	Failed    int // gave up: an error that is not restartable, or too many restarts
	Restarts  int
	// Elapsed runs from the start of the measured window to the return of
	// the last straggler, so backlog drained after an open-loop schedule
	// ended still divides the committed count.
	Elapsed time.Duration
	// MaxLag is the open loop's worst schedule slip: how far behind its
	// intended send time a transaction started. Zero means the system
	// kept up with the offered rate.
	MaxLag time.Duration
	// Hist holds one latency observation per issued transaction.
	Hist obs.HistogramSnapshot
}

// TPS returns committed transactions per second over Elapsed.
func (r Result) TPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Run drives body and returns once every terminal has finished, including
// any open-loop backlog.
func (d Driver) Run(body Body) (Result, error) {
	switch {
	case d.Terminals <= 0:
		return Result{}, errors.New("workload: Terminals must be positive")
	case body == nil:
		return Result{}, errors.New("workload: no transaction body")
	case d.Count < 0 || d.Rate < 0 || d.Restarts < 0:
		return Result{}, errors.New("workload: Count, Rate and Restarts must not be negative")
	case (d.Count > 0) == (d.Rate > 0):
		return Result{}, errors.New("workload: set Count for a closed loop or Rate for an open loop")
	case d.Count > 0 && (d.Duration != 0 || d.Warmup != 0):
		return Result{}, errors.New("workload: Duration and Warmup pace an open loop only")
	case d.Rate > 0 && (d.Duration <= 0 || d.Warmup < 0):
		return Result{}, errors.New("workload: an open loop needs a positive Duration and a non-negative Warmup")
	}
	now, sleep := d.Now, d.Sleep
	if now == nil {
		//lint:allow nodeterminism the injectable clock seam: real runs pace schedules and measure latency off the wall clock; tests inject Driver.Now
		now = time.Now
	}
	if sleep == nil {
		sleep = time.Sleep
	}

	start := now()
	from := start.Add(d.Warmup)
	end := from.Add(d.Duration)
	hist := obs.NewHistogram()
	var issued, committed, failed, restarts, maxLag atomic.Int64

	// issue runs the transaction intended at t to its last attempt and
	// records it if t lies in the measured window.
	issue := func(term, seq int, t time.Time) {
		n, err := 0, body(term, seq)
		for err != nil && n < d.Restarts && encompass.Restartable(err) {
			n++
			err = body(term, seq)
		}
		lat := now().Sub(t)
		if t.Before(from) {
			return
		}
		issued.Add(1)
		restarts.Add(int64(n))
		if err == nil {
			committed.Add(1)
		} else {
			failed.Add(1)
		}
		hist.Observe(lat)
	}

	var wg sync.WaitGroup
	for term := range d.Terminals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.Count > 0 {
				n := d.Count / d.Terminals
				if term < d.Count%d.Terminals {
					n++
				}
				for seq := range n {
					issue(term, seq, now())
				}
				return
			}
			mean := time.Duration(float64(d.Terminals) / d.Rate * float64(time.Second))
			rng := rand.New(rand.NewSource(d.Seed + int64(term)*7919))
			next := start.Add(time.Duration(rng.Float64() * float64(mean)))
			for seq := 0; next.Before(end); seq++ {
				if w := next.Sub(now()); w > 0 {
					sleep(w)
				}
				for lag := int64(now().Sub(next)); ; {
					cur := maxLag.Load()
					if lag <= cur || maxLag.CompareAndSwap(cur, lag) {
						break
					}
				}
				issue(term, seq, next)
				next = next.Add(max(time.Duration(rng.ExpFloat64()*float64(mean)), time.Nanosecond))
			}
		}()
	}
	wg.Wait()

	return Result{
		Issued:    int(issued.Load()),
		Committed: int(committed.Load()),
		Failed:    int(failed.Load()),
		Restarts:  int(restarts.Load()),
		Elapsed:   now().Sub(from),
		MaxLag:    time.Duration(maxLag.Load()),
		Hist:      hist.Snapshot(),
	}, nil
}
