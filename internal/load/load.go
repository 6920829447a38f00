// Package load is the terminal-scale open-loop load harness. The paper's
// ENCOMPASS front end multiplexes thousands of terminals through
// requesters into the TMF commit path; this package simulates that shape
// directly — one goroutine per terminal, each issuing transactions on its
// own open-loop arrival schedule (Poisson or fixed-rate) — so the system
// can be measured under sustained offered load rather than the closed-loop
// tens-of-transactions runs of T9–T14.
//
// Latency is recorded coordinated-omission-safe: each observation is
// measured from the transaction's INTENDED send time on the arrival
// schedule, not from when the terminal actually got around to issuing it.
// A terminal that falls behind (a stall in the system under test delayed
// its previous transaction) therefore charges the whole backlog delay to
// the transactions that were scheduled during the stall — the schedule is
// never re-anchored to completion times, which is exactly the re-anchoring
// that makes closed-loop benchmarks under-report tail latency.
package load

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/obs"
)

// Arrival schedules.
const (
	// ArrivalPoisson draws exponential interarrival gaps (memoryless
	// terminal think time) — the default.
	ArrivalPoisson = "poisson"
	// ArrivalFixed issues on a strict metronome at the per-terminal rate.
	ArrivalFixed = "fixed"
)

// Tx is one terminal transaction: the body the harness drives. terminal
// identifies the issuing terminal (stable across the run), seq counts that
// terminal's transactions from zero. A nil error counts as committed.
type Tx func(terminal, seq int) error

// Config describes an open-loop run.
type Config struct {
	// Terminals is the number of simulated terminals (one goroutine each).
	Terminals int
	// Rate is the aggregate offered load in transactions per second,
	// divided evenly across terminals.
	Rate float64
	// Arrival selects the interarrival schedule: ArrivalPoisson (default)
	// or ArrivalFixed.
	Arrival string
	// Duration is the measured window; Warmup runs first and is excluded
	// from every recorded statistic.
	Duration time.Duration
	Warmup   time.Duration
	// Seed makes the arrival schedules reproducible.
	Seed int64
	// Tx is the transaction body.
	Tx Tx
	// Hist, when non-nil, receives the coordinated-omission-safe commit
	// latencies.
	Hist *obs.Histogram
	// Now and Sleep inject a clock for tests; nil means the real one.
	Now   func() time.Time
	Sleep func(time.Duration)
}

// Result summarizes a run. Only transactions whose intended send time fell
// inside the measured window are counted.
type Result struct {
	Issued    uint64 // transactions issued in the measured window
	Committed uint64
	Failed    uint64
	// Elapsed spans the start of the measured window to the completion of
	// the last straggler, so Throughput cannot be flattered by backlogged
	// work finishing after the schedule ended.
	Elapsed time.Duration
	// MaxLag is the worst observed schedule slip: how far behind its
	// intended send time a transaction actually started. Zero means the
	// system kept up with the offered rate.
	MaxLag time.Duration
	// Hist is the coordinated-omission-safe latency distribution (zero
	// value when Config.Hist was nil).
	Hist obs.HistogramSnapshot
}

// Throughput returns committed transactions per second over Elapsed.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Committed) / r.Elapsed.Seconds()
}

// Run drives the configured open-loop load and blocks until every terminal
// has worked through its schedule (including any backlog).
func Run(cfg Config) (Result, error) {
	if cfg.Terminals <= 0 {
		return Result{}, errors.New("load: Terminals must be positive")
	}
	if cfg.Rate <= 0 {
		return Result{}, errors.New("load: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return Result{}, errors.New("load: Duration must be positive")
	}
	if cfg.Tx == nil {
		return Result{}, errors.New("load: Tx must be set")
	}
	arrival := cfg.Arrival
	if arrival == "" {
		arrival = ArrivalPoisson
	}
	if arrival != ArrivalPoisson && arrival != ArrivalFixed {
		return Result{}, fmt.Errorf("load: unknown arrival schedule %q", arrival)
	}
	now := cfg.Now
	if now == nil {
		//lint:allow nodeterminism the injectable clock seam: real runs pace schedules and measure latency off the wall clock; DST/tests inject Config.Now
		now = time.Now
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}

	mean := time.Duration(float64(cfg.Terminals) / cfg.Rate * float64(time.Second))
	if mean <= 0 {
		mean = time.Nanosecond
	}
	start := now()
	warmEnd := start.Add(cfg.Warmup)
	end := warmEnd.Add(cfg.Duration)

	var issued, committed, failed atomic.Uint64
	var maxLag atomic.Int64

	var wg sync.WaitGroup
	for term := 0; term < cfg.Terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(term)*7919))
			// Stagger the first intended send uniformly over one mean gap
			// so the terminals don't arrive as one synchronized wave.
			next := start.Add(time.Duration(rng.Float64() * float64(mean)))
			for seq := 0; next.Before(end); seq++ {
				if d := next.Sub(now()); d > 0 {
					sleep(d)
				}
				if lag := now().Sub(next); lag > 0 {
					for {
						cur := maxLag.Load()
						if int64(lag) <= cur || maxLag.CompareAndSwap(cur, int64(lag)) {
							break
						}
					}
				}
				err := cfg.Tx(term, seq)
				// Coordinated-omission guard: latency runs from the
				// INTENDED send time, so backlog spent waiting behind a
				// stalled predecessor is charged to this transaction.
				lat := now().Sub(next)
				if !next.Before(warmEnd) {
					issued.Add(1)
					if err == nil {
						committed.Add(1)
					} else {
						failed.Add(1)
					}
					cfg.Hist.Observe(lat)
				}
				next = next.Add(gap(rng, mean, arrival))
			}
		}(term)
	}
	wg.Wait()

	return Result{
		Issued:    issued.Load(),
		Committed: committed.Load(),
		Failed:    failed.Load(),
		Elapsed:   now().Sub(warmEnd),
		MaxLag:    time.Duration(maxLag.Load()),
		Hist:      cfg.Hist.Snapshot(),
	}, nil
}

// gap draws the next interarrival gap.
func gap(rng *rand.Rand, mean time.Duration, arrival string) time.Duration {
	if arrival == ArrivalFixed {
		return mean
	}
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}
