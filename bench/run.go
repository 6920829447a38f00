package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"encompass/internal/rollforward"
)

// Run shape. Work is fixed by count: a workload's roundOps is frozen, and
// -seconds only scales it (roundOps × seconds ÷ refSeconds), so every run
// at the benchmark's run_seconds does identical work.
const (
	refSeconds     = 16 // BENCHMARK.json run_seconds; roundOps is sized for it
	setUps         = 5  // fresh systems built; setup_s is the median
	warmupRounds   = 2  // discarded
	measuredRounds = 12 // every timing metric is the median over these
	tracedPairs    = 4  // traced run: this many untraced+traced round pairs
	recoveries     = 9  // Crash/Recover cycles; recover_s is the median
)

// Ops per round at refSeconds, sized so one round takes about
// refSeconds/measuredRounds = 1.33 s on the commit that added the benchmark
// (2-core VM). See README.md, "How the op counts were sized".
const (
	tp1RoundOps      = 5300
	transferRoundOps = 80
	inquiryRoundOps  = 2700
	batchRoundOps    = 620
)

// metric is one reported number. note carries the quartiles and sample
// count printed beside a round median.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	lines             []string // per-kind op accounting, oracle verdicts
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: value, unit: unit})
}

func (r *result) addSummary(name string, s summary, unit string) {
	r.metrics = append(r.metrics, metric{name: name, value: s.Median, unit: unit,
		note: fmt.Sprintf("q1 %.4g q3 %.4g n %d", s.Q1, s.Q3, s.N)})
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// verdict records one oracle check.
func (r *result) verdict(when string, err error) {
	if err != nil {
		r.correct = false
		r.logf("oracle %s: FAIL: %v", when, err)
		return
	}
	r.logf("oracle %s: ok", when)
}

// account prints operations attempted / failed / retried per kind and
// returns how many completed. Any failed op makes the run incorrect: the
// workloads are built so that none fails.
func (r *result) account(total *roundResult, firstErr error) (completed int) {
	for k := opKind(0); k < numKinds; k++ {
		completed += total.attempted[k] - total.failed[k]
		r.attempted += total.attempted[k]
		r.failed += total.failed[k]
		r.logf("ops %-8s attempted %d failed %d retried %d", kindNames[k], total.attempted[k], total.failed[k], total.retried[k])
	}
	if firstErr != nil {
		r.logf("first failure: %v", firstErr)
	}
	if r.failed > 0 {
		r.correct = false
	}
	return completed
}

// roundResult is what one round measured.
type roundResult struct {
	wall time.Duration
	// lat holds, per kind, one latency per acknowledged op in ns: terminal
	// input → END-TRANSACTION reply for updates, the read for inquiries,
	// the Tx.Abort call alone for aborts.
	lat                        [numKinds][]int64
	attempted, failed, retried [numKinds]int
}

func (rr *roundResult) merge(o *roundResult) {
	for k := range rr.lat {
		rr.lat[k] = append(rr.lat[k], o.lat[k]...)
		rr.attempted[k] += o.attempted[k]
		rr.failed[k] += o.failed[k]
		rr.retried[k] += o.retried[k]
	}
}

// runner drives one built system through a schedule.
type runner struct {
	env      *env
	sched    schedule
	outcomes [][][]outcome
	terms    []*terminal
	firstErr error
	errMu    sync.Mutex
}

func newRunner(w *workload, e *env, seed int64, rounds, terms, roundOps int) *runner {
	r := &runner{env: e, sched: genSchedule(w, seed, rounds, terms, roundOps)}
	r.outcomes = make([][][]outcome, rounds)
	for ri := range r.outcomes {
		r.outcomes[ri] = make([][]outcome, terms)
		for t := range r.outcomes[ri] {
			r.outcomes[ri][t] = make([]outcome, len(r.sched[ri][t]))
		}
	}
	for t := 0; t < terms; t++ {
		r.terms = append(r.terms, &terminal{id: t})
	}
	return r
}

// execOp runs one terminal input to its reply, restarting it on a lock
// timeout or system abort as a terminal would.
func (r *runner) execOp(term *terminal, o *op, tag string) (lat time.Duration, retries int, err error) {
	t0 := time.Now()
	for ; ; retries++ {
		switch o.kind {
		case kindUpdate:
			_, err = r.env.app.transact(term, o, tag, false)
			lat = time.Since(t0)
		case kindInquiry:
			err = r.env.app.inquiry(term, o)
			lat = time.Since(t0)
		case kindAbort:
			lat, err = r.env.app.transact(term, o, tag, true)
		}
		if err == nil || retries >= maxRetries || !retryable(err) {
			return lat, retries, err
		}
	}
}

// round runs round ri: every terminal issues its ops in order, closed
// loop, and the round ends when the last terminal has its last reply.
func (r *runner) round(ri int, tr *tracer) roundResult {
	r.env.tr.Store(tr)
	parts := make([]roundResult, len(r.terms))
	for t, ops := range r.sched[ri] {
		for k := range parts[t].lat {
			parts[t].lat[k] = make([]int64, 0, len(ops))
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for t := range r.terms {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			term, part := r.terms[t], &parts[t]
			term.tr = tr
			ops := r.sched[ri][t]
			for i := range ops {
				o := &ops[i]
				tag := ""
				if o.kind != kindInquiry {
					tag = opTag(ri, t, i)
				}
				lat, retries, err := r.execOp(term, o, tag)
				part.attempted[o.kind]++
				part.retried[o.kind] += retries
				if err != nil {
					part.failed[o.kind]++
					r.outcomes[ri][t][i] = failedOp
					r.errMu.Lock()
					if r.firstErr == nil {
						r.firstErr = fmt.Errorf("round %d terminal %d op %d (%s): %w", ri, t, i, kindNames[o.kind], err)
					}
					r.errMu.Unlock()
					continue
				}
				r.outcomes[ri][t][i] = done
				part.lat[o.kind] = append(part.lat[o.kind], int64(lat))
			}
		}(t)
	}
	wg.Wait()
	res := roundResult{wall: time.Since(start)}
	for t := range parts {
		res.merge(&parts[t])
	}
	return res
}

func (r *runner) oracle() error {
	return expected(r.env.app, r.sched, r.outcomes).check(r.env.sys)
}

// setUp builds n fresh systems one after the other, timing each, and
// returns the last one; the others are crashed so their processes exit.
func setUp(w *workload, n int) (*env, []float64, error) {
	var (
		e     *env
		times []float64
	)
	for i := 0; i < n; i++ {
		if e != nil {
			for _, node := range e.sys.Nodes() {
				node.Crash()
			}
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = w.build(); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, times, nil
}

// crashRecover runs n total-failure/ROLLFORWARD cycles of the home node,
// each replaying every round since the archive, and times Crash → Recover
// returns.
func crashRecover(e *env, a *rollforward.Archive, n int) ([]float64, rollforward.Stats, error) {
	var (
		times []float64
		st    rollforward.Stats
	)
	for i := 0; i < n; i++ {
		runtime.GC() // outside the timed window, as between rounds
		t0 := time.Now()
		e.home.Crash()
		var err error
		if st, err = e.home.Recover(a); err != nil {
			return nil, st, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, st, nil
}

func scaledOps(w *workload, seconds int) int {
	n := w.roundOps * seconds / refSeconds
	// At least one op of every kind per terminal (the rarest is 2 %),
	// whatever -seconds is.
	if min := 50 * terminals; n < min {
		n = min
	}
	return n
}

func ms(ns float64) float64 { return ns / 1e6 }

// endToEnd is the untraced run: the only source of end-to-end metrics.
func endToEnd(w *workload, seed int64, seconds int) (*result, error) {
	res := &result{correct: true}
	e, setupTimes, err := setUp(w, setUps)
	if err != nil {
		return nil, err
	}
	r := newRunner(w, e, seed, warmupRounds+measuredRounds, terminals, scaledOps(w, seconds))
	for ri := 0; ri < warmupRounds; ri++ {
		r.round(ri, nil)
	}
	archive := e.home.TakeArchive()

	var (
		total                          roundResult
		tps, txP50, inqP50, backoutP50 []float64
	)
	runtime.GC()
	before := readCounters(e)
	for ri := warmupRounds; ri < warmupRounds+measuredRounds; ri++ {
		rr := r.round(ri, nil)
		runtime.GC() // outside the timed window
		tps = append(tps, float64(len(rr.lat[kindUpdate]))/rr.wall.Seconds())
		txP50 = append(txP50, ms(float64(percentileNs(rr.lat[kindUpdate], 50))))
		inqP50 = append(inqP50, ms(float64(percentileNs(rr.lat[kindInquiry], 50))))
		backoutP50 = append(backoutP50, ms(float64(percentileNs(rr.lat[kindAbort], 50))))
		total.merge(&rr)
	}
	d := readCounters(e).minus(before)

	res.verdict("before crash", r.oracle())
	recoverTimes, _, err := crashRecover(e, archive, recoveries)
	if err != nil {
		return nil, err
	}
	res.verdict("after recovery", r.oracle())
	ops := res.account(&total, r.firstErr)

	res.addSummary("setup_s", summarize(setupTimes), "s")
	res.addSummary("tx_per_s", summarize(tps), "tx/s")
	res.addSummary("tx_p50_ms", summarize(txP50), "ms")
	res.addSummary("inquiry_p50_ms", summarize(inqP50), "ms")
	res.addSummary("backout_p50_ms", summarize(backoutP50), "ms")
	res.addSummary("recover_s", summarize(recoverTimes), "s")
	res.add("allocs_per_op", ratio(d["runtime.mallocs"], float64(ops)), "count")
	res.add("alloc_kb_per_op", ratio(d["runtime.alloc_bytes"]/1024, float64(ops)), "KB")
	res.logf("host.round_iqr_pct %.2f (IQR ÷ median of per-round tx_per_s over %d rounds)", summarize(tps).iqrPct(), len(tps))
	return res, nil
}
