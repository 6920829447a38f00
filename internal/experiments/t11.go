package experiments

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"time"

	"encompass"
	"encompass/internal/discproc"
	"encompass/internal/obs"
)

const (
	t11Accounts    = 256
	t11HotKeys     = 4
	t11Goroutines  = 8
	t11OpsPer      = 250
	t11CacheSize   = 32
	t11MissPenalty = 150 * time.Microsecond
)

// t11Mix describes one workload mix: which operations are
// read-modify-write transactions; the rest are browse reads.
type t11Mix struct {
	name    string
	writeOp func(i int) bool // does op i write?
}

var t11Mixes = []t11Mix{
	{name: "read-heavy (90% browse)", writeOp: func(i int) bool { return i%10 == 0 }},
	{name: "write-heavy (90% RMW)", writeOp: func(i int) bool { return i%10 != 0 }},
}

// t11Run drives one mix at one worker depth on a fresh single-volume node
// and returns the elapsed time, the final volume contents, the count of
// Figure-3-validated traces, and the node registry (for the scheduler's
// queue-wait histogram).
func t11Run(r *Report, mix t11Mix, workers int) (time.Duration, map[string]map[string][]byte, int, *obs.Registry, error) {
	sys, files, err := r.build(cluster{cache: t11CacheSize, miss: t11MissPenalty, workers: workers, trace: 32768})
	if err != nil {
		return 0, nil, 0, nil, err
	}
	node, f := sys.Node("a"), files[0]
	seed, err := node.Begin()
	if err != nil {
		return 0, nil, 0, nil, err
	}
	for a := 0; a < t11Accounts; a++ {
		if err := seed.Insert(f, fmt.Sprintf("a%04d", a), []byte(fmt.Sprintf("bal-%04d", a))); err != nil {
			return 0, nil, 0, nil, err
		}
	}
	for h := 0; h < t11HotKeys; h++ {
		if err := seed.Insert(f, fmt.Sprintf("hot-%d", h), []byte("0")); err != nil {
			return 0, nil, 0, nil, err
		}
	}
	if err := seed.Commit(); err != nil {
		return 0, nil, 0, nil, err
	}

	errs := make(chan error, t11Goroutines)
	start := time.Now()
	for g := range t11Goroutines {
		go func() {
			rng := rand.New(rand.NewSource(int64(9000 + g)))
			for i := range t11OpsPer {
				var err error
				if mix.writeOp(i) {
					err = t11Write(node, f, g, i)
				} else {
					// Browse read: no transaction, no lock — the fast path.
					_, err = node.FS.Read(f, fmt.Sprintf("a%04d", rng.Intn(t11Accounts)))
				}
				if err != nil {
					errs <- fmt.Errorf("g%d op%d: %w", g, i, err)
					return
				}
			}
			errs <- nil
		}()
	}
	for range t11Goroutines {
		if err := <-errs; err != nil {
			return 0, nil, 0, nil, err
		}
	}
	elapsed := time.Since(start)

	// Figure 3 oracle over every captured trace, plus the runtime checker.
	tr := node.TMF.Tracer()
	validated := 0
	for _, id := range tr.Transactions() {
		if err := obs.CheckTrace(tr.Trace(id)); err != nil {
			return 0, nil, 0, nil, fmt.Errorf("trace oracle (workers=%d): %w", workers, err)
		}
		validated++
	}
	if vs := node.TMF.Checker().Violations(); len(vs) > 0 {
		return 0, nil, 0, nil, fmt.Errorf("runtime checker (workers=%d): %d violations, first: %s", workers, len(vs), vs[0])
	}
	if st := node.Volumes["v-a"].Proc.Stats(); st.Sched.Violations != 0 {
		return 0, nil, 0, nil, fmt.Errorf("scheduler (workers=%d): %d in-flight footprint violations", workers, st.Sched.Violations)
	}
	return elapsed, node.Volumes["v-a"].Disk.Snapshot(), validated, node.TMF.Registry(), nil
}

// t11Write runs one deterministic read-modify-write transaction:
// a commutative delta on a shared hot record plus an insert under a
// goroutine-private key, retrying on lock timeout.
func t11Write(node *encompass.Node, f string, g, i int) error {
	for attempt := 0; ; attempt++ {
		tx, err := node.Begin()
		if err != nil {
			return err
		}
		hot := fmt.Sprintf("hot-%d", (g+i)%t11HotKeys)
		cur, err := tx.ReadLock(f, hot)
		if err != nil {
			_ = tx.Abort("lock timeout")
			if attempt > 50 {
				return fmt.Errorf("starved on %s after %d retries", hot, attempt)
			}
			continue
		}
		n, err := strconv.Atoi(string(cur))
		if err != nil {
			return fmt.Errorf("hot record corrupt: %q", cur)
		}
		if err := tx.Update(f, hot, []byte(strconv.Itoa(n+g*17+i%5+1))); err != nil {
			return err
		}
		if err := tx.Insert(f, fmt.Sprintf("own-g%d-i%05d", g, i), []byte("w")); err != nil {
			return err
		}
		return tx.Commit()
	}
}

// T11 measures conflict-aware intra-volume parallelism in the
// multithreaded DISCPROCESS.
//
// The paper's DISCPROCESS serves its volume from a single process; every
// read pays the disc (or cache) latency in sequence. The scheduler added
// here runs non-conflicting operations concurrently on a bounded worker
// pool while conflicting and volume-wide operations keep their arrival
// order, and browse accesses bypass the write pipeline entirely — so a
// read-heavy mix overlaps its disc reads almost perfectly, while a
// write-heavy mix is bounded by commit forces and hot-record conflicts.
// Correctness is asserted, not assumed: each parallel run must leave
// byte-identical volume contents to its single-threaded twin, pass the
// Figure 3 trace oracle, and record zero in-flight footprint violations.
func t11(r *Report) error {
	const workers = discproc.DefaultDiscWorkers
	r.Columns = []string{"mix", "discworkers", "ops", "elapsed", "ops/sec", "speedup", "state vs serial"}
	ops := t11Goroutines * t11OpsPer
	pass := true
	var readSpeedup float64
	for mi, mix := range t11Mixes {
		serial, serialSnap, _, _, err := t11Run(r, mix, 1)
		if err != nil {
			return err
		}
		par, parSnap, validated, reg, err := t11Run(r, mix, workers)
		if err != nil {
			return err
		}
		stateOK := reflect.DeepEqual(serialSnap, parSnap)
		pass = pass && stateOK
		speedup := float64(serial) / float64(max(par, 1))
		if mi == 0 {
			readSpeedup = speedup
		}
		rate := func(d time.Duration) string { return f2s(float64(ops) / d.Seconds()) }
		r.Rows = append(r.Rows,
			[]string{mix.name, "1 (seed)", i2s(ops), dur(serial), rate(serial), "1.0x", "-"},
			[]string{mix.name, i2s(workers), i2s(ops), dur(par), rate(par),
				fmt.Sprintf("%.1fx", speedup), map[bool]string{true: "identical", false: "DIVERGED"}[stateOK]},
		)
		qw := reg.Histogram(obs.MDiscQueueWait("v-a")).Snapshot()
		r.Notes = append(r.Notes, fmt.Sprintf("%s: queue wait (workers=%d) %s; %d traces validated",
			mix.name, workers, qw.Summary(), validated))
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"browse fast path overlaps the %s simulated disc reads; read-heavy speedup %.1fx at %d workers (claim: >= 2x)",
		t11MissPenalty, readSpeedup, workers))
	r.Pass = pass && readSpeedup >= 2.0
	return nil
}
