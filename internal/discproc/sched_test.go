package discproc

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// newEnvWorkers builds an env with an explicit worker-pool depth.
func newEnvWorkers(t *testing.T, cpus int, audited bool, workers int) *env {
	t.Helper()
	return newEnvCfg(t, cpus, audited, func(_ *env, c *Config) { c.DiscWorkers = workers })
}

func newBareScheduler() *scheduler {
	s := &scheduler{workers: 4, fileStalls: make(map[string]*obs.Counter)}
	s.work = sync.NewCond(&s.mu)
	s.cond = sync.NewCond(&s.mu)
	return s
}

// schedReq is the property test's own description of a request: the message
// handed to classify is built from it, and so is the reference conflict
// relation the scheduler is checked against.
type schedReq struct {
	class     scope
	file, key string // keyed only
	tx        uint64 // 0 = no transaction
}

// message renders r as one of the request kinds of its class.
func (r schedReq) message(rng *rand.Rand) msg.Message {
	id := txid.ID{}
	if r.tx != 0 {
		id = tx(r.tx)
	}
	switch r.class {
	case scopeKeyed:
		if r.key == "" {
			if rng.Intn(2) == 0 {
				return msg.Message{Kind: KindAppend, Payload: &RecReq{Tx: id, File: r.file}}
			}
			return msg.Message{Kind: KindLockFile, Payload: &RecReq{Tx: id, File: r.file}}
		}
		switch rng.Intn(4) {
		case 0:
			return msg.Message{Kind: KindRead, Payload: &RecReq{Tx: id, File: r.file, Key: r.key, WithLock: true}}
		case 1:
			return msg.Message{Kind: KindUpdate, Payload: &RecReq{Tx: id, File: r.file, Key: r.key}}
		case 2:
			return msg.Message{Kind: KindDelete, Payload: &RecReq{Tx: id, File: r.file, Key: r.key}}
		}
		return msg.Message{Kind: KindLockRec, Payload: &RecReq{Tx: id, File: r.file, Key: r.key}}
	case scopeTx:
		switch rng.Intn(4) {
		case 0:
			return msg.Message{Kind: KindFlush, Payload: &TxReq{Tx: id}}
		case 1:
			return msg.Message{Kind: KindFreeze, Payload: &TxReq{Tx: id}}
		case 2:
			return msg.Message{Kind: KindUndo, Payload: &UndoReq{Tx: id}}
		}
		return msg.Message{Kind: KindEndTx, Payload: &TxReq{Tx: id}}
	}
	switch rng.Intn(4) {
	case 0:
		return msg.Message{Kind: KindCreate, Payload: CreateReq{File: "h"}}
	case 1:
		return msg.Message{Kind: KindReload}
	case 2:
		return msg.Message{Kind: KindEndTx, Payload: &TxReq{}} // nothing to scope it to
	}
	return msg.Message{Kind: KindUpdate, Payload: "malformed"}
}

// conflicts is the specification: wide conflicts with everything, a
// transaction-scoped request with the requests of its transaction, keyed
// requests with each other on the same record (or whole file).
func (r schedReq) conflicts(o schedReq) bool {
	switch {
	case r.class == scopeWide || o.class == scopeWide:
		return true
	case r.class == scopeTx || o.class == scopeTx:
		return r.tx == o.tx
	}
	return r.file == o.file && (r.key == "" || o.key == "" || r.key == o.key)
}

// TestSchedulerAdmissionInvariant is the in-flight footprint property test:
// over random queues of classified requests, random completion orders and
// browses coming and going, pickLocked never admits a job that conflicts
// with an in-flight one, admits conflicting jobs in arrival order — so a
// transaction-scoped job neither overtakes nor runs beside an earlier job
// of its transaction — runs wide jobs alone and only with no browse in
// flight, and holds back nothing else: a transaction-scoped job goes in
// beside other transactions' keyed jobs and beside browses.
func TestSchedulerAdmissionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := []string{"f", "g"}
	keys := []string{"", "k1", "k2", "k3"}
	var txBesideBrowse, txBesideKeyed int
	for round := 0; round < 400; round++ {
		sched := newBareScheduler()
		desc := make(map[*job]schedReq)
		kind := make(map[*job]string)
		var arrivals []*job
		n := 2 + rng.Intn(14)
		for i := 0; i < n; i++ {
			r := schedReq{tx: uint64(1 + rng.Intn(4))}
			switch p := rng.Intn(20); {
			case p == 0:
				r = schedReq{class: scopeWide}
			case p < 6:
				r.class = scopeTx
			default:
				r.class, r.file, r.key = scopeKeyed, files[rng.Intn(len(files))], keys[rng.Intn(len(keys))]
			}
			m := r.message(rng)
			fp, browse := classify(&m)
			if browse || fp.scope != r.class {
				t.Fatalf("classify(%s %+v) = %+v browse=%v, want class %d", m.Kind, m.Payload, fp, browse, r.class)
			}
			j := &job{fp: fp, enqueued: time.Now()}
			desc[j], kind[j] = r, m.Kind
			arrivals = append(arrivals, j)
			sched.queue = append(sched.queue, j)
		}
		admitted := make(map[*job]bool)
		// blocked restates the admission rule from the specification.
		blocked := func(q *job) bool {
			if desc[q].class == scopeWide && (len(sched.inflight) > 0 || sched.browsing > 0) {
				return true
			}
			for _, f := range sched.inflight {
				if desc[q].conflicts(desc[f]) {
					return true
				}
			}
			for _, e := range arrivals {
				if e == q {
					break
				}
				if !admitted[e] && desc[q].conflicts(desc[e]) {
					return true
				}
			}
			return false
		}
		for len(sched.queue) > 0 || len(sched.inflight) > 0 {
			if rng.Intn(3) == 0 {
				sched.browsing = rng.Intn(4)
			}
			j := sched.pickLocked()
			if j != nil {
				// The job is already in sched.inflight; judge it against the
				// state it was admitted into.
				sched.inflight = sched.inflight[:len(sched.inflight)-1]
				if blocked(j) {
					t.Fatalf("round %d: admitted %s %+v against the rule (in flight %d, browsing %d)",
						round, kind[j], desc[j], len(sched.inflight), sched.browsing)
				}
				if desc[j].class == scopeTx {
					if sched.browsing > 0 {
						txBesideBrowse++
					}
					if len(sched.inflight) > 0 {
						txBesideKeyed++
					}
				}
				sched.inflight = append(sched.inflight, j)
				admitted[j] = true
				if len(sched.inflight) < sched.workers && rng.Intn(2) == 0 {
					continue // try to admit more before completing anything
				}
			} else {
				for _, q := range sched.queue {
					if !blocked(q) {
						t.Fatalf("round %d: %s %+v held back with nothing in its way (in flight %d, browsing %d)",
							round, kind[q], desc[q], len(sched.inflight), sched.browsing)
					}
				}
			}
			switch {
			case len(sched.inflight) > 0:
				sched.inflight = remove(sched.inflight, sched.inflight[rng.Intn(len(sched.inflight))])
			case j == nil && sched.browsing > 0:
				sched.browsing = 0 // only a wide head can be waiting: let the browses drain
			case j == nil:
				t.Fatalf("round %d: scheduler stuck with %d queued", round, len(sched.queue))
			}
		}
		if sched.stats.Violations != 0 {
			t.Fatalf("round %d: %d in-flight footprint violations", round, sched.stats.Violations)
		}
	}
	if txBesideBrowse == 0 || txBesideKeyed == 0 {
		t.Fatalf("vacuous run: transaction-scoped admissions beside browses = %d, beside in-flight jobs = %d",
			txBesideBrowse, txBesideKeyed)
	}
}

// TestConflictingOpsNeverConcurrent drives mixed conflicting and
// non-conflicting operations through a DiscWorkers=8 process — keyed work,
// browses, and every transaction-scoped request: each transaction ends by
// flush + endtx or, every third one, by freeze + undo + endtx — and asserts
// the scheduler's own in-flight footprint assertion stayed at zero while
// real parallel admission happened, that no backed-out value survived, and
// that only the create counted as a wide barrier.
func TestConflictingOpsNeverConcurrent(t *testing.T) {
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced)
	const keys = 8
	for k := 0; k < keys; k++ {
		id := tx(uint64(1000 + k))
		e.mustCall(t, KindInsert, &RecReq{Tx: id, File: "f", Key: kname(k), Val: []byte("0")})
		e.mustCall(t, KindEndTx, &TxReq{Tx: id})
	}
	const workers = 8
	const iters = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters*5)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := tx(uint64(1 + w*iters + i))
				key := kname((w + i) % keys) // overlapping key sets conflict across goroutines
				r, err := e.call(t, KindRead, &RecReq{Tx: id, File: "f", Key: key, WithLock: true, LockTimeout: 2 * time.Second})
				if err != nil {
					// Lock timeouts under contention are legal (deadlock
					// prevention by timeout); the transaction just ends.
					if _, err := e.call(t, KindEndTx, &TxReq{Tx: id}); err != nil {
						errs <- fmt.Errorf("endtx after timeout: %w", err)
					}
					continue
				}
				before := r.Payload.(*RecReq).Val
				abort := i%3 == 2
				val := fmt.Sprintf("w%di%d", w, i)
				if abort {
					val = "aborted-" + val
				}
				if _, err := e.call(t, KindUpdate, &RecReq{Tx: id, File: "f", Key: key, Val: []byte(val)}); err != nil {
					errs <- fmt.Errorf("update: %w", err)
				}
				// Browse traffic rides alongside the write pipeline.
				if _, err := e.call(t, KindReadRange, ReadRangeReq{File: "f", Limit: 4}); err != nil {
					errs <- fmt.Errorf("readrange: %w", err)
				}
				if abort {
					if _, err := e.call(t, KindFreeze, &TxReq{Tx: id}); err != nil {
						errs <- fmt.Errorf("freeze: %w", err)
					}
					undo := &UndoReq{Tx: id, Images: []audit.Image{{Tx: id, Volume: "v1", File: "f", Key: key, Kind: audit.ImageUpdate, Before: before}}}
					if _, err := e.call(t, KindUndo, undo); err != nil {
						errs <- fmt.Errorf("undo: %w", err)
					}
				} else if _, err := e.call(t, KindFlush, &TxReq{Tx: id}); err != nil {
					errs <- fmt.Errorf("flush: %w", err)
				}
				if _, err := e.call(t, KindEndTx, &TxReq{Tx: id}); err != nil {
					errs <- fmt.Errorf("endtx: %w", err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := e.proc.Stats()
	if st.Sched.Violations != 0 {
		t.Fatalf("in-flight footprint violations = %d, want 0", st.Sched.Violations)
	}
	if st.Sched.Admitted == 0 || st.Sched.BrowseOps == 0 {
		t.Fatalf("scheduler idle? stats = %+v", st.Sched)
	}
	if st.Sched.Workers != 8 {
		t.Fatalf("Workers = %d, want 8", st.Sched.Workers)
	}
	if st.Sched.WideOps != 1 {
		t.Fatalf("WideOps = %d, want 1 (the create): transaction-scoped requests are not wide", st.Sched.WideOps)
	}
	recs := e.mustCall(t, KindReadRange, ReadRangeReq{File: "f"}).Payload.(ReadRangeResp).Recs
	if len(recs) != keys {
		t.Fatalf("%d records, want %d", len(recs), keys)
	}
	for _, rec := range recs {
		if strings.HasPrefix(string(rec.Val), "aborted-") {
			t.Errorf("%s = %q: a backed-out value survived", rec.Key, rec.Val)
		}
		if v, err := e.vol.Read("f", rec.Key); err != nil || string(v) != string(rec.Val) {
			t.Errorf("%s: volume holds %q (%v), file %q", rec.Key, v, err, rec.Val)
		}
	}
}

// TestTxScopedOpsDoNotWaitForBrowses is the liveness regression for the
// transaction-scoped class: with three browses overlapping in their miss
// penalty the volume is never browse-free, and flush, freeze, undo and
// endtx — which used to wait for exactly that — are served at once.
func TestTxScopedOpsDoNotWaitForBrowses(t *testing.T) {
	const penalty = 3 * time.Millisecond
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers, c.CacheSize, c.MissPenalty = 8, 0, penalty
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "browsed", Val: []byte("b")})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("orig")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	e.mustCall(t, KindLockRec, &RecReq{Tx: tx(2), File: "f", Key: "k"})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("dirty")})
	undo := &UndoReq{Tx: tx(2), Images: e.trail.ImagesForUnforced(tx(2))}

	stop := e.loopBrowsers(t, 3, penalty, "f", "browsed")
	defer stop()
	const bound = 50 * time.Millisecond
	e.promptly(t, bound, KindFlush, &TxReq{Tx: tx(2)})
	e.promptly(t, bound, KindFreeze, &TxReq{Tx: tx(2)})
	e.promptly(t, bound, KindUndo, undo)
	e.promptly(t, bound, KindEndTx, &TxReq{Tx: tx(2)})

	if v := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"}).Payload.(*RecReq).Val; string(v) != "orig" {
		t.Errorf("k = %q after backout, want orig", v)
	}
	if held := e.proc.LocksSnapshot(); len(held) != 0 {
		t.Errorf("locks still held after endtx: %v", held)
	}
}

// TestWideOpsNotStarvedByBrowses: what stays wide still has to wait for
// browses to drain, so a queued wide job and a quiesce hold new browses at
// the door. Four browses overlapping in a 3 ms miss penalty used to keep a
// create — and a Snapshot, when a new backup is seeded — waiting for as
// long as they kept coming.
func TestWideOpsNotStarvedByBrowses(t *testing.T) {
	const penalty = 3 * time.Millisecond
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers, c.CacheSize, c.MissPenalty = 8, 0, penalty
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "browsed", Val: []byte("b")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})

	stop := e.loopBrowsers(t, 4, penalty, "f", "browsed")
	defer stop()
	const bound = 100 * time.Millisecond
	if _, err := e.callWithin(bound, KindCreate, CreateReq{File: "g", Org: dbfile.KeySequenced}); err != nil {
		t.Fatalf("create under looping browses not served within %v: %v", bound, err)
	}
	snapped := make(chan struct{})
	go func() {
		e.proc.primApp.Load().Snapshot()
		close(snapped)
	}()
	select {
	case <-snapped:
	case <-time.After(bound):
		t.Fatalf("Snapshot under looping browses not taken within %v", bound)
	}
	// The door opens again afterwards: browses are still being served.
	before := e.proc.Stats().Sched.BrowseOps
	waitFor(t, "a browse to be served after the wide operations ran", func() bool {
		return e.proc.Stats().Sched.BrowseOps > before
	})
}

func kname(k int) string { return fmt.Sprintf("k%03d", k) }

// TestBrowseCompletesWhileFileLockHeld pins the browse fast path's defining
// property (and the DefaultLockTimeout bugfix): range scans, alternate-key
// reads and unlocked reads never park on the lock manager, so they complete
// while another transaction holds the file lock.
func TestBrowseCompletesWhileFileLockHeld(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newEnvWorkers(t, 4, true, workers)
			e.create(t, "f", dbfile.KeySequenced, dbfile.AltKeyDef{Name: "grp", Offset: 0, Len: 1})
			seed := tx(500)
			e.mustCall(t, KindInsert, &RecReq{Tx: seed, File: "f", Key: "k1", Val: []byte("a1")})
			e.mustCall(t, KindInsert, &RecReq{Tx: seed, File: "f", Key: "k2", Val: []byte("b2")})
			e.mustCall(t, KindEndTx, &TxReq{Tx: seed})

			holder := tx(501)
			e.mustCall(t, KindLockFile, &RecReq{Tx: holder, File: "f"})

			waitsBefore := e.proc.Stats().LockStats.Waits
			done := make(chan error, 3)
			go func() {
				_, err := e.call(t, KindReadRange, ReadRangeReq{File: "f", Limit: 10})
				done <- err
			}()
			go func() {
				_, err := e.call(t, KindReadAlt, ReadAltReq{File: "f", AltKey: "grp", Value: "a"})
				done <- err
			}()
			go func() {
				_, err := e.call(t, KindRead, &RecReq{File: "f", Key: "k1"}) // unlocked
				done <- err
			}()
			for i := 0; i < 3; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("browse under file lock: %v", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("browse request blocked behind a held file lock")
				}
			}
			if waits := e.proc.Stats().LockStats.Waits; waits != waitsBefore {
				t.Fatalf("browse requests parked on the lock manager (%d new waits)", waits-waitsBefore)
			}
			// The file lock is still held; a locked read must still wait.
			_, err := e.call(t, KindRead, &RecReq{Tx: tx(502), File: "f", Key: "k1", WithLock: true, LockTimeout: 30 * time.Millisecond})
			if !errors.Is(err, ErrLockTimeout) {
				t.Fatalf("locked read under file lock: err = %v, want timeout", err)
			}
			e.mustCall(t, KindEndTx, &TxReq{Tx: holder})
		})
	}
}

// TestAppendParksBehindFileLock is the regression for the silent unlocked
// append: with another transaction holding the file lock, an append must
// park (and time out under its own LockTimeout) instead of ignoring the
// refused grant and writing anyway — which is what the seed did.
func TestAppendParksBehindFileLock(t *testing.T) {
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "h", dbfile.EntrySequenced)
	holder := tx(600)
	e.mustCall(t, KindLockFile, &RecReq{Tx: holder, File: "h"})

	_, err := e.call(t, KindAppend, &RecReq{Tx: tx(601), File: "h", Val: []byte("x"), LockTimeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("append under foreign file lock: err = %v, want lock timeout", err)
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: holder})
	// No record may have been written by the refused append.
	r := e.mustCall(t, KindReadRange, ReadRangeReq{File: "h", Limit: 10})
	if recs := r.Payload.(ReadRangeResp).Recs; len(recs) != 0 {
		t.Fatalf("refused append left %d records behind", len(recs))
	}
	// With the lock released, appends proceed again.
	e.mustCall(t, KindAppend, &RecReq{Tx: tx(602), File: "h", Val: []byte("y")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(602)})
}

// parks reports how many requests have parked on a lock wait so far: every
// park takes a token, and only a parked request is resumed by a
// continuation message.
func (e *env) parks() uint64 {
	a := e.proc.primApp.Load()
	a.pendMu.Lock()
	defer a.pendMu.Unlock()
	return a.nextToken
}

// lockingReqs is one locked read, one insert and one record-lock request,
// each by its own transaction from first on: the read of f/r, the insert of
// f/<ins>, the record lock on f/<rec>.
func lockingReqs(first uint64, ins, rec string) []msg.Message {
	return []msg.Message{
		{Kind: KindRead, Payload: &RecReq{Tx: tx(first), File: "f", Key: "r", WithLock: true}},
		{Kind: KindInsert, Payload: &RecReq{Tx: tx(first + 1), File: "f", Key: ins, Val: []byte("new")}},
		{Kind: KindLockRec, Payload: &RecReq{Tx: tx(first + 2), File: "f", Key: rec}},
	}
}

// TestFreeLockTakenInline: a locked read, an insert and a record-lock
// request on free records take their locks inline — none parks, so no
// continuation message is sent, the lock manager queues no waiter, and the
// scheduler admits each request once. While another transaction holds
// those records the same three requests park, and all complete once it
// releases its locks. (TestAppendParksBehindFileLock is the append case.)
func TestFreeLockTakenInline(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := newEnvWorkers(t, 4, true, workers)
			e.create(t, "f", dbfile.KeySequenced)
			e.mustCall(t, KindInsert, &RecReq{Tx: tx(800), File: "f", Key: "r", Val: []byte("v")})
			e.mustCall(t, KindEndTx, &TxReq{Tx: tx(800)})

			parks, waits, enqueued := e.parks(), e.proc.Stats().LockStats.Waits, e.proc.Stats().Sched.Enqueued
			for _, r := range lockingReqs(801, "n1", "l1") {
				e.mustCall(t, r.Kind, r.Payload)
			}
			if got := e.parks(); got != parks {
				t.Errorf("%d requests on free records parked, want 0", got-parks)
			}
			if got := e.proc.Stats().LockStats.Waits; got != waits {
				t.Errorf("%d lock waits for free records, want 0", got-waits)
			}
			if got := e.proc.Stats().Sched.Enqueued - enqueued; workers > 1 && got != 3 {
				t.Errorf("3 requests were enqueued %d times, want 3", got)
			}
			for id := uint64(801); id <= 803; id++ {
				e.mustCall(t, KindEndTx, &TxReq{Tx: tx(id)})
			}

			holder := tx(810)
			for _, key := range []string{"r", "n2", "l2"} {
				e.mustCall(t, KindLockRec, &RecReq{Tx: holder, File: "f", Key: key})
			}
			parks, waits = e.parks(), e.proc.Stats().LockStats.Waits
			done := make(chan error, 3)
			for _, r := range lockingReqs(811, "n2", "l2") {
				go func() {
					_, err := e.call(t, r.Kind, r.Payload)
					done <- err
				}()
			}
			waitFor(t, "three lock waits", func() bool { return e.proc.Stats().LockStats.Waits == waits+3 })
			if got := e.parks(); got != parks+3 {
				t.Errorf("%d of 3 requests on held records parked", got-parks)
			}
			select {
			case err := <-done:
				t.Fatalf("request on a held record returned before the release: %v", err)
			case <-time.After(20 * time.Millisecond):
			}
			e.mustCall(t, KindEndTx, &TxReq{Tx: holder})
			for i := 0; i < 3; i++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("parked request after the release: %v", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("parked request never granted after the release")
				}
			}
			if v := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "n2"}).Payload.(*RecReq).Val; string(v) != "new" {
				t.Errorf("parked insert wrote %q, want new", v)
			}
		})
	}
}

// TestParkedRequestCountsOneOp: Stats.Ops counts client requests. A locked
// read that parks behind another transaction's lock and is granted on its
// release is one op; its continuation message is not another.
func TestParkedRequestCountsOneOp(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(900), File: "f", Key: "k", Val: []byte("v")})
	ops, parks := e.proc.Stats().Ops, e.parks()
	done := make(chan error, 1)
	go func() {
		_, err := e.call(t, KindRead, &RecReq{Tx: tx(901), File: "f", Key: "k", WithLock: true})
		done <- err
	}()
	waitFor(t, "the locked read to park", func() bool { return e.parks() == parks+1 })
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(900)})
	if err := <-done; err != nil {
		t.Fatalf("locked read after the release: %v", err)
	}
	if got := e.proc.Stats().Ops - ops; got != 2 {
		t.Errorf("Ops rose by %d for a parked locked read and an endtx, want 2", got)
	}
}

// TestRecycledJobsAnswerTheirOwnRequest: the scheduler reuses a job as
// soon as its dispatch returns, while a parked request and a flush answer
// later, through copies of their contexts. Concurrent clients run locked
// reads, updates, a flush and an endtx per transaction on a key of their
// own and on one of two shared keys, so many requests park and resume, and
// then browse their own key. Every reply must answer the request it came
// back to: the same kind, and for a read the value last committed under
// that key. (Also run under -race -count=10.)
func TestRecycledJobsAnswerTheirOwnRequest(t *testing.T) {
	const clients, rounds = 8, 40
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced)
	var (
		mu        sync.Mutex
		committed = map[string]string{} // guarded by mu; written while its key is locked
	)
	keys := []string{"shared0", "shared1"}
	for c := 0; c < clients; c++ {
		keys = append(keys, fmt.Sprintf("own%d", c))
	}
	for _, k := range keys {
		e.mustCall(t, KindInsert, &RecReq{Tx: tx(1000), File: "f", Key: k, Val: []byte("init")})
		committed[k] = "init"
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1000)})

	parks := e.parks()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ask := func(kind string, payload any) (msg.Message, bool) {
				r, err := e.call(t, kind, payload)
				if err != nil {
					t.Errorf("client %d %s: %v", c, kind, err)
					return r, false
				}
				if r.Kind != kind {
					t.Errorf("client %d sent %s and got the reply to a %s", c, kind, r.Kind)
					return r, false
				}
				return r, true
			}
			for round := 0; round < rounds; round++ {
				id := tx(uint64(2000 + c*rounds + round))
				own, shared := keys[2+c], keys[(c+round)%2]
				val := fmt.Sprintf("c%d-r%d", c, round)
				for _, k := range []string{own, shared} {
					r, ok := ask(KindRead, &RecReq{Tx: id, File: "f", Key: k, WithLock: true})
					if !ok {
						return
					}
					mu.Lock()
					want := committed[k]
					mu.Unlock()
					if resp, _ := r.Payload.(*RecReq); string(resp.Val) != want {
						t.Errorf("client %d locked read of %s answered %v, want %q", c, k, r.Payload, want)
						return
					}
				}
				for _, k := range []string{own, shared} {
					if r, ok := ask(KindUpdate, &RecReq{Tx: id, File: "f", Key: k, Val: []byte(val)}); !ok {
						return
					} else if r.Payload != nil {
						t.Errorf("client %d update of %s answered %v", c, k, r.Payload)
						return
					}
					mu.Lock()
					committed[k] = val
					mu.Unlock()
				}
				for _, kind := range []string{KindFlush, KindEndTx} {
					var payload any = &TxReq{Tx: id}
					if kind == KindFlush {
						payload = &TxReq{Tx: id}
					}
					if _, ok := ask(kind, payload); !ok {
						return
					}
				}
				// A browse rides a recycled job as well; no one else writes own.
				r, ok := ask(KindRead, &RecReq{File: "f", Key: own})
				if !ok {
					return
				}
				if resp, _ := r.Payload.(*RecReq); string(resp.Val) != val {
					t.Errorf("client %d browse of %s answered %v, want %q", c, own, r.Payload, val)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if e.parks() == parks {
		t.Error("no request parked, so no resumed request was checked")
	}
}

// TestSerialModeMatchesSeedShape: DiscWorkers=1 keeps the seed's inline
// dispatch — no scheduler, no browse goroutines — while still serving the
// same requests.
func TestSerialModeMatchesSeedShape(t *testing.T) {
	e := newEnvWorkers(t, 4, true, 1)
	e.create(t, "f", dbfile.KeySequenced)
	id := tx(700)
	e.mustCall(t, KindInsert, &RecReq{Tx: id, File: "f", Key: "k", Val: []byte("v")})
	e.mustCall(t, KindReadRange, ReadRangeReq{File: "f", Limit: 1})
	e.mustCall(t, KindEndTx, &TxReq{Tx: id})
	st := e.proc.Stats()
	if st.Sched.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", st.Sched.Workers)
	}
	if st.Sched.Enqueued != 0 || st.Sched.BrowseOps != 0 {
		t.Fatalf("serial mode used the scheduler: %+v", st.Sched)
	}
}

// The wake-path tests pin the scheduler's one-wake rule: each event that
// can make a job admissible wakes one idle worker, and the events that
// must wake them all (resume, a closed pool) do.

// TestSerialStreamWakesOneWorkerPerJob: eight workers serving one request
// at a time wake about once per request, not once per idle worker.
func TestSerialStreamWakesOneWorkerPerJob(t *testing.T) {
	const n = 200
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced)
	before := e.proc.Stats().Sched
	for i := 0; i < n; i++ {
		e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: kname(i), Val: []byte("v")})
	}
	after := e.proc.Stats().Sched
	if got := after.Admitted - before.Admitted; got != n {
		t.Fatalf("admitted %d jobs, want %d", got, n)
	}
	if wakes := after.Wakeups - before.Wakeups; wakes > n*11/10 {
		t.Errorf("%d worker wakeups for %d serial requests, want at most %d", wakes, n, n*11/10)
	}
}

// TestOneCompletionRunsTwoQueuedJobs: a file lock holds a worker while two
// locked reads of records in that file queue behind it; they conflict with
// the file lock but not with each other. The worker that finishes the file
// lock takes one read and must wake another for the second, so both are
// under way together. The hold is OnParticipate, which every request of
// transaction 800 calls on its worker.
func TestOneCompletionRunsTwoQueuedJobs(t *testing.T) {
	var calls atomic.Int32
	entered := make(chan struct{}, 3)
	releaseFile, releaseReads := make(chan struct{}), make(chan struct{})
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers = 8
		c.OnParticipate = func(id txid.ID, _ string) error {
			if id != tx(800) {
				return nil
			}
			entered <- struct{}{}
			if calls.Add(1) == 1 {
				<-releaseFile
			} else {
				<-releaseReads
			}
			return nil
		}
	})
	defer close(releaseReads)
	e.create(t, "f", dbfile.KeySequenced)
	for _, k := range []string{"k1", "k2"} {
		e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: k, Val: []byte("v")})
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})

	enqueued := e.proc.Stats().Sched.Enqueued
	done := make(chan error, 3)
	send := func(kind string, payload any) {
		go func() { _, err := e.call(t, kind, payload); done <- err }()
	}
	send(KindLockFile, &RecReq{Tx: tx(800), File: "f"})
	<-entered
	send(KindRead, &RecReq{Tx: tx(800), File: "f", Key: "k1", WithLock: true})
	send(KindRead, &RecReq{Tx: tx(800), File: "f", Key: "k2", WithLock: true})
	waitFor(t, "both reads to queue behind the file lock", func() bool {
		return e.proc.Stats().Sched.Enqueued == enqueued+3
	})
	close(releaseFile)
	for i := 0; i < 2; i++ {
		select {
		case <-entered:
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of the two unblocked reads started; the other waits behind it", i)
		}
	}
	releaseReads <- struct{}{}
	releaseReads <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(800)})
}

// TestWideJobRunsWhenBrowseEnds: a wide job queued behind an in-flight
// browse is admitted as soon as that browse ends; nothing else happens on
// the volume that would wake a worker for it.
func TestWideJobRunsWhenBrowseEnds(t *testing.T) {
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced)
	s := e.proc.primApp.Load().sched
	stalls := e.proc.Stats().Sched.ConflictStalls
	s.startBrowse()
	done := make(chan error, 1)
	go func() {
		_, err := e.call(t, KindCreate, CreateReq{File: "g", Org: dbfile.KeySequenced})
		done <- err
	}()
	waitFor(t, "the create to stall behind the browse", func() bool {
		return e.proc.Stats().Sched.ConflictStalls > stalls
	})
	s.endBrowse(new(job))
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("create: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the create was not admitted after the browse ended")
	}
}

// TestJobsQueuedDuringQuiesceRunAfterResume: requests that arrive while a
// Snapshot has the pool quiesced wait, and all of them run on resume.
func TestJobsQueuedDuringQuiesceRunAfterResume(t *testing.T) {
	const n = 3
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced)
	before := e.proc.Stats().Sched
	enqueued, admitted := before.Enqueued, before.Admitted
	resume := e.proc.primApp.Load().sched.quiesce()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := e.call(t, KindInsert, &RecReq{Tx: tx(uint64(10 + i)), File: "f", Key: kname(i), Val: []byte("v")})
			done <- err
		}(i)
	}
	waitFor(t, "the requests to queue", func() bool {
		return e.proc.Stats().Sched.Enqueued == enqueued+n
	})
	if got := e.proc.Stats().Sched.Admitted; got != admitted {
		t.Fatalf("%d jobs admitted while quiesced", got-admitted)
	}
	resume()
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d requests queued during quiesce ran after resume", i, n)
		}
	}
}

// TestWorkersEndWithTheirCPU: when the serving member's CPU fails, every
// worker goroutine of its pool returns.
func TestWorkersEndWithTheirCPU(t *testing.T) {
	before := schedWorkers()
	e := newEnvWorkers(t, 4, true, 8)
	e.create(t, "f", dbfile.KeySequenced) // the first request spawns the pool
	var ours []string
	waitFor(t, "the pool's 8 workers to start", func() bool {
		ours = ours[:0]
		for id := range schedWorkers() {
			if !before[id] {
				ours = append(ours, id)
			}
		}
		return len(ours) == 8
	})
	e.sys.Node().FailCPU(0)
	waitFor(t, "the pool's workers to return", func() bool {
		now := schedWorkers()
		for _, id := range ours {
			if now[id] {
				return false
			}
		}
		return true
	})
}

// schedWorkers returns the ids of the goroutines in a scheduler's worker
// loop. Goroutine ids are never reused.
func schedWorkers() map[string]bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "discproc.(*scheduler).run(") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}
