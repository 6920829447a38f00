package discproc

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/obs"
)

// newTracedEnv builds an env like newEnv but with a configurable audit
// force delay, a lifecycle tracer, and a freely chosen AUDITPROCESS
// address: "audit-1" reaches the real process; any other name makes every
// audit call fail fast, modelling a dead audit path.
func newTracedEnv(t *testing.T, forceDelay time.Duration, auditName string) (*env, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer(0)
	e := newEnvCfg(t, 3, false, func(e *env, c *Config) {
		e.trail = audit.NewTrail("a1", forceDelay)
		if _, err := audit.StartProcess(e.sys, "audit-1", 0, 1, e.trail); err != nil {
			t.Fatal(err)
		}
		c.Audit = audit.NewClient(e.sys, auditName)
		c.Obs = tracer
	})
	return e, tracer
}

// TestFlushAsyncUnderSlowForce pins the reason handleFlush runs the force
// on its own goroutine: while one committer's phase one sleeps through the
// simulated disc latency, the single-goroutine DISCPROCESS must keep
// serving other transactions' operations on the volume.
func TestFlushAsyncUnderSlowForce(t *testing.T) {
	const delay = 80 * time.Millisecond
	e, tracer := newTracedEnv(t, delay, "audit-1")
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	imgs := e.trail.ImagesForUnforced(tx(1))
	if len(imgs) != 1 {
		t.Fatalf("images = %d, want 1", len(imgs))
	}

	flushDone := make(chan error, 1)
	go func() {
		_, err := e.call(t, KindFlush, &TxReq{Tx: tx(1)})
		flushDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the flush reach the DISCPROCESS

	readStart := time.Now()
	e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"})
	if d := time.Since(readStart); d >= delay {
		t.Errorf("read stalled %v behind the in-flight flush (force delay %v)", d, delay)
	}

	select {
	case err := <-flushDone:
		if err != nil {
			t.Fatalf("flush: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush never replied")
	}
	// The reply may only arrive once the images are durable.
	if !e.trail.Forced(imgs[0].LSN) {
		t.Error("flush replied before the trail was forced")
	}
	var served *obs.Event
	for _, ev := range tracer.Trace(tx(1)) {
		if ev.Kind == obs.EvFlushServed {
			cp := ev
			served = &cp
		}
	}
	if served == nil {
		t.Fatal("no EvFlushServed event recorded")
	}
	if served.Err != "" {
		t.Errorf("flush event carries error %q", served.Err)
	}
	if served.Dur < delay {
		t.Errorf("flush event Dur = %v, want >= force delay %v", served.Dur, delay)
	}
}

// TestFlushFailureReported drives the force against a dead audit path: the
// async flush must surface the failure to the committer (not hang, not
// drop the reply) and record it on the trace.
func TestFlushFailureReported(t *testing.T) {
	e, tracer := newTracedEnv(t, 0, "audit-missing")
	e.create(t, "f", dbfile.KeySequenced)
	_, err := e.call(t, KindFlush, &TxReq{Tx: tx(1)})
	if err == nil {
		t.Fatal("flush against a dead audit path should fail")
	}
	var served *obs.Event
	for _, ev := range tracer.Trace(tx(1)) {
		if ev.Kind == obs.EvFlushServed {
			cp := ev
			served = &cp
		}
	}
	if served == nil {
		t.Fatal("no EvFlushServed event recorded for the failed flush")
	}
	if served.Err == "" {
		t.Error("flush event should carry the force error")
	}
}

// TestConcurrentFlushesDurableAtReply overlaps several committers' phase
// ones: every flush reply must arrive only after that transaction's images
// are durable, and overlapping requests should group-commit rather than
// each paying a separate physical force.
func TestConcurrentFlushesDurableAtReply(t *testing.T) {
	const (
		delay = 10 * time.Millisecond
		txs   = 6
	)
	e, _ := newTracedEnv(t, delay, "audit-1")
	e.create(t, "f", dbfile.KeySequenced)
	lastLSN := make([]uint64, txs+1)
	for n := 1; n <= txs; n++ {
		e.mustCall(t, KindInsert, &RecReq{Tx: tx(uint64(n)), File: "f", Key: fmt.Sprintf("k%d", n), Val: []byte("v")})
		imgs := e.trail.ImagesForUnforced(tx(uint64(n)))
		if len(imgs) != 1 {
			t.Fatalf("tx %d: images = %d, want 1", n, len(imgs))
		}
		lastLSN[n] = imgs[0].LSN
	}

	var wg sync.WaitGroup
	errs := make([]error, txs+1)
	durableAtReply := make([]bool, txs+1)
	for n := 1; n <= txs; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.call(t, KindFlush, &TxReq{Tx: tx(uint64(n))})
			errs[n] = err
			durableAtReply[n] = e.trail.Forced(lastLSN[n])
		}()
	}
	wg.Wait()
	for n := 1; n <= txs; n++ {
		if errs[n] != nil {
			t.Errorf("flush %d: %v", n, errs[n])
		}
		if !durableAtReply[n] {
			t.Errorf("flush %d replied before LSN %d was durable", n, lastLSN[n])
		}
	}
	st := e.trail.ForceStats()
	if st.Requests == 0 || st.Forces == 0 {
		t.Fatalf("force stats = %+v, want activity", st)
	}
	if st.Forces > st.Requests {
		t.Errorf("forces %d > requests %d", st.Forces, st.Requests)
	}
}

// TestUndoEmitsTraceEvent checks the backout path's instrumentation: after
// before-images are applied, the trace carries one EvUndoApplied naming
// the volume and image count.
func TestUndoEmitsTraceEvent(t *testing.T) {
	e, tracer := newTracedEnv(t, 0, "audit-1")
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "a", Val: []byte("orig")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	e.mustCall(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "a", WithLock: true})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "a", Val: []byte("dirty")})

	imgs := e.trail.ImagesForUnforced(tx(2))
	rev := make([]audit.Image, len(imgs))
	for i, im := range imgs {
		rev[len(imgs)-1-i] = im
	}
	e.mustCall(t, KindUndo, &UndoReq{Tx: tx(2), Images: rev})

	var undo *obs.Event
	for _, ev := range tracer.Trace(tx(2)) {
		if ev.Kind == obs.EvUndoApplied {
			cp := ev
			undo = &cp
		}
	}
	if undo == nil {
		t.Fatal("no EvUndoApplied event recorded")
	}
	if want := fmt.Sprintf("v1 (%d images)", len(imgs)); undo.Detail != want {
		t.Errorf("undo event detail = %q, want %q", undo.Detail, want)
	}
	r := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "a"})
	if string(r.Payload.(*RecReq).Val) != "orig" {
		t.Errorf("a = %q after undo, want orig", r.Payload.(*RecReq).Val)
	}
}

// TestReadMissNeverInstallsReplacedValue is the stale-fill regression. An
// unlocked read is not ordered against writers by the scheduler, and its
// miss path sleeps through the simulated disc read; a value read before
// the sleep and installed after it would replace, in the cache, what an
// update (or a delete, or a backout) of the same record installed in
// between — and the next locked read would be served the replaced value.
func TestReadMissNeverInstallsReplacedValue(t *testing.T) {
	const penalty = 50 * time.Millisecond
	for _, writer := range []string{"update", "delete", "undo"} {
		t.Run(writer, func(t *testing.T) {
			e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
				c.DiscWorkers, c.CacheSize, c.MissPenalty = 8, 1, penalty
			})
			e.create(t, "f", dbfile.KeySequenced)
			e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("old")})
			e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "other", Val: []byte("x")})
			e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
			// The one cache slot now holds "other": a read of k misses.
			e.mustCall(t, KindLockRec, &RecReq{Tx: tx(2), File: "f", Key: "k"})
			if writer == "undo" {
				e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("dirty")})
				e.mustCall(t, KindRead, &RecReq{File: "f", Key: "other"}) // push k out of the slot again
			}
			misses := e.proc.Stats().CacheStats.Misses
			browsed := make(chan error, 1)
			go func() {
				_, err := e.call(t, KindRead, &RecReq{File: "f", Key: "k"})
				browsed <- err
			}()
			// Once the miss is counted the browse is in its penalty, 50 ms
			// that the writer below needs a fraction of.
			waitFor(t, "the browse to miss", func() bool { return e.proc.Stats().CacheStats.Misses > misses })
			want := "new"
			switch writer {
			case "update":
				e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("new")})
			case "delete":
				e.mustCall(t, KindDelete, &RecReq{Tx: tx(2), File: "f", Key: "k"})
				want = ""
			case "undo":
				e.mustCall(t, KindFreeze, &TxReq{Tx: tx(2)})
				e.mustCall(t, KindUndo, &UndoReq{Tx: tx(2), Images: e.trail.ImagesForUnforced(tx(2))})
				want = "old"
			}
			e.mustCall(t, KindEndTx, &TxReq{Tx: tx(2)})
			if err := <-browsed; err != nil && writer != "delete" {
				t.Fatalf("browse: %v", err)
			}
			r, err := e.call(t, KindRead, &RecReq{Tx: tx(3), File: "f", Key: "k", WithLock: true})
			switch {
			case want == "" && err == nil:
				t.Fatalf("locked read after delete returned %q: the browse's fill resurrected the record", r.Payload.(*RecReq).Val)
			case want != "" && err != nil:
				t.Fatalf("locked read: %v", err)
			case want != "" && string(r.Payload.(*RecReq).Val) != want:
				t.Fatalf("locked read after %s = %q, want %q: the browse's fill replaced the writer's value", writer, r.Payload.(*RecReq).Val, want)
			}
		})
	}
}
