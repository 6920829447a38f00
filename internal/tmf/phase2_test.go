package tmf

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/discproc"
	"encompass/internal/expand"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// Tests of END-TRANSACTION returning at the commit point: phase two runs
// behind the reply, so "phase two outstanding" is a state of its own that
// can be observed (Stats.Phase2Outstanding, SafeQueueDepth) and waited for
// (WaitSafeQueueEmpty).

// TestEndReturnsAtCommitPoint severs the home→child line between phase one
// and the commit record. End must report the commit without waiting for a
// child it cannot reach, the child must stay in doubt with its lock held,
// and once the line is back the outcome must arrive by itself.
func TestEndReturnsAtCommitPoint(t *testing.T) {
	cases := []struct {
		name        string
		sever, heal func(net *expand.Network)
		// inFlight: the line swallows frames silently, so the first ENDED
		// attempt neither succeeds nor fails until the call times out (when
		// End waited for it, End took criticalCallTimeout). Otherwise the
		// attempt fails at once and the message falls to the safe queue.
		inFlight bool
	}{
		{
			name:  "failed line",
			sever: func(net *expand.Network) { net.FailLink("a", "b") },
			heal:  func(net *expand.Network) { net.HealLink("a", "b") },
		},
		{
			name: "silent line",
			sever: func(net *expand.Network) {
				if err := net.SetLinkFault("a", "b", expand.FaultProfile{Loss: 1, Seed: 1}); err != nil {
					panic(err)
				}
			},
			heal:     func(net *expand.Network) { net.ClearLinkFaults() },
			inFlight: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, net := testCluster(t, "a", "b")
			a, b := nodes["a"], nodes["b"]
			a.mon.tracer = obs.NewTracer(16) // the cluster is idle: nothing reads the field yet

			tx, _ := a.mon.Begin(0)
			if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
				t.Fatal(err)
			}
			a.insert(t, "b", tx, "k", "v")

			a.mon.SetPhase1Hook(func(txid.ID) { tc.sever(net) })
			start := time.Now()
			if err := a.mon.End(tx); err != nil {
				t.Fatalf("End: %v (phase one completed, so the commit must stand)", err)
			}
			if d := time.Since(start); d > criticalCallTimeout/2 {
				t.Errorf("End took %v: it waited for a child it cannot reach", d)
			}
			a.mon.SetPhase1Hook(nil)

			if tc.inFlight {
				if st := a.mon.Stats(); st.Phase2Outstanding != 1 {
					t.Errorf("Phase2Outstanding = %d with the ENDED attempt in flight, want 1", st.Phase2Outstanding)
				}
				if g := a.mon.Registry().Gauge(obs.MPhase2Outstanding).Value(); g != 1 {
					t.Errorf("%s gauge = %d, want 1", obs.MPhase2Outstanding, g)
				}
			} else {
				// The failed attempt falls to the safe queue, and says so in
				// the trace exactly as it did when End made it itself.
				waitFor(t, func() bool { return a.mon.Stats().Phase2Outstanding == 0 })
				if st := a.mon.Stats(); st.SafeQueueDepth != 1 {
					t.Errorf("SafeQueueDepth = %d after the failed attempt, want 1", st.SafeQueueDepth)
				}
				failed := false
				for _, ev := range a.mon.Tracer().Trace(tx) {
					if ev.Kind == obs.EvChildReply && ev.Detail == "b "+kindEnded && ev.Err != "" {
						failed = true
					}
				}
				if !failed {
					t.Errorf("no child-reply event carries the failed ENDED attempt:\n%s", a.mon.Tracer().Dump(tx))
				}
			}
			if a.mon.WaitSafeQueueEmpty(20 * time.Millisecond) {
				t.Error("WaitSafeQueueEmpty reported drained while b has not been told")
			}

			// b is in doubt: bound by its vote, holding the record lock.
			if err := b.mon.Abort(tx, "too late"); !errors.Is(err, ErrInDoubt) {
				t.Errorf("in-doubt abort err = %v, want ErrInDoubt", err)
			}
			txb, _ := b.mon.Begin(0)
			if _, err := b.lockedRead(t, "b", txb, "k"); err == nil {
				t.Error("in-doubt lock was granted to a second transaction")
			}
			b.mon.Abort(txb, "cleanup")

			tc.heal(net)
			a.drain(t)
			if st := b.mon.State(tx); st != txid.StateEnded {
				t.Errorf("b state after drain = %v, want ended", st)
			}
			if o, _ := b.mon.Outcome(tx); o != audit.OutcomeCommitted {
				t.Errorf("b outcome after drain = %v", o)
			}
			txb, _ = b.mon.Begin(0)
			if v, err := b.lockedRead(t, "b", txb, "k"); err != nil || v != "v" {
				t.Errorf("lock on b after drain: %q, %v", v, err)
			}
			b.mon.Abort(txb, "cleanup")
			if st := a.mon.Stats(); st.Phase2Outstanding != 0 || st.SafeQueueDepth != 0 {
				t.Errorf("after drain: Phase2Outstanding = %d, SafeQueueDepth = %d", st.Phase2Outstanding, st.SafeQueueDepth)
			}
		})
	}
}

// TestAbortWaitsForEveryChild: unlike End, an abort returns only after
// every reachable child has backed out, so the before-images are readable
// on all three nodes the moment it returns.
func TestAbortWaitsForEveryChild(t *testing.T) {
	nodes, _ := testCluster(t, "b", "a", "c") // lines b–a and a–c
	a := nodes["a"]
	all := []string{"a", "b", "c"}

	seed, _ := a.mon.Begin(0)
	for _, n := range all {
		if err := a.mon.NoteRemoteSend(seed, n); err != nil {
			t.Fatal(err)
		}
		a.insert(t, n, seed, "k", "before")
	}
	if err := a.mon.End(seed); err != nil {
		t.Fatal(err)
	}
	a.drain(t)

	tx, _ := a.mon.Begin(0)
	for _, n := range all {
		if err := a.mon.NoteRemoteSend(tx, n); err != nil {
			t.Fatal(err)
		}
		if _, err := a.lockedRead(t, n, tx, "k"); err != nil {
			t.Fatal(err)
		}
		if err := a.update(t, n, tx, "k", "after"); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.mon.Abort(tx, "test abort"); err != nil {
		t.Fatal(err)
	}
	for _, n := range all {
		if v, err := nodes[n].read(t, n, "k"); err != nil || v != "before" {
			t.Errorf("%s value straight after Abort = %q, %v; want the before-image", n, v, err)
		}
		if st := nodes[n].mon.State(tx); st != txid.StateAborted {
			t.Errorf("%s state straight after Abort = %v", n, st)
		}
	}
}

// singleNodeEndAllocs is what End costs a transaction with one local volume
// and no children: the volume's endtx checkpoint (measured by this test's
// own loop: 1.10-1.16 over six runs; CHANGES.md has the history). Under
// -race sync.Pool drops reply slots on purpose, so the pin is not checked
// there.
const singleNodeEndAllocs = 1

// twoVolumeEndAllocs is what End costs a transaction with two local
// volumes on separate trails and no children: one endtx checkpoint per
// volume (measured: 2.17-2.19 over six runs; CHANGES.md has the history).
const twoVolumeEndAllocs = 2

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// finishAllocs runs 220 transactions on mon, each given its work by
// prepare and ended by finish (End or Abort), and returns finish's mean
// allocation count over the last 200 (the first 20 warm the pools and
// lazily built tables). The count covers every goroutine, so the
// DISCPROCESSes and AUDITPROCESSes serving finish are in it. finish must
// also leave no goroutine and no phase two behind.
func finishAllocs(t *testing.T, mon *Monitor, prepare func(tx txid.ID, i int), finish func(txid.ID) error) float64 {
	t.Helper()
	commit := func(i int, measure bool) uint64 {
		tx, err := mon.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		prepare(tx, i)
		var before, after runtime.MemStats
		if measure {
			runtime.ReadMemStats(&before)
		}
		if err := finish(tx); err != nil {
			t.Fatal(err)
		}
		if measure {
			runtime.ReadMemStats(&after)
		}
		mon.Forget(tx)
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 20; i++ {
		commit(i, false)
	}
	goroutines := runtime.NumGoroutine()
	const runs = 200
	var mallocs uint64
	for i := 0; i < runs; i++ {
		mallocs += commit(100+i, true)
	}
	if st := mon.Stats(); st.Phase2Outstanding != 0 {
		t.Errorf("Phase2Outstanding = %d after single-node transactions", st.Phase2Outstanding)
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines })
	return float64(mallocs) / runs
}

// TestSingleNodeEndSpawnsNothing: a transaction with no children has no
// phase two to deliver, so End must cost it exactly what it did when phase
// two was inline — no goroutine left behind, no allocation added.
func TestSingleNodeEndSpawnsNothing(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	per := finishAllocs(t, a.mon, func(tx txid.ID, i int) {
		a.insert(t, "a", tx, fmt.Sprintf("k%d", i), "v")
	}, a.mon.End)
	t.Logf("single-node End = %.2f allocs", per)
	if !raceEnabled && per > singleNodeEndAllocs+0.5 {
		t.Errorf("single-node End = %.1f allocs, want %d", per, singleNodeEndAllocs)
	}
}

// singleNodeAbortAllocs is what an abort costs a transaction with one
// inserted record on one local volume and no children: the freeze, the
// trail scan that finds the record's image, its undo and the lock release
// (measured by this test's own loop: 12.11-12.14 over three runs before
// ABORTING went to the children first, 12.12 after).
const singleNodeAbortAllocs = 12

// TestSingleNodeAbortSpawnsNothing: an abort sends ABORTING to the
// children before the local backout and collects their answers after it,
// so a transaction with no children must pay for none of that — no
// goroutine left behind, no allocation added.
func TestSingleNodeAbortSpawnsNothing(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	per := finishAllocs(t, a.mon, func(tx txid.ID, i int) {
		a.insert(t, "a", tx, fmt.Sprintf("k%d", i), "v")
	}, func(tx txid.ID) error { return a.mon.Abort(tx, "test") })
	t.Logf("single-node Abort = %.2f allocs", per)
	if !raceEnabled && per > singleNodeAbortAllocs+0.5 {
		t.Errorf("single-node Abort = %.1f allocs, want %d", per, singleNodeAbortAllocs)
	}
}

// TestTwoVolumeEndSpawnsNothing: the flushes and lock releases of two
// local volumes are sent nowait and awaited on End's own goroutine, so a
// second volume adds its messages and nothing else — no goroutine, no
// WaitGroup, no error cell.
func TestTwoVolumeEndSpawnsNothing(t *testing.T) {
	mn := buildMultiVolNode(t, expand.NewNetwork(0), "a", 2, 0)
	per := finishAllocs(t, mn.mon, func(tx txid.ID, i int) {
		for _, disc := range mn.discs {
			mn.discCall(t, disc, discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: fmt.Sprintf("k%d", i), Val: []byte("v")})
		}
	}, mn.mon.End)
	t.Logf("two-volume End = %.2f allocs", per)
	if !raceEnabled && per > twoVolumeEndAllocs+0.5 {
		t.Errorf("two-volume End = %.1f allocs, want %d", per, twoVolumeEndAllocs)
	}
}

// TestAbortReachesChildrenFirst: on the chain a → b → c, every node that
// has a child sends it ABORTING before its own backout, so the abort's
// request to the child is traced before the node's own abort record, and
// every node's trace still follows Figure 3.
func TestAbortReachesChildrenFirst(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b", "c")
	for _, n := range nodes {
		n.mon.tracer = obs.NewTracer(16) // the cluster is idle: nothing reads the field yet
	}
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := b.mon.NoteRemoteSend(tx, "c"); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b", "c"} {
		a.insert(t, n, tx, "k", "v")
	}
	if err := a.mon.Abort(tx, "test abort"); err != nil {
		t.Fatal(err)
	}
	for parent, child := range map[string]string{"a": "b", "b": "c"} {
		tr := nodes[parent].mon.Tracer().Trace(tx)
		request, outcome := -1, -1
		for i, ev := range tr {
			switch {
			case ev.Kind == obs.EvChildRequest && ev.Detail == child+" "+kindAborting && request < 0:
				request = i
			case ev.Kind == obs.EvOutcome && ev.Detail == "aborted":
				outcome = i
			}
		}
		if request < 0 || outcome < 0 || request > outcome {
			t.Errorf("%s: ABORTING to %s at event %d, own abort record at %d; want the request first:\n%s",
				parent, child, request, outcome, nodes[parent].mon.Tracer().Dump(tx))
		}
	}
	for name, n := range nodes {
		if err := obs.CheckTrace(n.mon.Tracer().Trace(tx)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if st := n.mon.State(tx); st != txid.StateAborted {
			t.Errorf("%s state straight after Abort = %v", name, st)
		}
		if _, err := n.read(t, name, "k"); err == nil {
			t.Errorf("%s: the insert survived the abort", name)
		}
	}
}

// TestFlushSafeQueueNoHeadOfLineBlocking: with outcomes queued for two
// children, one back and one whose line now swallows every frame (each
// attempt at it burns criticalCallTimeout), a flush must deliver to the
// healthy child at once instead of queueing it behind the other.
func TestFlushSafeQueueNoHeadOfLineBlocking(t *testing.T) {
	nodes, net := testCluster(t, "b", "a", "c") // lines b–a and a–c
	a, b, c := nodes["a"], nodes["b"], nodes["c"]

	tx, _ := a.mon.Begin(0)
	for _, n := range []string{"b", "c"} {
		if err := a.mon.NoteRemoteSend(tx, n); err != nil {
			t.Fatal(err)
		}
		a.insert(t, n, tx, "k", "v")
	}
	a.mon.SetPhase1Hook(func(txid.ID) {
		net.FailLink("a", "b")
		net.FailLink("a", "c")
	})
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.mon.SetPhase1Hook(nil)
	waitFor(t, func() bool { return a.mon.Stats().SafeQueueDepth == 2 })

	// b's line comes back silent, c's healthy. Each heal flushes the queue.
	if err := net.SetLinkFault("a", "b", expand.FaultProfile{Loss: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	net.HealLink("a", "b")
	net.HealLink("a", "c")

	// waitFor gives up before one attempt at b could time out: c must not
	// have waited behind it.
	waitFor(t, func() bool { return c.mon.State(tx) == txid.StateEnded })
	if st := b.mon.State(tx); st == txid.StateEnded {
		t.Error("b reached ended over a line that drops every frame")
	}
	// c's reply retires its message; b's stays the safe queue's to deliver.
	waitFor(t, func() bool { return a.mon.Stats().SafeQueueDepth == 1 })
	if a.mon.WaitSafeQueueEmpty(20 * time.Millisecond) {
		t.Error("WaitSafeQueueEmpty reported drained with b's outcome still undelivered")
	}

	net.ClearLinkFaults()
	a.drain(t)
	if st := b.mon.State(tx); st != txid.StateEnded {
		t.Errorf("b state after the line recovered = %v", st)
	}
}

// TestSnapshotTxSorted: children and volumes come back in name order,
// whatever order they joined in, so delivery and trace order repeat from
// run to run; a node or volume that joins twice is listed once.
func TestSnapshotTxSorted(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	m := nodes["a"].mon
	for _, v := range []string{"v3", "v1", "v4", "v2"} {
		m.AddVolume(VolumeInfo{Name: v, DiscName: "disc"})
	}
	tx, _ := m.Begin(0)
	m.mu.Lock()
	for _, n := range []string{"n5", "n3", "n1", "n4", "n3", "n2"} {
		m.txs[tx].children = addName(m.txs[tx].children, n)
	}
	m.mu.Unlock()
	for _, v := range []string{"v3", "v1", "v4", "v1", "v2"} {
		if err := m.RegisterLocalVolume(tx, v); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	tb := m.txs[tx]
	m.mu.Unlock()
	if children := m.childrenOf(tb); strings.Join(children, ",") != "n1,n2,n3,n4,n5" {
		t.Fatalf("children = %v, want n1..n5 in name order", children)
	}
	vols := m.volumesOf(tb, nil)
	var names []string
	for _, vi := range vols {
		names = append(names, vi.Name)
	}
	if strings.Join(names, ",") != "v1,v2,v3,v4" {
		t.Fatalf("volumes = %v, want v1..v4 in name order", names)
	}
}

// TestPhase2StressDrains runs two terminals of three-node commits and
// aborts back to back — each End returning while its phase two is still
// on its way — and then drains: every transaction must be atomic across
// the three nodes, every state change a Figure-3 edge, and nothing may be
// left behind: no lock, no outstanding phase two, no queued message.
func TestPhase2StressDrains(t *testing.T) {
	perTerminal := 200
	if testing.Short() {
		perTerminal = 40
	}
	nodes, _ := testCluster(t, "b", "a", "c") // lines b–a and a–c
	a := nodes["a"]
	all := []string{"a", "b", "c"}

	var wg sync.WaitGroup
	for term := 0; term < 2; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			for i := 0; i < perTerminal; i++ {
				key := fmt.Sprintf("t%d-%d", term, i)
				tx, err := a.mon.Begin(term)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range all {
					if err := a.mon.NoteRemoteSend(tx, n); err != nil {
						t.Error(err)
						return
					}
					if _, err := a.tryCall(n, discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: key, Val: []byte("v")}); err != nil {
						t.Errorf("insert %s on %s: %v", key, n, err)
						return
					}
				}
				if i%4 == 3 {
					err = a.mon.Abort(tx, "test abort")
				} else {
					err = a.mon.End(tx)
				}
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
			}
		}(term)
	}
	wg.Wait()
	a.drain(t)

	for term := 0; term < 2; term++ {
		for i := 0; i < perTerminal; i++ {
			key := fmt.Sprintf("t%d-%d", term, i)
			for _, n := range all {
				_, err := nodes[n].read(t, n, key)
				if committed := i%4 != 3; committed != (err == nil) {
					t.Errorf("%s on %s: committed = %v, read err = %v", key, n, committed, err)
				}
			}
		}
	}
	for _, n := range all {
		tn := nodes[n]
		if violations := tn.mon.Checker().Violations(); len(violations) != 0 {
			t.Errorf("%s: Figure 3 violations: %v", n, violations)
		}
		if held := tn.disc.LocksSnapshot(); len(held) != 0 {
			t.Errorf("%s: locks still held after drain: %v", n, held)
		}
		if st := tn.mon.Stats(); st.Phase2Outstanding != 0 || st.SafeQueueDepth != 0 {
			t.Errorf("%s after drain: Phase2Outstanding = %d, SafeQueueDepth = %d", n, st.Phase2Outstanding, st.SafeQueueDepth)
		}
	}
}
