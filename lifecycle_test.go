package encompass_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unicode"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/paxoscommit"
	"encompass/internal/rollforward"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// lifecyclePair builds home node "a" (three volumes, so pair placement has
// something to get wrong) and child "b", with a file on each.
func lifecyclePair(t *testing.T, cfg encompass.Config) (sys *encompass.System, a, b *encompass.Node) {
	t.Helper()
	cfg.Nodes = []encompass.NodeSpec{
		{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{
			{Name: "v1", Audited: true}, {Name: "v2", Audited: true}, {Name: "v3", Audited: true}}},
		{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
	}
	sys = build(t, cfg)
	t.Cleanup(sys.Stop)
	for _, f := range []encompass.FileInfo{
		encompass.LocalFile("fa", encompass.KeySequenced, "a", "v1"),
		encompass.LocalFile("fb", encompass.KeySequenced, "b", "vb"),
	} {
		if err := sys.CreateFileEverywhere(f); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sys.Node("a"), sys.Node("b")
}

// distributedCommit commits one a-homed transaction that inserts key on
// both nodes, and waits for phase two to reach b.
func distributedCommit(t *testing.T, a *encompass.Node, key string) *encompass.Tx {
	t.Helper()
	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fa", "fb"} {
		if err := tx.Insert(f, key, []byte("v-"+key)); err != nil {
			t.Fatalf("insert %s/%s: %v", f, key, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit %s: %v", key, err)
	}
	if !a.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatalf("phase two of %s never reached b", key)
	}
	return tx
}

func crashRecover(t *testing.T, n *encompass.Node, arch *rollforward.Archive) {
	t.Helper()
	n.Crash()
	if _, err := n.Recover(arch); err != nil {
		t.Fatalf("Recover: %v", err)
	}
}

func decisionRecords(t *testing.T, m *tmf.Monitor) int {
	t.Helper()
	total := 0
	for _, l := range m.AcceptorLogs() {
		n, err := l.VerifyChain()
		if err != nil {
			t.Errorf("decision log %s: %v", l.Name(), err)
		}
		total += n
	}
	return total
}

// TestRecoverKeepsConfiguration: a node that went through Crash + Recover
// runs what Build configured, over the durable state it had.
func TestRecoverKeepsConfiguration(t *testing.T) {
	for _, tc := range []struct {
		proto   string
		workers int
	}{
		{tmf.ProtoPaxos, 1},
		{tmf.ProtoAbbreviated, 8},
	} {
		t.Run(fmt.Sprintf("%s/workers=%d", tc.proto, tc.workers), func(t *testing.T) {
			_, a, _ := lifecyclePair(t, encompass.Config{
				CommitProtocol: tc.proto, DiscWorkers: tc.workers, TraceCapacity: 128,
			})
			a.FS.LockTimeout = 70 * time.Millisecond
			arch := a.TakeArchive()
			before := distributedCommit(t, a, "k0")

			reg, tracer := a.TMF.Registry(), a.TMF.Tracer()
			records, committed := decisionRecords(t, a.TMF), a.TMF.Stats().Committed
			placed := map[string]int{}
			for name, v := range a.Volumes {
				placed[name] = v.Proc.Pair.PrimaryCPU()
			}

			moved := ""
			for i := 1; i <= 20; i++ {
				crashRecover(t, a, arch)
				for name, v := range a.Volumes {
					if got := v.Proc.Pair.PrimaryCPU(); got != placed[name] && moved == "" {
						moved = fmt.Sprintf("recovery %d put the primary of %s on cpu %d", i, name, got)
					}
				}
			}
			if moved != "" {
				t.Errorf("%s; Build chose %v", moved, placed)
			}

			if got := a.TMF.ProtocolName(); got != tc.proto {
				t.Errorf("protocol = %s, configured %s", got, tc.proto)
			}
			if got := decisionRecords(t, a.TMF); got < records {
				t.Errorf("decision logs hold %d records, %d before the crash", got, records)
			}
			if a.TMF.Tracer() == nil || a.TMF.Tracer() != tracer {
				t.Errorf("tracer = %p, Build's was %p", a.TMF.Tracer(), tracer)
			} else if len(tracer.Trace(before.ID)) == 0 {
				t.Errorf("trace of pre-crash %s is gone", before.ID)
			}
			if a.TMF.Registry() != reg {
				t.Error("recovered monitor reports into a new registry")
			}
			if got := a.TMF.Stats().Committed; got < committed {
				t.Errorf("tmf.committed restarted: %d after recovery, %d before", got, committed)
			}
			for name, v := range a.Volumes {
				if got := v.Proc.Stats().Sched.Workers; got != tc.workers {
					t.Errorf("%s runs %d DISCPROCESS workers, configured %d", name, got, tc.workers)
				}
			}
			if a.FS.LockTimeout != 70*time.Millisecond {
				t.Errorf("FS.LockTimeout = %s, was set to 70ms", a.FS.LockTimeout)
			}

			distributedCommit(t, a, "k1")
			if got := a.TMF.Stats().Committed; got <= committed {
				t.Errorf("tmf.committed = %d after a post-recovery commit, %d before the crash", got, committed)
			}
			if tc.proto != tmf.ProtoAbbreviated {
				if got := decisionRecords(t, a.TMF); got <= records {
					t.Errorf("post-recovery commit left the decision logs at %d records (%d before the crash)", got, records)
				}
			}
		})
	}
}

// TestRecoverKeepsDispositions: what the protocol's durable record (the
// acceptors' decision logs, asked past the Monitor Audit Trail, or that
// trail) says about a transaction committed before total failure of its
// home node, it says after it, and the restarted node decides alike.
func TestRecoverKeepsDispositions(t *testing.T) {
	evidence := func(decider string) string { // the acceptor that answers first varies
		return strings.Map(func(r rune) rune {
			if unicode.IsDigit(r) {
				return -1
			}
			return r
		}, decider)
	}
	for _, proto := range []string{tmf.ProtoPaxos, tmf.ProtoAbbreviated} {
		t.Run(proto, func(t *testing.T) {
			_, a, b := lifecyclePair(t, encompass.Config{CommitProtocol: proto})
			learn := func(id txid.ID) (audit.Outcome, string, error) {
				if proto == tmf.ProtoPaxos {
					return paxoscommit.NewClient(a.Msg, a.Name, paxoscommit.Acceptors).Learn(id)
				}
				o, d, known := a.TMF.Disposition(id)
				if !known {
					return o, d, fmt.Errorf("%s not in the Monitor Audit Trail", id)
				}
				return o, d, nil
			}
			arch := a.TakeArchive()
			tx := distributedCommit(t, a, "k0")
			o0, d0, err := learn(tx.ID)
			if err != nil || o0 != audit.OutcomeCommitted {
				t.Fatalf("before the crash: Learn(%s) = %v, %q, %v", tx.ID, o0, d0, err)
			}

			crashRecover(t, a, arch)

			o1, d1, err := learn(tx.ID)
			if err != nil || o1 != o0 || evidence(d1) != evidence(d0) {
				t.Errorf("after recovery: Learn(%s) = %v, %q, %v; was %v, %q", tx.ID, o1, d1, err, o0, d0)
			}
			if o, _, known := b.TMF.Disposition(tx.ID); !known || o != audit.OutcomeCommitted {
				t.Errorf("b's view of %s after a's recovery: %v, known=%v", tx.ID, o, known)
			}
			next := distributedCommit(t, a, "k1")
			if o, d, err := learn(next.ID); err != nil || o != audit.OutcomeCommitted || evidence(d) != evidence(d0) {
				t.Errorf("post-recovery %s: Learn = %v, %q, %v; want committed by %q", next.ID, o, d, err, d0)
			}
			for _, n := range []*encompass.Node{a, b} {
				for _, f := range []string{"fa", "fb"} {
					for _, k := range []string{"k0", "k1"} {
						if v, err := n.FS.Read(f, k); err != nil || string(v) != "v-"+k {
							t.Errorf("%s reads %s/%s = %q, %v", n.Name, f, k, v, err)
						}
					}
				}
			}
		})
	}
}

// TestRecoveredNodeIssuesNoOldTransid: a transaction active at a total
// failure has no Monitor Audit Trail record, but its images are in the
// audit trail; the recovered node must not hand its transid to a new
// transaction, whose backout would find those images and undo them over
// later committed work.
func TestRecoveredNodeIssuesNoOldTransid(t *testing.T) {
	sys := oneNode(t)
	defer sys.Stop()
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	update := func(cpu int, key, val string) txid.ID {
		t.Helper()
		tx, err := n.TMF.Begin(cpu)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.FS.ReadLock(tx, "f", key); err != nil {
			t.Fatalf("%s: lock %s: %v", tx, key, err)
		}
		if err := n.FS.Update(tx, "f", key, []byte(val)); err != nil {
			t.Fatalf("%s: update %s: %v", tx, key, err)
		}
		return tx
	}

	seed, _ := n.Begin()
	seed.Insert("f", "A", []byte("a0"))
	seed.Insert("f", "B", []byte("b0"))
	seed.Insert("f", "C", []byte("c0"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	arch := n.TakeArchive()

	ghost := update(3, "A", "ghost") // never ends
	// Another transaction's commit forces the shared trail: the ghost's
	// before-image of A is durable.
	if err := n.TMF.End(update(0, "C", "c1")); err != nil {
		t.Fatal(err)
	}
	crashRecover(t, n, arch)

	if err := n.TMF.End(update(0, "A", "a4")); err != nil {
		t.Fatal(err)
	}
	reborn := update(3, "B", "b1")
	if reborn == ghost {
		t.Errorf("recovered node re-issued transid %s of a transaction active at the crash", ghost)
	}
	if err := n.TMF.Abort(reborn, "test"); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if v, err := n.FS.Read("f", "A"); err != nil || string(v) != "a4" {
		t.Errorf("A = %q, %v after the abort of %s; the committed value is a4", v, err, reborn)
	}
	if v, err := n.FS.Read("f", "B"); err != nil || string(v) != "b0" {
		t.Errorf("B = %q, %v after backout; want b0", v, err)
	}
}

// TestCrashLeavesNoAbortBehind: a transaction active at a crash is
// settled by recovery, never by the crashed incarnation's monitor. Its
// BEGIN-TRANSACTION ran on CPU 0, the first processor the crash fails: a
// monitor that took that for one processor's failure would back the
// transaction out late, its before-image landing over what the next
// incarnation committed.
func TestCrashLeavesNoAbortBehind(t *testing.T) {
	sys := oneNode(t)
	defer sys.Stop()
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	seed, _ := n.Begin()
	seed.Insert("f", "A", []byte("a0"))
	seed.Insert("f", "C", []byte("c0"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	arch := n.TakeArchive()
	update := func(cpu int, key, val string) txid.ID {
		t.Helper()
		tx, err := n.TMF.Begin(cpu)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.FS.ReadLock(tx, "f", key); err != nil {
			t.Fatalf("%s: lock %s: %v", tx, key, err)
		}
		if err := n.FS.Update(tx, "f", key, []byte(val)); err != nil {
			t.Fatalf("%s: update %s: %v", tx, key, err)
		}
		return tx
	}
	update(0, "A", "ghost") // never ends
	// Another commit forces the shared trail: the ghost's image is durable.
	if err := n.TMF.End(update(1, "C", "c1")); err != nil {
		t.Fatal(err)
	}
	crashRecover(t, n, arch)
	if err := n.TMF.End(update(1, "A", "a1")); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if v, err := n.FS.Read("f", "A"); err != nil || string(v) != "a1" {
			t.Fatalf("A = %q, %v after the next incarnation committed a1", v, err)
		}
	}
}

// TestRecoverReleasesOldIncarnation: nothing keeps the software a Recover
// replaced reachable, so the live heap does not grow by a copy of the
// node's in-memory file structures per recovery.
func TestRecoverReleasesOldIncarnation(t *testing.T) {
	sys := oneNode(t)
	defer sys.Stop()
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 4<<10)
	for i := 0; i < 2000; i += 50 { // 8 MB of records
		tx, _ := n.Begin()
		for k := i; k < i+50; k++ {
			if err := tx.Insert("f", fmt.Sprintf("k%05d", k), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	arch := n.TakeArchive()
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var after3 uint64
	for i := 1; i <= 6; i++ {
		crashRecover(t, n, arch)
		if i == 3 {
			after3 = live()
		}
	}
	// Each leaked incarnation holds a copy of the volume: three would add
	// 24 MB. Allow a sixth of that for whatever else moved.
	if after6 := live(); after6 > after3+4<<20 {
		t.Errorf("live heap %d KB after recovery 3, %d KB after recovery 6: superseded incarnations stay reachable",
			after3>>10, after6>>10)
	}
}

// goroutinesBackTo fails the test unless the goroutine count falls back
// to before within d.
func goroutinesBackTo(t *testing.T, before int, d time.Duration) {
	t.Helper()
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(d); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(20 * time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines %v after Stop, %d before Build", after, d, before)
	}
}

// inDoubtAtB commits one a-homed transaction that inserts on both nodes,
// partitioning b after phase one: b has voted and cannot learn the
// outcome, and a hands its ENDED to an owner.
func inDoubtAtB(t *testing.T, sys *encompass.System, a, b *encompass.Node) {
	t.Helper()
	a.TMF.SetPhase1Hook(func(txid.ID) { sys.Partition("b") })
	defer a.TMF.SetPhase1Hook(nil)
	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fa", "fb"} {
		if err := tx.Insert(f, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); a.TMF.Stats().SafeQueueDepth == 0 || len(b.TMF.InDoubt()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("b never in doubt with a's ENDED owned")
		}
	}
}

// TestStopEndsOwners: Stop while the owner of an undelivered ENDED is
// still retrying leaves none of the system's goroutines behind.
func TestStopEndsOwners(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, a, b := lifecyclePair(t, encompass.Config{})
	inDoubtAtB(t, sys, a, b)
	sys.Stop()
	goroutinesBackTo(t, before, time.Second)
}

// TestStopEndsInDoubtWatcher: under Paxos Commit an in-doubt participant
// runs a watcher that probes the acceptors for minutes; Stop ends it.
func TestStopEndsInDoubtWatcher(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, a, b := lifecyclePair(t, encompass.Config{CommitProtocol: tmf.ProtoPaxos})
	inDoubtAtB(t, sys, a, b)
	sys.Stop()
	goroutinesBackTo(t, before, time.Second)
}

// TestStopEndsEveryGoroutine: Stop leaves none of the system's goroutines
// behind.
func TestStopEndsEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	sys, a, _ := lifecyclePair(t, encompass.Config{CommitProtocol: tmf.ProtoPaxos, TraceCapacity: 64})
	distributedCommit(t, a, "k0")
	if running := runtime.NumGoroutine(); running <= before {
		t.Fatalf("%d goroutines with a system running, %d before Build", running, before)
	}
	sys.Stop()
	goroutinesBackTo(t, before, 10*time.Second)
}

// TestStopEndsParkedWorkers: a burst of concurrent commits over two
// volumes leaves flush and force workers parked on every DISCPROCESS and
// AUDITPROCESS it touched; Stop must end them with the rest.
func TestStopEndsParkedWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	sys := build(t, encompass.Config{Nodes: []encompass.NodeSpec{{Name: "a", CPUs: 4,
		Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true}, {Name: "v2", Audited: true}}}}})
	a := sys.Node("a")
	for _, f := range []encompass.FileInfo{
		encompass.LocalFile("f1", encompass.KeySequenced, "a", "v1"),
		encompass.LocalFile("f2", encompass.KeySequenced, "a", "v2"),
	} {
		if err := a.FS.Create(f); err != nil {
			t.Fatal(err)
		}
	}
	const burst = 64
	errs := make(chan error, burst)
	for i := range burst {
		go func() {
			tx, err := a.Begin()
			if err == nil {
				key := fmt.Sprintf("k%d", i)
				if err = tx.Insert("f1", key, []byte("v")); err == nil {
					if err = tx.Insert("f2", key, []byte("v")); err == nil {
						err = tx.Commit()
					}
				}
			}
			errs <- err
		}()
	}
	for range burst {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	sys.Stop()
	goroutinesBackTo(t, before, 10*time.Second)
}
