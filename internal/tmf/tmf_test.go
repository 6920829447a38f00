package tmf

import (
	"context"
	"errors"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/disk"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// testNode bundles one simulated node: hardware, message system, volume,
// DISCPROCESS, AUDITPROCESS and TMF monitor.
type testNode struct {
	name  string
	hw    *hw.Node
	sys   *msg.System
	vol   *disk.Volume
	trail *audit.Trail
	disc  *discproc.Proc
	mon   *Monitor
}

// testCluster builds nodes connected in a line topology a-b-c-...
func testCluster(t *testing.T, names ...string) (map[string]*testNode, *expand.Network) {
	t.Helper()
	return testClusterProto(t, "", names...)
}

// testClusterProto is testCluster with an explicit disposition protocol.
func testClusterProto(t *testing.T, proto string, names ...string) (map[string]*testNode, *expand.Network) {
	t.Helper()
	return buildCluster(t, proto, 0, nil, nil, names...)
}

// buildCluster builds the line topology with the given per-hop latency;
// force gives a node's audit trail a simulated force delay (none for a
// node it does not name). hook, when not nil, sees each node's hardware
// before its monitor starts, so a watcher it registers runs before the
// monitor's.
func buildCluster(t *testing.T, proto string, latency time.Duration, force map[string]time.Duration, hook func(*hw.Node), names ...string) (map[string]*testNode, *expand.Network) {
	t.Helper()
	net := expand.NewNetwork(latency)
	nodes := make(map[string]*testNode)
	for _, name := range names {
		n, err := hw.NewNode(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		sys := msg.NewSystem(n)
		net.Attach(sys)
		tn := &testNode{name: name, hw: n, sys: sys}
		tn.vol = disk.NewVolume("v-" + name)
		tn.trail = audit.NewTrail("a-"+name, force[name])
		if _, err := audit.StartProcess(sys, "audit", 0, 1, tn.trail); err != nil {
			t.Fatal(err)
		}
		if hook != nil {
			hook(n)
		}
		tn.mon, err = New(Config{System: sys, Network: net, TMPPrimaryCPU: 0, TMPBackupCPU: 1, CommitProtocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		tn.disc, err = discproc.Start(sys, "disc", 0, 1, discproc.Config{
			Volume:        tn.vol,
			Audit:         audit.NewClient(sys, "audit"),
			OnParticipate: tn.mon.RegisterLocalVolume,
			CacheSize:     32,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.mon.AddVolume(VolumeInfo{Name: tn.vol.Name(), DiscName: "disc", AuditName: "audit"})
		nodes[name] = tn
	}
	for i := 0; i+1 < len(names); i++ {
		if err := net.AddLink(names[i], names[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	// Create a standard file on every node.
	for _, tn := range nodes {
		tn.call(t, tn.name, discproc.KindCreate, discproc.CreateReq{File: "data", Org: dbfile.KeySequenced})
	}
	return nodes, net
}

// call issues a disc request to destNode's DISCPROCESS from this node.
func (tn *testNode) call(t *testing.T, destNode, kind string, payload any) msg.Message {
	t.Helper()
	r, err := tn.tryCall(destNode, kind, payload)
	if err != nil {
		t.Fatalf("%s→%s %s: %v", tn.name, destNode, kind, err)
	}
	return r
}

func (tn *testNode) tryCall(destNode, kind string, payload any) (msg.Message, error) {
	addr := msg.Addr{Name: "disc"}
	if destNode != tn.name {
		addr.Node = destNode
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return tn.sys.ClientCall(ctx, 3, addr, kind, payload)
}

func (tn *testNode) insert(t *testing.T, destNode string, tx txid.ID, key, val string) {
	t.Helper()
	tn.call(t, destNode, discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: key, Val: []byte(val)})
}

func (tn *testNode) read(t *testing.T, destNode, key string) (string, error) {
	r, err := tn.tryCall(destNode, discproc.KindRead, &discproc.RecReq{File: "data", Key: key})
	if err != nil {
		return "", err
	}
	return string(r.Payload.(*discproc.RecReq).Val), nil
}

func (tn *testNode) lockedRead(t *testing.T, destNode string, tx txid.ID, key string) (string, error) {
	r, err := tn.tryCall(destNode, discproc.KindRead, &discproc.RecReq{Tx: tx, File: "data", Key: key, WithLock: true, LockTimeout: 100 * time.Millisecond})
	if err != nil {
		return "", err
	}
	return string(r.Payload.(*discproc.RecReq).Val), nil
}

func (tn *testNode) update(t *testing.T, destNode string, tx txid.ID, key, val string) error {
	_, err := tn.tryCall(destNode, discproc.KindUpdate, &discproc.RecReq{Tx: tx, File: "data", Key: key, Val: []byte(val)})
	return err
}

func TestSingleNodeCommit(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, err := a.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if tx.Home != "a" || tx.CPU != 2 || tx.Seq != 1 {
		t.Errorf("transid = %+v", tx)
	}
	if st := a.mon.State(tx); st != txid.StateActive {
		t.Fatalf("state after begin = %v", st)
	}
	a.insert(t, "a", tx, "k1", "v1")
	if err := a.mon.End(tx); err != nil {
		t.Fatalf("End: %v", err)
	}
	if st := a.mon.State(tx); st != txid.StateEnded {
		t.Errorf("state after commit = %v", st)
	}
	if o, ok := a.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Errorf("outcome = %v, %v", o, ok)
	}
	// Audit records were forced at phase one.
	imgs := a.trail.ImagesFor(tx)
	if len(imgs) != 1 {
		t.Errorf("durable images = %d, want 1", len(imgs))
	}
	// Locks released: another transaction can lock the record immediately.
	tx2, _ := a.mon.Begin(2)
	if _, err := a.lockedRead(t, "a", tx2, "k1"); err != nil {
		t.Errorf("lock after commit: %v", err)
	}
	a.mon.Abort(tx2, "test cleanup")
}

func TestSingleNodeVoluntaryAbort(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]

	tx1, _ := a.mon.Begin(0)
	a.insert(t, "a", tx1, "k", "orig")
	if err := a.mon.End(tx1); err != nil {
		t.Fatal(err)
	}

	tx2, _ := a.mon.Begin(1)
	if _, err := a.lockedRead(t, "a", tx2, "k"); err != nil {
		t.Fatal(err)
	}
	if err := a.update(t, "a", tx2, "k", "dirty"); err != nil {
		t.Fatal(err)
	}
	if v, _ := a.read(t, "a", "k"); v != "dirty" {
		t.Fatalf("pre-abort value = %q", v)
	}
	if err := a.mon.Abort(tx2, "user request"); err != nil {
		t.Fatal(err)
	}
	if st := a.mon.State(tx2); st != txid.StateAborted {
		t.Errorf("state = %v, want aborted", st)
	}
	if v, _ := a.read(t, "a", "k"); v != "orig" {
		t.Errorf("value after backout = %q, want orig", v)
	}
	if o, _ := a.mon.Outcome(tx2); o != audit.OutcomeAborted {
		t.Errorf("outcome = %v", o)
	}
	// END of an aborted transaction is rejected.
	if err := a.mon.End(tx2); !errors.Is(err, ErrAborted) {
		t.Errorf("End of aborted tx err = %v, want ErrAborted", err)
	}
}

func TestAbortReleasesLocks(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx1, _ := a.mon.Begin(0)
	a.insert(t, "a", tx1, "k", "v")
	a.mon.Abort(tx1, "test")
	tx2, _ := a.mon.Begin(0)
	a.insert(t, "a", tx2, "k", "v2") // would block forever if tx1's lock leaked
	if err := a.mon.End(tx2); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedCommitTwoNodes(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	// The remote begin broadcast the transid on b.
	if st := b.mon.State(tx); st != txid.StateActive {
		t.Fatalf("state on b = %v, want active", st)
	}
	a.insert(t, "a", tx, "local", "la")
	a.insert(t, "b", tx, "remote", "rb")

	framesBefore := net.Stats().Frames
	if err := a.mon.End(tx); err != nil {
		t.Fatalf("distributed End: %v", err)
	}
	if net.Stats().Frames == framesBefore {
		t.Error("distributed commit exchanged no network frames")
	}
	a.drain(t)
	// Both nodes recorded the commit and reached ended.
	for _, n := range []*testNode{a, b} {
		if o, ok := n.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
			t.Errorf("%s outcome = %v, %v", n.name, o, ok)
		}
		if st := n.mon.State(tx); st != txid.StateEnded {
			t.Errorf("%s state = %v", n.name, st)
		}
	}
	// b's audit records were forced by phase one.
	imgs := b.trail.ImagesFor(tx)
	if len(imgs) != 1 {
		t.Errorf("b durable images = %d, want 1", len(imgs))
	}
	// b's locks released: a fresh local transaction on b can take them.
	txb, _ := b.mon.Begin(0)
	if _, err := b.lockedRead(t, "b", txb, "remote"); err != nil {
		t.Errorf("lock on b after distributed commit: %v", err)
	}
	b.mon.Abort(txb, "cleanup")
}

func TestDistributedAbortBacksOutAllNodes(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	// Committed baseline on b.
	setup, _ := b.mon.Begin(0)
	b.insert(t, "b", setup, "k", "orig")
	if err := b.mon.End(setup); err != nil {
		t.Fatal(err)
	}

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	if _, err := a.lockedRead(t, "b", tx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := a.update(t, "b", tx, "k", "dirty"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "a", tx, "ka", "va")

	a.mon.Abort(tx, "user abort")
	if !a.mon.WaitSafeQueueEmpty(time.Second) {
		t.Fatal("safe queue did not drain")
	}
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateAborted })

	if v, _ := b.read(t, "b", "k"); v != "orig" {
		t.Errorf("b value after backout = %q, want orig", v)
	}
	if _, err := a.read(t, "a", "ka"); err == nil {
		t.Error("a's insert survived the abort")
	}
	for _, n := range []*testNode{a, b} {
		if o, _ := n.mon.Outcome(tx); o != audit.OutcomeAborted {
			t.Errorf("%s outcome = %v", n.name, o)
		}
	}
}

func TestTransitiveCommitChain(t *testing.T) {
	// The paper's example: a TCP on node 1 SENDs to a server on node 2
	// which updates a record on node 3. Node 1 only knows about node 2;
	// node 2 knows about node 3. Phase one and two flow transitively.
	nodes, _ := testCluster(t, "a", "b", "c")
	a, b, c := nodes["a"], nodes["b"], nodes["c"]

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	// b's "server" forwards to c.
	if err := b.mon.NoteRemoteSend(tx, "c"); err != nil {
		t.Fatal(err)
	}
	b.insert(t, "c", tx, "k", "on-c")

	if err := a.mon.End(tx); err != nil {
		t.Fatalf("chain commit: %v", err)
	}
	waitFor(t, func() bool { return c.mon.State(tx) == txid.StateEnded })
	if v, _ := c.read(t, "c", "k"); v != "on-c" {
		t.Errorf("c value = %q", v)
	}
	if o, ok := c.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Errorf("c outcome = %v, %v", o, ok)
	}
}

func TestUnilateralAbortForcesConsensus(t *testing.T) {
	// "Until a non-home node has replied affirmatively to the phase-one
	// message, it can unilaterally abort the transaction, and then force
	// network consensus to abort by replying negatively to the phase-one
	// message."
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	a.insert(t, "a", tx, "ka", "va")

	if err := b.mon.Abort(tx, "unilateral"); err != nil {
		t.Fatal(err)
	}
	err := a.mon.End(tx)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("End after unilateral abort = %v, want ErrAborted", err)
	}
	// Everything backed out everywhere.
	if _, err := a.read(t, "a", "ka"); err == nil {
		t.Error("a insert survived")
	}
	if _, err := b.read(t, "b", "k"); err == nil {
		t.Error("b insert survived")
	}
	for _, n := range []*testNode{a, b} {
		if o, _ := n.mon.Outcome(tx); o != audit.OutcomeAborted {
			t.Errorf("%s outcome = %v", n.name, o)
		}
	}
}

func TestPartitionBeforePhase1AbortsBothSides(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")

	net.Partition("b")
	// b's watcher sees the source unreachable pre-ack and aborts.
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateAborted })
	// a's End cannot reach b for phase one; the commit attempt fails.
	if err := a.mon.End(tx); !errors.Is(err, ErrAborted) {
		t.Fatalf("End across partition = %v, want ErrAborted", err)
	}
	if _, err := b.read(t, "b", "k"); err == nil {
		t.Error("b insert survived partition abort")
	}
	// The decision is uniform: aborted on both sides.
	for _, n := range []*testNode{a, b} {
		if o, _ := n.mon.Outcome(tx); o != audit.OutcomeAborted {
			t.Errorf("%s outcome = %v", n.name, o)
		}
	}
	net.HealAll()
}

func TestInDoubtHoldsLocksUntilHeal(t *testing.T) {
	// Partition injected between phase one and the commit record: b is
	// in doubt. It must hold the transaction's locks until communication
	// is restored, then learn the disposition via safe-delivery.
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")

	a.mon.SetPhase1Hook(func(txid.ID) { net.Partition("b") })
	if err := a.mon.End(tx); err != nil {
		t.Fatalf("End: %v (commit must succeed: phase one completed)", err)
	}
	a.mon.SetPhase1Hook(nil)

	// b acknowledged phase one: it may not abort unilaterally now.
	if err := b.mon.Abort(tx, "too late"); !errors.Is(err, ErrInDoubt) {
		t.Errorf("in-doubt abort err = %v, want ErrInDoubt", err)
	}
	// b still holds the lock.
	txb, _ := b.mon.Begin(0)
	if _, err := b.lockedRead(t, "b", txb, "k"); err == nil {
		t.Error("in-doubt lock was not held")
	}
	b.mon.Abort(txb, "cleanup")

	// Heal: the queued safe-delivery phase two reaches b.
	net.HealAll()
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateEnded })
	if o, _ := b.mon.Outcome(tx); o != audit.OutcomeCommitted {
		t.Errorf("b outcome after heal = %v", o)
	}
	if v, _ := b.read(t, "b", "k"); v != "v" {
		t.Errorf("b value = %q", v)
	}
}

func TestManualOverrideOfInDoubt(t *testing.T) {
	// The paper's manual override: operator determines disposition on the
	// home node and forces it on the severed node with the TMF utility.
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	a.mon.SetPhase1Hook(func(txid.ID) { net.Partition("b") })
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.mon.SetPhase1Hook(nil)

	// Step 1 (on home node): determine disposition.
	if o, ok := a.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Fatalf("home disposition = %v, %v", o, ok)
	}
	// Step 3 (on severed node): force it.
	if err := b.mon.ForceDisposition(tx, true); err != nil {
		t.Fatal(err)
	}
	if st := b.mon.State(tx); st != txid.StateEnded {
		t.Errorf("b state after force = %v", st)
	}
	if v, _ := b.read(t, "b", "k"); v != "v" {
		t.Errorf("b value = %q", v)
	}
	net.HealAll()
}

func TestCPUFailureAbortsItsTransactions(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	// Baseline record.
	setup, _ := a.mon.Begin(0)
	a.insert(t, "a", setup, "k", "orig")
	a.mon.End(setup)

	// tx begun on CPU 2 updates the record, then CPU 2 fails.
	tx, _ := a.mon.Begin(2)
	if _, err := a.lockedRead(t, "a", tx, "k"); err != nil {
		t.Fatal(err)
	}
	if err := a.update(t, "a", tx, "k", "dirty"); err != nil {
		t.Fatal(err)
	}
	a.hw.FailCPU(2)
	waitFor(t, func() bool { return a.mon.State(tx) == txid.StateAborted })
	if v, _ := a.read(t, "a", "k"); v != "orig" {
		t.Errorf("value after failure abort = %q, want orig", v)
	}
	// Unaffected transactions keep running.
	tx2, _ := a.mon.Begin(1)
	a.insert(t, "a", tx2, "k2", "v2")
	if err := a.mon.End(tx2); err != nil {
		t.Errorf("unaffected tx failed: %v", err)
	}
}

func TestStateBroadcastReachesAllCPUs(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	for cpu := 0; cpu < 4; cpu++ {
		if st := a.mon.StateOnCPU(tx, cpu); st != txid.StateActive {
			t.Errorf("cpu %d state = %v, want active", cpu, st)
		}
	}
	a.insert(t, "a", tx, "k", "v")
	a.mon.End(tx)
	for cpu := 0; cpu < 4; cpu++ {
		if st := a.mon.StateOnCPU(tx, cpu); st != txid.StateEnded {
			t.Errorf("cpu %d state = %v, want ended", cpu, st)
		}
	}
	// "Once the 'ended' state has completed, the transid leaves the
	// system."
	a.mon.Forget(tx)
	if st := a.mon.State(tx); st != txid.StateNone {
		t.Errorf("state after Forget = %v", st)
	}
}

func TestFigure3Conformance(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	// A mixed workload: commits, aborts, distributed commits, failures.
	for i := 0; i < 10; i++ {
		tx, _ := a.mon.Begin(i % 4)
		a.insert(t, "a", tx, "k"+string(rune('0'+i)), "v")
		if i%3 == 0 {
			a.mon.Abort(tx, "mixed workload")
		} else if i%3 == 1 {
			a.mon.End(tx)
		} else {
			a.mon.NoteRemoteSend(tx, "b")
			a.insert(t, "b", tx, "k"+string(rune('0'+i)), "v")
			a.mon.End(tx)
		}
	}
	for _, n := range []*testNode{a, b} {
		if n.mon.Stats().BroadcastMsgs == 0 {
			t.Errorf("%s broadcast no state changes", n.name)
		}
		if violations := n.mon.Checker().Violations(); len(violations) != 0 {
			t.Errorf("%s: %d Figure-3 violations: %+v", n.name, len(violations), violations)
		}
	}
}

func TestQueryRemoteDisposition(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	a.mon.End(tx)
	resp, err := b.mon.QueryRemote("a", tx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Known || !resp.Committed {
		t.Errorf("query = %+v, want known committed", resp)
	}
}

func TestDoubleAbortIdempotent(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.Abort(tx, "first"); err != nil {
		t.Fatal(err)
	}
	if err := a.mon.Abort(tx, "second"); err != nil {
		t.Fatal(err)
	}
	st := a.mon.Stats()
	if st.Aborted != 1 {
		t.Errorf("aborted count = %d, want 1", st.Aborted)
	}
}

func TestEndOnNonHomeNodeRejected(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	if err := b.mon.End(tx); !errors.Is(err, ErrNotHome) {
		t.Errorf("End on non-home err = %v, want ErrNotHome", err)
	}
	a.mon.Abort(tx, "cleanup")
}

func TestBeginOnDownCPU(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	a.hw.FailCPU(3)
	if _, err := a.mon.Begin(3); !errors.Is(err, hw.ErrCPUDown) {
		t.Errorf("err = %v, want ErrCPUDown", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	a.mon.End(tx)
	tx2, _ := a.mon.Begin(0)
	a.insert(t, "a", tx2, "k2", "v")
	a.mon.Abort(tx2, "test")
	st := a.mon.Stats()
	if st.Begun != 2 || st.Committed != 1 || st.Aborted != 1 || st.Backouts != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BroadcastMsgs == 0 {
		t.Error("no broadcasts counted")
	}
}

// TestOnlyCommitRecordsAreForced pins tmf.outcome_forces: every node that
// records a commit forces its Monitor Audit Trail once, and no abort
// record is forced anywhere (presumed abort).
func TestOnlyCommitRecordsAreForced(t *testing.T) {
	forces := func(nodes map[string]*testNode) uint64 {
		var n uint64
		for _, tn := range nodes {
			n += tn.mon.Registry().Counter(obs.MOutcomeForces).Value()
		}
		return n
	}
	run := func(t *testing.T, names []string, commit bool) uint64 {
		nodes, _ := testCluster(t, names...)
		a := nodes["a"]
		tx, _ := a.mon.Begin(0)
		for i := 1; i < len(names); i++ { // a chain: each node sends to the next
			if err := nodes[names[i-1]].mon.NoteRemoteSend(tx, names[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, name := range names {
			a.insert(t, name, tx, "k", "v")
		}
		before := forces(nodes)
		if commit {
			if err := a.mon.End(tx); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				nodes[name].drain(t)
			}
		} else if err := a.mon.Abort(tx, "test"); err != nil {
			t.Fatal(err)
		}
		want := audit.OutcomeAborted
		if commit {
			want = audit.OutcomeCommitted
		}
		for _, name := range names { // every node recorded the outcome
			if o, ok := nodes[name].mon.Outcome(tx); !ok || o != want {
				t.Errorf("%s outcome = %v, %v; want %v", name, o, ok, want)
			}
		}
		return forces(nodes) - before
	}
	for _, c := range []struct {
		name   string
		nodes  []string
		commit bool
		want   uint64
	}{
		{"single-node commit", []string{"a"}, true, 1},
		{"single-node abort", []string{"a"}, false, 0},
		{"three-node commit", []string{"a", "b", "c"}, true, 3},
		{"three-node abort", []string{"a", "b", "c"}, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := run(t, c.nodes, c.commit); got != c.want {
				t.Errorf("%s = %d, want %d", obs.MOutcomeForces, got, c.want)
			}
		})
	}
}

func TestNoteRemoteSendUnreachable(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	a := nodes["a"]
	net.Partition("b")
	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); !errors.Is(err, ErrNodeUnreachable) {
		t.Errorf("err = %v, want ErrNodeUnreachable", err)
	}
	net.HealAll()
	a.mon.Abort(tx, "cleanup")
}

// drain waits until the node has no outcome left to deliver: End returns
// at the commit point, so "the children have applied it" is a state to
// wait for, not a consequence of End returning.
func (tn *testNode) drain(t *testing.T) {
	t.Helper()
	if !tn.mon.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatalf("%s: phase two did not drain", tn.name)
	}
}

// waitWithin polls cond every millisecond for up to d.
func waitWithin(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within %v", what, d)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	waitWithin(t, "condition", 3*time.Second, cond)
}
