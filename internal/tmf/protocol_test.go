package tmf

import (
	"errors"
	"strings"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// protoConfigs enumerates the selectable disposition protocols for the
// equivalence tests: each must produce the same committed/aborted outcomes
// on the same workload.
var protoConfigs = []string{ProtoAbbreviated, ProtoPaxos}

func TestDistributedCommitEveryProtocol(t *testing.T) {
	for _, proto := range protoConfigs {
		t.Run(proto, func(t *testing.T) {
			nodes, _ := testClusterProto(t, proto, "a", "b")
			a, b := nodes["a"], nodes["b"]

			tx, _ := a.mon.Begin(0)
			if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
				t.Fatal(err)
			}
			a.insert(t, "a", tx, "local", "la")
			a.insert(t, "b", tx, "remote", "rb")
			if err := a.mon.End(tx); err != nil {
				t.Fatalf("End under %s: %v", proto, err)
			}
			a.drain(t)
			for _, n := range []*testNode{a, b} {
				if o, ok := n.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
					t.Errorf("%s outcome = %v, %v", n.name, o, ok)
				}
				waitFor(t, func() bool { return n.mon.State(tx) == txid.StateEnded })
			}
			// Locks released on the remote node.
			txb, _ := b.mon.Begin(0)
			if _, err := b.lockedRead(t, "b", txb, "remote"); err != nil {
				t.Errorf("lock on b after commit: %v", err)
			}
			b.mon.Abort(txb, "cleanup")
		})
	}
}

func TestUnilateralAbortEveryProtocol(t *testing.T) {
	// A participant that has not acknowledged phase one aborts
	// unilaterally; END must fail and every protocol must settle on
	// Aborted — under Paxos Commit, durably at the acceptors.
	for _, proto := range protoConfigs {
		t.Run(proto, func(t *testing.T) {
			nodes, _ := testClusterProto(t, proto, "a", "b")
			a, b := nodes["a"], nodes["b"]

			tx, _ := a.mon.Begin(0)
			a.mon.NoteRemoteSend(tx, "b")
			a.insert(t, "b", tx, "k", "v")
			if err := b.mon.Abort(tx, "unilateral"); err != nil {
				t.Fatal(err)
			}
			if err := a.mon.End(tx); !errors.Is(err, ErrAborted) {
				t.Fatalf("End after unilateral abort = %v, want ErrAborted", err)
			}
			for _, n := range []*testNode{a, b} {
				if o, _ := n.mon.Outcome(tx); o != audit.OutcomeAborted {
					t.Errorf("%s outcome = %v", n.name, o)
				}
			}
			if proto == ProtoPaxos {
				// The recovery ballot run by the home node's abort drove the
				// acceptors to a durable Aborted disposition: any node can
				// learn it.
				o, decider, err := b.mon.paxos.client(tx.Home).Learn(tx)
				if err != nil || o != audit.OutcomeAborted {
					t.Errorf("acceptor disposition = %v (%s), %v", o, decider, err)
				}
			}
		})
	}
}

func TestPaxosAcceptorLogsRecordDecision(t *testing.T) {
	nodes, _ := testClusterProto(t, ProtoPaxos, "a", "b")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	logs := a.mon.AcceptorLogs()
	if len(logs) != 3 {
		t.Fatalf("paxos AcceptorLogs = %d logs, want 3", len(logs))
	}
	withOutcome := 0
	for _, l := range logs {
		if n, err := l.VerifyChain(); err != nil {
			t.Errorf("%s: verified %d then: %v", l.Name(), n, err)
		}
		for _, r := range l.Records() {
			if r.Tx == tx && r.Kind == audit.DecisionOutcome {
				withOutcome++
				break
			}
		}
	}
	if withOutcome < 2 {
		t.Errorf("outcome recorded on %d/3 acceptors, want a majority", withOutcome)
	}
}

func TestQueryReportsProtocolAndDecider(t *testing.T) {
	nodes, _ := testClusterProto(t, ProtoPaxos, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	resp, err := b.mon.QueryRemote("a", tx)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Known || !resp.Committed || resp.Protocol != ProtoPaxos || resp.Decider == "" {
		t.Errorf("query = %+v, want known committed with protocol/decider", resp)
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	n, _ := hw.NewNode("x", 4)
	sys := msg.NewSystem(n)
	net := expand.NewNetwork(0)
	net.Attach(sys)
	for _, proto := range []string{"bogus", "full2pc"} {
		_, err := New(Config{System: sys, Network: net, TMPPrimaryCPU: 0, TMPBackupCPU: 1, CommitProtocol: proto})
		if err == nil || !strings.Contains(err.Error(), "unknown commit protocol") {
			t.Errorf("CommitProtocol %q: New = %v, want the unknown-protocol error", proto, err)
		}
	}
}

func TestPaxosCoordinatorKillNonBlocking(t *testing.T) {
	// The tentpole scenario: the coordinator dies between phase one and
	// the commit record. Under Paxos Commit the participant's in-doubt
	// watcher learns the disposition from the acceptor quorum (2 of 3
	// survive the coordinator CPU's death) and releases its locks while
	// the coordinator is still dead.
	nodes, _ := testClusterProto(t, ProtoPaxos, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(2)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "b", tx, "k", "v")

	park := make(chan struct{})
	a.mon.SetPhase1Hook(func(txid.ID) {
		a.hw.FailCPU(0) // the TMP primary: the "coordinator" CPU
		<-park          // the END caller stays dead until released
	})
	endErr := make(chan error, 1)
	go func() { endErr <- a.mon.End(tx) }()

	// While the coordinator is parked mid-protocol, b resolves on its own.
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateEnded })
	if o, ok := a.mon.Outcome(tx); ok {
		t.Errorf("home node already has outcome %v; the disposition must have come from the acceptors", o)
	}
	if o, ok := b.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Fatalf("b outcome while coordinator dead = %v, %v", o, ok)
	}
	// b's locks are released, coordinator still dead.
	txb, _ := b.mon.Begin(0)
	if _, err := b.lockedRead(t, "b", txb, "k"); err != nil {
		t.Errorf("lock on b while coordinator dead: %v", err)
	}
	b.mon.Abort(txb, "cleanup")
	if v, _ := b.read(t, "b", "k"); v != "v" {
		t.Errorf("b value = %q", v)
	}

	// Release the coordinator: its END must agree with what b learned.
	close(park)
	a.mon.SetPhase1Hook(nil)
	if err := <-endErr; err != nil {
		t.Fatalf("resumed End: %v", err)
	}
	if o, _ := a.mon.Outcome(tx); o != audit.OutcomeCommitted {
		t.Errorf("a outcome = %v", o)
	}
}

func TestAbbreviatedBlockingRegression(t *testing.T) {
	// Pins the paper's availability hole, which motivates this PR: under
	// the abbreviated protocol a participant that acknowledged phase one
	// holds its locks for as long as the coordinator stays dead — no
	// watcher, no quorum to ask — until an operator forces a disposition.
	nodes, _ := testClusterProto(t, ProtoAbbreviated, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")

	park := make(chan struct{})
	a.mon.SetPhase1Hook(func(txid.ID) { <-park })
	endErr := make(chan error, 1)
	go func() { endErr <- a.mon.End(tx) }()

	waitFor(t, func() bool { return len(b.mon.InDoubt()) == 1 })
	// b is bound by its phase-one reply: it may not abort, and the lock
	// stays held.
	if err := b.mon.Abort(tx, "too late"); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("in-doubt abort err = %v, want ErrInDoubt", err)
	}
	txb, _ := b.mon.Begin(0)
	if _, err := b.lockedRead(t, "b", txb, "k"); err == nil {
		t.Error("in-doubt lock was not held")
	}
	b.mon.Abort(txb, "cleanup")
	// ... and stays held: no background resolver exists for this protocol.
	time.Sleep(400 * time.Millisecond)
	if got := b.mon.InDoubt(); len(got) != 1 {
		t.Fatalf("in-doubt set after 400ms = %v, want [%v] still blocked", got, tx)
	}

	// The operator's only recourse (the home node has no recorded
	// disposition to consult) is to force one locally.
	if o, ok := a.mon.Outcome(tx); ok {
		t.Fatalf("home node has outcome %v while its coordinator is dead", o)
	}
	if err := b.mon.ForceDisposition(tx, false); err != nil {
		t.Fatal(err)
	}
	if st := b.mon.State(tx); st != txid.StateAborted {
		t.Errorf("b state after force = %v", st)
	}
	// The insert was backed out and its lock released: a fresh transaction
	// can take the key (this would block if the lock leaked).
	txb2, _ := b.mon.Begin(0)
	if err := b.update(t, "b", txb2, "k", "fresh"); err == nil {
		t.Error("backed-out record still present")
	}
	b.insert(t, "b", txb2, "k", "fresh")
	b.mon.Abort(txb2, "cleanup")

	// The hazard the paper concedes and Paxos Commit removes: when the
	// coordinator comes back it commits, and the operator's blind guess
	// has diverged from the home node's disposition.
	close(park)
	a.mon.SetPhase1Hook(nil)
	if err := <-endErr; err != nil {
		t.Fatalf("resumed End: %v", err)
	}
	oa, _ := a.mon.Outcome(tx)
	ob, _ := b.mon.Outcome(tx)
	if oa != audit.OutcomeCommitted || ob != audit.OutcomeAborted {
		t.Errorf("outcomes a=%v b=%v; this test pins the documented divergence hazard", oa, ob)
	}
}

func TestInDoubtListsOnlyUnresolved(t *testing.T) {
	nodes, _ := testClusterProto(t, ProtoPaxos, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateEnded })
	if got := b.mon.InDoubt(); len(got) != 0 {
		t.Errorf("InDoubt after commit = %v, want empty", got)
	}
}
