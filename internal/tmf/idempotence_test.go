package tmf

import (
	"errors"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/expand"
	"encompass/internal/txid"
)

// These tests pin the 2PC handlers' idempotence under the duplicate and
// reordered delivery the unreliable EXPAND mode produces: a retransmitted
// or duplicated protocol message must re-send the earlier outcome, never
// redo the work, corrupt the transmission tree, or resurrect a resolved
// transaction.

// commitDistributed runs one a→b distributed transaction to completion and
// returns its id.
func commitDistributed(t *testing.T, nodes map[string]*testNode) txid.ID {
	t.Helper()
	a := nodes["a"]
	tx, err := a.mon.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "a", tx, "k-"+tx.String(), "va")
	a.insert(t, "b", tx, "k-"+tx.String(), "vb")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	return tx
}

func TestDuplicatePhase1AfterCommitReacks(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	tx := commitDistributed(t, nodes)
	b := nodes["b"]
	if st := b.mon.State(tx); st != txid.StateEnded {
		t.Fatalf("state on b = %v, want ended", st)
	}
	committed := b.mon.Stats().Committed
	// A straggler/duplicate phase one arriving after the outcome applied:
	// must re-ack affirmatively without redoing phase-one work.
	if err := b.mon.serve(tx, kindPhase1); err != nil {
		t.Fatalf("duplicate phase one after commit: %v, want nil re-ack", err)
	}
	if got := b.mon.Stats().Committed; got != committed {
		t.Errorf("Committed moved %d→%d on a duplicate phase one", committed, got)
	}
}

func TestDuplicatePhase1AfterAbortResendsAbort(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, err := a.mon.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "b", tx, "kx", "vb")
	if err := a.mon.Abort(tx, "test abort"); err != nil {
		t.Fatal(err)
	}
	if !b.mon.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("safe queue did not drain")
	}
	// Reordered phase one arriving after the abort already applied on b:
	// the reply must be the abort outcome, not fresh phase-one work.
	if err := b.mon.serve(tx, kindPhase1); !errors.Is(err, ErrAborted) {
		t.Fatalf("duplicate phase one after abort: %v, want ErrAborted", err)
	}
}

func TestDuplicatePhase2AppliesOnce(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	tx := commitDistributed(t, nodes)
	b := nodes["b"]
	committed := b.mon.Stats().Committed
	recs := len(b.mon.MonitorTrail().Records())
	// Duplicate safe-delivery "ended": must be a no-op.
	_ = b.mon.serve(tx, kindEnded)
	_ = b.mon.serve(tx, kindEnded)
	if got := b.mon.Stats().Committed; got != committed {
		t.Errorf("Committed moved %d→%d on duplicate phase two", committed, got)
	}
	if got := len(b.mon.MonitorTrail().Records()); got != recs {
		t.Errorf("Monitor Audit Trail grew %d→%d on duplicate phase two", recs, got)
	}
}

func TestDuplicateAbortAppliesOnce(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, err := a.mon.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "b", tx, "ky", "vb")
	if err := a.mon.Abort(tx, "test abort"); err != nil {
		t.Fatal(err)
	}
	if !b.mon.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("safe queue did not drain")
	}
	aborted := b.mon.Stats().Aborted
	backouts := b.mon.Stats().Backouts
	_ = b.mon.serve(tx, kindAborting)
	_ = b.mon.serve(tx, kindAborting)
	if got := b.mon.Stats().Aborted; got != aborted {
		t.Errorf("Aborted moved %d→%d on duplicate abort", aborted, got)
	}
	if got := b.mon.Stats().Backouts; got != backouts {
		t.Errorf("Backouts moved %d→%d on duplicate abort: backout re-ran", backouts, got)
	}
}

func TestDuplicateBeginFromParentKeepsChildRelation(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	b := nodes["b"]
	tx := txid.ID{Home: "a", CPU: 1, Seq: 99}
	if known := b.mon.beginRemote(tx, "a"); known {
		t.Fatal("first begin reported already-known")
	}
	// A duplicated begin frame from the recorded parent must re-ack
	// "not already known": the parent relies on that answer to keep b in
	// its child set, and dropping b would orphan b's updates.
	if known := b.mon.beginRemote(tx, "a"); known {
		t.Error("duplicate begin from parent reported already-known; the transmission tree would lose this child")
	}
	// A begin from a DIFFERENT node must still report known, keeping the
	// transmission graph a tree.
	if known := b.mon.beginRemote(tx, "c"); !known {
		t.Error("begin from a second node not reported as known: the graph would stop being a tree")
	}
}

func TestLateBeginAfterResolutionDoesNotResurrect(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	b := nodes["b"]
	tx := commitDistributed(t, nodes)
	b.mon.Forget(tx)
	// A stale retransmitted begin for a transid that already completed and
	// left the system: acknowledged as known, and no control block returns.
	if known := b.mon.beginRemote(tx, "a"); !known {
		t.Error("late begin after resolution not reported as known")
	}
	b.mon.mu.Lock()
	_, resurrected := b.mon.txs[tx]
	b.mon.mu.Unlock()
	if resurrected {
		t.Error("late begin resurrected a control block for a resolved transid")
	}
	if st := b.mon.State(tx); st != txid.StateNone {
		t.Errorf("late begin re-broadcast state %v for a resolved transid", st)
	}
}

// TestDistributedCommitUnderDuplication drives full distributed commits
// over a line that duplicates most frames: every handler sees duplicates
// and the protocol must still converge with matching outcomes on both
// nodes.
func TestDistributedCommitUnderDuplication(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	if err := net.SetLinkFault("a", "b", expand.FaultProfile{Duplicate: 0.8, Reorder: 0.5, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	a, b := nodes["a"], nodes["b"]
	for i := 0; i < 10; i++ {
		tx := commitDistributed(t, nodes)
		oa, oka := a.mon.Outcome(tx)
		ob, okb := b.mon.Outcome(tx)
		if !oka || !okb || oa != audit.OutcomeCommitted || ob != audit.OutcomeCommitted {
			t.Fatalf("tx %s outcomes: a=%v(%v) b=%v(%v), want committed on both", tx, oa, oka, ob, okb)
		}
	}
	if st := net.Stats(); st.DupsDropped == 0 {
		t.Error("DupsDropped = 0 under 80% duplication")
	}
}
