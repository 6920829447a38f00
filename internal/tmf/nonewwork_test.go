package tmf

import (
	"errors"
	"testing"
	"time"

	"encompass/internal/discproc"
	"encompass/internal/txid"
)

// These tests pin the straggler-rejection behavior added after the chaos
// soak exposed a first-touch race: once a transaction is past the point of
// new work (END started, phase one acknowledged, or abort under way), a
// late data-base operation must be rejected rather than applied and
// orphaned outside the freeze/backout/release snapshots.

func TestRegisterAfterEndRejected(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	if err := a.mon.RegisterLocalVolume(tx, "v-a"); !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted (closed to new work)", err)
	}
}

func TestRegisterAfterAbortRejected(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	a.mon.Abort(tx, "test")
	if err := a.mon.RegisterLocalVolume(tx, "v-a"); !errors.Is(err, ErrAborted) {
		t.Errorf("err = %v, want ErrAborted", err)
	}
}

func TestRegisterUnknownTxRejected(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	ghost := txid.ID{Home: "a", CPU: 0, Seq: 999}
	if err := a.mon.RegisterLocalVolume(ghost, "v-a"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v, want ErrUnknownTx", err)
	}
}

func TestStragglerOpAfterRemoteAbortRejected(t *testing.T) {
	// The chaos scenario: home aborts a distributed transaction; the
	// non-home node applies the abort while an operation for the same
	// transaction is still on its way. The op must be rejected, not
	// applied — its update would never be undone and its lock never
	// released.
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	// Home aborts before b ever saw a data operation for the transaction.
	a.mon.Abort(tx, "system abort")
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateAborted })

	// The straggler op arrives at b now.
	_, err := b.tryCall("b", discproc.KindInsert, &discproc.RecReq{
		Tx: tx, File: "data", Key: "orphan", Val: []byte("x"),
	})
	if err == nil {
		t.Fatal("straggler insert accepted after abort")
	}
	// Nothing applied, no lock held: a fresh transaction can use the key.
	if _, err := b.read(t, "b", "orphan"); err == nil {
		t.Error("orphan record exists")
	}
	tx2, _ := b.mon.Begin(0)
	b.insert(t, "b", tx2, "orphan", "clean")
	if err := b.mon.End(tx2); err != nil {
		t.Errorf("key unusable after straggler rejection: %v", err)
	}
}

func TestStragglerOpDuringCommitRejected(t *testing.T) {
	// Once END-TRANSACTION has begun, a first-touch operation on a new
	// volume must not sneak in after phase one snapshotted participants.
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")

	// Freeze the commit at the phase-1 hook and try a late op.
	opErr := make(chan error, 1)
	a.mon.SetPhase1Hook(func(txid.ID) {
		_, err := a.tryCall("a", discproc.KindInsert, &discproc.RecReq{
			Tx: tx, File: "data", Key: "late", Val: []byte("x"), LockTimeout: 100 * time.Millisecond,
		})
		opErr <- err
	})
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.mon.SetPhase1Hook(nil)
	select {
	case err := <-opErr:
		if err == nil {
			// Acceptable only if the record was part of the committed set;
			// it was a new key, so acceptance would orphan its lock.
			t.Fatal("late op during commit accepted")
		}
	case <-time.After(time.Second):
		t.Fatal("hook op never resolved")
	}
	// The key is free for later use (no orphaned lock).
	tx2, _ := a.mon.Begin(0)
	a.insert(t, "a", tx2, "late", "fresh")
	if err := a.mon.End(tx2); err != nil {
		t.Errorf("key unusable after rejected late op: %v", err)
	}
}

// TestLateChildIsAborted: a remote begin answered after its transaction
// closed to new work must not leave the node outside the tree, holding
// what the request took. Here the answer is held back by a lock wait at
// b, so a's abort finds no child; when the wait ends, b must be handed
// ABORTING — its lock released — and the request fail with ErrAborted.
func TestLateChildIsAborted(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	holder, _ := b.mon.Begin(0)
	b.insert(t, "b", holder, "k", "v")

	tx, _ := a.mon.Begin(0)
	done := make(chan error, 1)
	go func() {
		_, err := a.callDisc("b", discproc.KindRead, &discproc.RecReq{Tx: tx, File: "data", Key: "k",
			WithLock: true, LockTimeout: 5 * time.Second}, 5*time.Second)
		done <- err
	}()
	// The begin ran at b; the read it carries waits there for holder's lock.
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateActive })
	if err := a.mon.Abort(tx, "abort with a begin on its way"); err != nil {
		t.Fatal(err)
	}
	if err := b.mon.End(holder); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrAborted) {
			t.Errorf("read answered after the abort: err = %v, want ErrAborted", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read never returned")
	}
	if st := b.mon.State(tx); st != txid.StateAborted {
		t.Errorf("b state = %v, want aborted", st)
	}
	if got := a.children(t, tx); len(got) != 0 {
		t.Errorf("children of a = %v after the abort, want none", got)
	}
	tx2, _ := b.mon.Begin(0)
	if _, err := b.lockedRead(t, "b", tx2, "k"); err != nil {
		t.Errorf("lock on k after the abort: %v", err)
	}
	b.mon.Abort(tx2, "cleanup")
}
