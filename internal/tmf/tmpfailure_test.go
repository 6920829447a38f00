package tmf

import (
	"errors"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/txid"
)

// The TMP is itself a process pair; these tests exercise the protocol
// while TMP primaries fail.

func TestTMPPrimaryFailureBeforeCommit(t *testing.T) {
	// Fail the remote node's TMP primary CPU before the commit: the TMP
	// backup takes over and phase one still succeeds.
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(2)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")

	// b's TMP pair is on CPUs 0/1; fail the primary.
	b.hw.FailCPU(0)

	if err := a.mon.End(tx); err != nil {
		t.Fatalf("commit through TMP takeover: %v", err)
	}
	waitFor(t, func() bool {
		o, ok := b.mon.Outcome(tx)
		return ok && o == audit.OutcomeCommitted
	})
	if v, _ := b.read(t, "b", "k"); v != "v" {
		t.Errorf("b value = %q", v)
	}
}

func TestHomeTMPPrimaryFailureBeforeCommit(t *testing.T) {
	// Fail the HOME node's TMP primary before END: the commit must still
	// complete (the protocol runs through the local monitor; TMP hosts
	// the coordination endpoints, which the pair keeps available).
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(2)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	a.insert(t, "a", tx, "ka", "va")

	a.hw.FailCPU(0) // home TMP primary

	if err := a.mon.End(tx); err != nil {
		t.Fatalf("commit after home TMP takeover: %v", err)
	}
	a.drain(t)
	for _, n := range []*testNode{a, b} {
		if o, ok := n.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
			t.Errorf("%s outcome = %v, %v", n.name, o, ok)
		}
	}
}

func TestDecisionUniformUnderMidProtocolPartition(t *testing.T) {
	// Whatever happens mid-protocol, the two nodes must never disagree on
	// a transaction's disposition. Drive many transactions, partitioning
	// at the phase-1 boundary on a rotating subset.
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	for i := 0; i < 10; i++ {
		key := "k" + string(rune('0'+i))
		tx, _ := a.mon.Begin(2)
		if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
			net.HealAll()
			continue
		}
		a.insert(t, "b", tx, key, "v")
		if i%2 == 0 {
			a.mon.SetPhase1Hook(func(txid.ID) { net.Partition("b") })
		}
		err := a.mon.End(tx)
		a.mon.SetPhase1Hook(nil)
		net.HealAll()
		a.mon.FlushSafeQueue()

		// Wait for b to learn the disposition.
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if _, ok := b.mon.Outcome(tx); ok {
				break
			}
			a.mon.FlushSafeQueue()
			time.Sleep(2 * time.Millisecond)
		}
		ao, aok := a.mon.Outcome(tx)
		bo, bok := b.mon.Outcome(tx)
		if !aok || !bok {
			t.Fatalf("tx %d: dispositions unknown: a=%v b=%v (End err: %v)", i, aok, bok, err)
		}
		if ao != bo {
			t.Fatalf("tx %d: decision not uniform: a=%s b=%s (End err: %v)", i, ao, bo, err)
		}
		if err == nil && ao != audit.OutcomeCommitted {
			t.Fatalf("tx %d: End succeeded but outcome is %s", i, ao)
		}
		if errors.Is(err, ErrAborted) && ao != audit.OutcomeAborted {
			t.Fatalf("tx %d: End reported abort but outcome is %s", i, ao)
		}
	}
}

func TestSafeDeliverySurvivesRepeatedPartitions(t *testing.T) {
	// Queue a phase-two message across a partition, flap the link a few
	// times, and confirm delivery eventually happens exactly once.
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(2)
	a.mon.NoteRemoteSend(tx, "b")
	a.insert(t, "b", tx, "k", "v")
	a.mon.SetPhase1Hook(func(txid.ID) { net.Partition("b") })
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.mon.SetPhase1Hook(nil)

	for i := 0; i < 3; i++ {
		net.HealAll()
		net.Partition("b")
	}
	net.HealAll()
	// b records the outcome before it broadcasts "ended": wait for the
	// state, which implies the record.
	waitFor(t, func() bool { return b.mon.State(tx) == txid.StateEnded })
	if o, ok := b.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Errorf("b outcome = %v, %v", o, ok)
	}
	if !a.mon.WaitSafeQueueEmpty(2 * time.Second) {
		t.Error("safe queue never drained")
	}
	// MAT holds exactly one record for the transaction.
	count := 0
	for _, rec := range b.mon.MonitorTrail().Records() {
		if rec.Tx == tx {
			count++
		}
	}
	if count != 1 {
		t.Errorf("b MAT records for tx = %d, want 1", count)
	}
}

func TestForgetAfterTerminal(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, _ := a.mon.Begin(0)
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.mon.Forget(tx)
	if st := a.mon.State(tx); st != txid.StateNone {
		t.Errorf("state after Forget = %v", st)
	}
	// A straggler op for the forgotten transid is rejected.
	if err := a.mon.RegisterLocalVolume(tx, "v-a"); !errors.Is(err, ErrUnknownTx) {
		t.Errorf("err = %v, want ErrUnknownTx", err)
	}
}
