package tmf

import (
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// durable reports whether everything appended to the node's trail is on
// disc.
func (tn *testNode) durable() bool { return tn.trail.Forced(tn.trail.AppendedLSN()) }

// TestVotedParticipantNeverBacksOutAlone partitions a participant while
// its phase one is forcing and heals the link before it votes. The
// unreachable-source sweep fires during the force, waits for the protocol
// mutex, and must then find the affirmative vote: a participant that
// voted yes holds its locks until it learns the disposition, so both
// nodes resolve the same way and a commit keeps the participant's insert.
func TestVotedParticipantNeverBacksOutAlone(t *testing.T) {
	nodes, net := buildCluster(t, "", 0, map[string]time.Duration{"b": 300 * time.Millisecond}, nil, "a", "b")
	a, b := nodes["a"], nodes["b"]
	b.mon.tracer = obs.NewTracer(obs.DefaultTraceCapacity) // before b's first transaction

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "b", tx, "k", "v")
	done := make(chan error, 1)
	go func() { done <- a.mon.End(tx) }()
	time.Sleep(60 * time.Millisecond)
	net.Partition("b")
	time.Sleep(40 * time.Millisecond)
	net.HealAll()
	endErr := <-done

	a.drain(t)
	waitFor(t, func() bool { return b.mon.State(tx).Terminal() })
	if err := obs.CheckTrace(b.mon.tracer.Trace(tx)); err != nil {
		t.Errorf("participant trace: %v\n%s", err, b.mon.tracer.Dump(tx))
	}
	ao, _ := a.mon.Outcome(tx)
	bo, ok := b.mon.Outcome(tx)
	if !ok || ao != bo {
		t.Fatalf("outcomes diverged: home %v (End: %v), participant %v (recorded %v)", ao, endErr, bo, ok)
	}
	if (endErr == nil) != (ao == audit.OutcomeCommitted) {
		t.Fatalf("End returned %v but the home recorded %v", endErr, ao)
	}
	_, err := b.read(t, "b", "k")
	if ao == audit.OutcomeCommitted && err != nil {
		t.Fatalf("committed insert gone on the participant: %v", err)
	}
	if ao == audit.OutcomeAborted && err == nil {
		t.Fatal("aborted insert survived on the participant")
	}
}

// TestParticipantWritesBehind: an update of a transaction homed on
// another node starts the participant's trail force on its own, so once
// that force has landed, phase one there asks the trail for nothing.
func TestParticipantWritesBehind(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "b", tx, "k1", "v1")
	a.insert(t, "b", tx, "k2", "v2")
	waitFor(t, b.durable)
	before := b.trail.ForceStats()
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	after := b.trail.ForceStats()
	if after.Requests != before.Requests || after.Forces != before.Forces {
		t.Fatalf("phase one forced the participant's trail again: %+v → %+v", before, after)
	}
	if o, _ := b.mon.Outcome(tx); o != audit.OutcomeCommitted {
		t.Fatalf("participant outcome = %v, want committed", o)
	}
}

// TestHomeDoesNotWriteBehind: updates of a transaction homed on this node
// leave the trail alone until END forces it at phase one.
func TestHomeDoesNotWriteBehind(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]

	tx, _ := a.mon.Begin(0)
	before := a.trail.ForceStats()
	for _, k := range []string{"k1", "k2", "k3"} {
		a.insert(t, "a", tx, k, "v")
	}
	if got := a.trail.ForceStats(); got.Requests != before.Requests || got.Forces != before.Forces {
		t.Fatalf("a local transaction's updates forced the trail: %+v → %+v", before, got)
	}
	if a.durable() {
		t.Fatal("a local transaction's images are durable before END")
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	if got := a.trail.ForceStats(); got.Forces != before.Forces+1 {
		t.Fatalf("END forced %d times, want 1", got.Forces-before.Forces)
	}
}

// TestWriteBehindCoalesces: a burst of updates of one remote transaction
// costs one force per force delay of elapsed time, plus the one a kick
// that arrives mid-force queues, not one force per update.
func TestWriteBehindCoalesces(t *testing.T) {
	const delay = 50 * time.Millisecond
	nodes, _ := buildCluster(t, "", 0, map[string]time.Duration{"b": delay}, nil, "a", "b")
	a, b := nodes["a"], nodes["b"]

	tx, _ := a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	before := b.trail.ForceStats().Forces
	start := time.Now()
	for i := range 10 {
		a.insert(t, "b", tx, "k"+string(rune('0'+i)), "v")
	}
	burst := time.Since(start)
	waitFor(t, b.durable)
	forces := b.trail.ForceStats().Forces - before
	if limit := 2 + uint64(burst/delay); forces > limit {
		t.Fatalf("10 updates in %v issued %d physical forces, want <= %d", burst, forces, limit)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	if st := a.mon.State(tx); st != txid.StateEnded {
		t.Fatalf("home state = %v, want ended", st)
	}
}
