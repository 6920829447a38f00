package tmf

import (
	"errors"
	"testing"

	"encompass/internal/audit"
	"encompass/internal/hw"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// Regression tests for the stale-state-table bug flushed out by the DST
// explorer (corpus entry seed1-stale-state-table): a transaction that
// commits while a CPU is down is broadcast only to the CPUs that are up.
// When the downed CPU reloads, its replicated state table must be brought
// current — and, independently, the commit record in the MAT must make
// backout impossible no matter what the volatile tables claim.

func TestRevivedCPUStateTableReseeded(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]

	// CPU 0 is down for the whole transaction: every state broadcast
	// misses it. CPU 0 is also the lowest-numbered CPU, so after a reload
	// Monitor.State consults *its* replica first.
	a.hw.FailCPU(0)

	tx, err := a.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatalf("End: %v", err)
	}
	if st := a.mon.StateOnCPU(tx, 0); st != txid.StateNone {
		t.Fatalf("downed CPU somehow received broadcasts: state = %v", st)
	}

	a.hw.ReviveCPU(0)
	waitFor(t, func() bool { return a.mon.StateOnCPU(tx, 0) == txid.StateEnded })
	if st := a.mon.State(tx); st != txid.StateEnded {
		t.Fatalf("State after reload = %v, want Ended (stale replica consulted)", st)
	}

	// The operator's stuck-transaction sweep aborts anything non-terminal.
	// With a truthful table this is a no-op; before the fix it saw
	// StateNone and backed out the committed transaction.
	a.mon.Abort(tx, "end-of-run sweep")
	if o, ok := a.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Fatalf("outcome after sweep = %v, %v; committed work was backed out", o, ok)
	}
	if v, err := a.read(t, "a", "k"); err != nil || v != "v" {
		t.Fatalf("read after sweep = %q, %v; committed write lost", v, err)
	}
}

func TestCommitRecordBlocksBackout(t *testing.T) {
	// Commit while CPU 0 is down, then lose the remaining CPUs before CPU
	// 0 reloads: no surviving replica can reseed the tables, so the
	// transaction is genuinely unknown to the volatile state. The MAT
	// still has its commit record — "writing the commit record is the
	// commit point" — so abort must refuse.
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]

	a.hw.FailCPU(0)
	tx, err := a.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	a.insert(t, "a", tx, "k", "v")
	if err := a.mon.End(tx); err != nil {
		t.Fatalf("End: %v", err)
	}

	// Total node failure: the replicas that saw the commit are gone.
	for cpu := 1; cpu < 4; cpu++ {
		a.hw.FailCPU(cpu)
	}
	for cpu := 0; cpu < 4; cpu++ {
		a.hw.ReviveCPU(cpu)
	}
	waitFor(t, func() bool { return a.mon.State(tx) == txid.StateNone })

	a.mon.Abort(tx, "operator sweep after total node failure")
	if o, ok := a.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Fatalf("outcome = %v, %v; abort overrode the commit point", o, ok)
	}
	if a.mon.State(tx) == txid.StateAborting {
		t.Fatal("abort proceeded past the MAT commit-record guard")
	}
}

// TestDecisionsIgnoreStaleReplica: a processor that reloads comes back
// with an empty state table, and the monitor reseeds it only after every
// hardware watcher registered before it has run. A decision made in that
// window must not read the table: an END must commit, and an abort must
// take the transaction active → aborting, not none → aborting.
func TestDecisionsIgnoreStaleReplica(t *testing.T) {
	for _, op := range []string{"End", "Abort"} {
		t.Run(op, func(t *testing.T) {
			var (
				a     *testNode
				tx    txid.ID
				opErr = errors.New("CPU 0 never came back up")
			)
			nodes, _ := buildCluster(t, "", 0, nil, func(n *hw.Node) {
				n.Watch(func(e hw.Event) {
					if e.Kind != hw.EventCPUUp || e.CPU != 0 || a == nil {
						return
					}
					// CPU 0 is up, and its table is still empty.
					if op == "End" {
						opErr = a.mon.End(tx)
					} else {
						opErr = a.mon.Abort(tx, "test")
					}
				})
			}, "a")
			a = nodes["a"]
			a.mon.tracer = obs.NewTracer(16)
			a.hw.FailCPU(0)
			var err error
			if tx, err = a.mon.Begin(1); err != nil {
				t.Fatal(err)
			}
			a.insert(t, "a", tx, "k", "v")
			a.hw.ReviveCPU(0)
			if opErr != nil {
				t.Fatalf("%s while CPU 0's table was empty: %v", op, opErr)
			}
			want := audit.OutcomeCommitted
			if op == "Abort" {
				want = audit.OutcomeAborted
			}
			if o, ok := a.mon.Outcome(tx); !ok || o != want {
				t.Errorf("outcome = %v, %v; want %v", o, ok, want)
			}
			if v := a.mon.Checker().Violations(); len(v) != 0 {
				t.Errorf("Figure-3 violations: %v", v)
			}
			if err := obs.CheckTrace(a.mon.Tracer().Trace(tx)); err != nil {
				t.Errorf("%v\n%s", err, a.mon.Tracer().Dump(tx))
			}
		})
	}
}
