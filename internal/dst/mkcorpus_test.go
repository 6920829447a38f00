package dst

import (
	"os"
	"testing"
)

// TestWriteCorpusEntries regenerates the checked-in corpus entries from
// their root seeds. Gated by DST_MKCORPUS=1; run manually when an entry's
// schedule needs to be re-derived.
func TestWriteCorpusEntries(t *testing.T) {
	if os.Getenv("DST_MKCORPUS") != "1" {
		t.Skip("set DST_MKCORPUS=1 to regenerate corpus entries")
	}
	full := Generate(1)

	min := full
	min.Minimized = true
	min.Events = []Event{{Step: 7, Op: OpCrashCPU, Node: "n1", Index: 0}}
	if err := SaveCorpusEntry("corpus", CorpusEntry{
		Name:        "seed1-stale-state-table",
		Description: "A reloaded CPU came back with an empty replicated transaction-state table; Monitor.State consulted it (lowest-numbered up CPU) and reported committed transactions as never-begun, so the end-of-run operator sweep backed out committed work past the commit point. Fixed by reseeding the table from a surviving CPU on EventCPUUp and refusing abort when the MAT already records a commit.",
		Schedule:    min,
	}); err != nil {
		t.Fatal(err)
	}

	if err := SaveCorpusEntry("corpus", CorpusEntry{
		Name:        "seed1-takeover-storm",
		Description: "Full generated schedule for seed 1: repeated CPU-0 crashes force TMP and DISCPROCESS takeovers mid-transaction. Flushed out three takeover bugs: update/delete checkpoints not carrying the guarding record lock, processes outliving their CPU incarnation after a revive, and zombie pair members mutating shared state after their CPU died.",
		Schedule:    full,
	}); err != nil {
		t.Fatal(err)
	}

	if err := SaveCorpusEntry("corpus", CorpusEntry{
		Name:        "seed3-coord-kill",
		Description: "Coordinator-kill shape under Paxos Commit: the phase1-kill hook crashes the coordinator CPU between phase one and the commit record of a distributed END and holds it dead for the rest of the run. The nonblocking check requires every in-doubt participant to learn the disposition from the acceptor quorum while the coordinator is still down — the exact scenario where the abbreviated protocol blocks holding locks.",
		Schedule:    GenerateShaped(3, ShapeCoordKill),
	}); err != nil {
		t.Fatal(err)
	}

	if err := SaveCorpusEntry("corpus", CorpusEntry{
		Name:        "seed5-phase-partition",
		Description: "Phase-boundary partition shape: the interconnect between a coordinator and its neighbor is severed between phase one and the commit record of a distributed END (the paper's manual-override window), healed a step or two later. Runs under a seed-chosen protocol; both must converge to one disposition after the heal with no lost locks.",
		Schedule:    GenerateShaped(5, ShapePhasePartition),
	}); err != nil {
		t.Fatal(err)
	}
}
