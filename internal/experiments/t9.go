package experiments

import (
	"fmt"
	"time"

	"encompass/internal/obs"
	"encompass/internal/workload"
)

const (
	t9Nodes      = 3
	t9VolsPer    = 3
	t9Txs        = 25
	t9ForceDelay = 500 * time.Microsecond
	t9Committers = 8
	t9PerWorker  = 6
)

// T9 measures the parallel commit fan-out and audit-trail group commit.
//
// Phase one of the paper's protocol write-forces the audit trail of every
// participating volume and sends commit requests down the transmission
// tree; those participants are independent, so the monitor may drive them
// concurrently. A transaction touching nine volumes across three nodes then
// pays roughly one force latency instead of nine. Independently, when many
// transactions commit at once, one physical trail write can cover all of
// them (group commit): committers arriving while a force is in flight ride
// along instead of issuing their own.
func t9(r *Report) error {
	r.Columns = []string{"configuration", "txs", "participants/tx", "elapsed", "per-commit"}
	participants := t9Nodes * t9VolsPer

	// t9Txs transactions that each touch every volume on every node, each
	// volume in an audit group of its own, so every one has a trail to force.
	sys, files, err := r.build(cluster{nodes: []string{"a", "b", "c"}[:t9Nodes], vols: t9VolsPer, cache: 1024, forceDelay: t9ForceDelay})
	if err != nil {
		return err
	}
	home := sys.Node("a")
	start := time.Now()
	if _, err := commit(home, 0, t9Txs, files...); err != nil {
		return err
	}
	elapsed, reg := time.Since(start), home.TMF.Registry()
	r.Rows = append(r.Rows, []string{
		"parallel protocol steps",
		i2s(t9Txs), i2s(participants), dur(elapsed), dur(elapsed / t9Txs),
	})

	// Per-phase latency histograms from the home node's registry.
	for _, h := range []struct{ label, metric string }{
		{"phase one", obs.MPhaseOne},
		{"phase two", obs.MPhaseTwo},
		{"begin→ENDED", obs.MBeginToEnded},
	} {
		r.Notes = append(r.Notes, fmt.Sprintf("%-12s %s", h.label, reg.Histogram(h.metric).Snapshot().Summary()))
	}
	// The fan-out claim is checked against its own inputs: a phase one
	// that forced the participants' trails one after another would take at
	// least participants × t9ForceDelay, so a mean under that bound can
	// only come from overlapped forces.
	phase1Mean := reg.Histogram(obs.MPhaseOne).Snapshot().Mean()
	seqBound := time.Duration(participants) * t9ForceDelay

	// --- Group commit: concurrent committers share physical forces. ---
	sys, files, err = r.build(cluster{cache: 1024, forceDelay: t9ForceDelay})
	if err != nil {
		return err
	}
	node := sys.Node("a")
	gcTxs := t9Committers * t9PerWorker
	res, err := workload.Driver{Terminals: t9Committers, Count: gcTxs}.Run(func(term, seq int) error {
		_, err := commit(node, term*t9PerWorker+seq, 1, files...)
		return err
	})
	if err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("group commit: %d of %d transactions failed", res.Failed, gcTxs)
	}
	gcElapsed := res.Elapsed
	st := node.Volumes["v-a"].Trail.ForceStats()
	r.Rows = append(r.Rows, []string{
		fmt.Sprintf("group commit (%d concurrent committers)", t9Committers),
		i2s(gcTxs), "1", dur(gcElapsed), dur(gcElapsed / time.Duration(gcTxs)),
	})

	r.Notes = append(r.Notes,
		fmt.Sprintf("fan-out: phase one forces %d trails and visits %d remote nodes concurrently; mean %s against the %s a one-after-another phase one cannot get under",
			participants, t9Nodes-1, phase1Mean.Round(time.Microsecond), seqBound),
		fmt.Sprintf("group commit: %d force requests satisfied by %d physical writes (max batch %d)",
			st.Requests, st.Forces, st.MaxBatch),
	)
	r.Pass = phase1Mean > 0 && phase1Mean < seqBound && st.Forces < st.Requests
	return nil
}
