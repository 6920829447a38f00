package experiments

import (
	"fmt"
	"sync"
	"time"

	"encompass"
	"encompass/internal/obs"
)

const (
	t9Nodes      = 3
	t9VolsPer    = 3
	t9Txs        = 25
	t9ForceDelay = 500 * time.Microsecond
	t9Committers = 8
	t9PerWorker  = 6
)

// t9Build assembles t9Nodes nodes, each with t9VolsPer audited volumes in
// separate audit groups (so every volume has its own trail to force), and
// one file per volume.
func t9Build() (*encompass.System, []string, []string, error) {
	var specs []encompass.NodeSpec
	var nodes, files []string
	for i := 0; i < t9Nodes; i++ {
		name := string(rune('a' + i))
		nodes = append(nodes, name)
		var vols []encompass.VolumeSpec
		for v := 0; v < t9VolsPer; v++ {
			vols = append(vols, encompass.VolumeSpec{
				Name: fmt.Sprintf("v%s%d", name, v), Audited: true, CacheSize: 1024,
			})
		}
		specs = append(specs, encompass.NodeSpec{Name: name, CPUs: 4, Volumes: vols})
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes:           specs,
		AuditForceDelay: t9ForceDelay,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for _, n := range nodes {
		for v := 0; v < t9VolsPer; v++ {
			f := fmt.Sprintf("f%s%d", n, v)
			vol := fmt.Sprintf("v%s%d", n, v)
			if err := sys.CreateFileEverywhere(encompass.LocalFile(f, encompass.KeySequenced, n, vol)); err != nil {
				return nil, nil, nil, err
			}
			files = append(files, f)
		}
	}
	return sys, nodes, files, nil
}

// t9Run times t9Txs transactions that each touch every volume on every node
// (t9Nodes*t9VolsPer participants per commit). The home node's metrics
// registry comes back with the elapsed time so T9 can report per-phase
// latency histograms.
func t9Run() (time.Duration, *obs.Registry, error) {
	sys, nodes, files, err := t9Build()
	if err != nil {
		return 0, nil, err
	}
	home := sys.Node(nodes[0])
	start := time.Now()
	for i := 0; i < t9Txs; i++ {
		tx, err := home.Begin()
		if err != nil {
			return 0, nil, err
		}
		for _, f := range files {
			if err := tx.Insert(f, fmt.Sprintf("k%06d", i), []byte("v")); err != nil {
				return 0, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, nil, err
		}
	}
	return time.Since(start), home.TMF.Registry(), nil
}

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
func T9() *Report {
	r := &Report{
		Columns: []string{
			"configuration", "txs", "participants/tx", "elapsed", "per-commit",
		},
	}
	fail := func(err error) *Report {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	participants := t9Nodes * t9VolsPer

	elapsed, reg, err := t9Run()
	if err != nil {
		return fail(err)
	}
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
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "g", CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "vg", Audited: true, CacheSize: 1024}},
		}},
		AuditForceDelay: t9ForceDelay,
	})
	if err != nil {
		return fail(err)
	}
	node := sys.Node("g")
	if err := node.FS.Create(encompass.LocalFile("fg", encompass.KeySequenced, "g", "vg")); err != nil {
		return fail(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, t9Committers)
	gcStart := time.Now()
	for w := 0; w < t9Committers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < t9PerWorker; i++ {
				tx, err := node.Begin()
				if err != nil {
					errs <- err
					return
				}
				if err := tx.Insert("fg", fmt.Sprintf("k%d-%d", w, i), []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return fail(err)
	}
	gcElapsed := time.Since(gcStart)
	gcTxs := t9Committers * t9PerWorker
	st := node.Volumes["vg"].Trail.ForceStats()
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
	return r
}
