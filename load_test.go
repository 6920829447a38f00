package encompass_test

import (
	"fmt"
	"testing"
	"time"

	"encompass"
	"encompass/internal/workload"
)

// TestLoadShortOpenLoop is the `make load-short` gate: a short open-loop
// run of workload.Driver under the race detector, followed by the Figure 3
// trace oracle over every captured transaction. It checks Driver's own
// bookkeeping (issued = committed + failed, one histogram observation per
// issued transaction, Elapsed covers the straggler drain) and that the
// hot path leaves the transaction state machine observably correct under
// load.
func TestLoadShortOpenLoop(t *testing.T) {
	terminals, rate := 150, 900.0
	duration, warmup := 1200*time.Millisecond, 200*time.Millisecond
	if testing.Short() {
		terminals, rate, duration = 100, 600.0, 900*time.Millisecond
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "solo", CPUs: 4,
			Volumes: []encompass.VolumeSpec{
				{Name: "v1", Audited: true, CacheSize: 1024},
				{Name: "v2", Audited: true, CacheSize: 1024},
			},
		}},
		TraceCapacity: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Node("solo")
	for v := 1; v <= 2; v++ {
		if err := sys.CreateFileEverywhere(encompass.LocalFile(fmt.Sprintf("t%d", v), encompass.KeySequenced, "solo", fmt.Sprintf("v%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	termKey := func(term int) string { return fmt.Sprintf("term-%04d", term) }
	termFile := func(term int) string { return fmt.Sprintf("t%d", term%2+1) }
	const chunk = 64
	for base := 0; base < terminals; base += chunk {
		tx, err := node.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for term := base; term < base+chunk && term < terminals; term++ {
			if err := tx.Insert(termFile(term), termKey(term), []byte("0")); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	res, err := workload.Driver{
		Terminals: terminals,
		Rate:      rate,
		Duration:  duration,
		Warmup:    warmup,
		Seed:      42,
	}.Run(func(term, seq int) error {
		tx, err := node.Begin()
		if err != nil {
			return err
		}
		cur, err := tx.ReadLock(termFile(term), termKey(term))
		if err != nil {
			tx.Abort(err.Error())
			return err
		}
		if err := tx.Update(termFile(term), termKey(term), append(cur[:0:0], cur...)); err != nil {
			tx.Abort(err.Error())
			return err
		}
		return tx.Commit()
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Issued == 0 || res.Committed == 0 {
		t.Fatalf("no load issued: %+v", res)
	}
	if res.Issued != res.Committed+res.Failed {
		t.Errorf("issued %d != committed %d + failed %d", res.Issued, res.Committed, res.Failed)
	}
	if res.Failed != 0 {
		t.Errorf("%d transactions failed (terminals touch only their own record; none should)", res.Failed)
	}
	if res.Hist.Count != uint64(res.Issued) {
		t.Errorf("histogram holds %d observations for %d issued transactions", res.Hist.Count, res.Issued)
	}
	// Elapsed spans warmup-end to the last completion: about the measured
	// window when the system keeps up (the final per-terminal gap may leave
	// the tail quiet), longer when stragglers drain past it.
	if res.Elapsed < duration/2 {
		t.Errorf("Elapsed = %v, want >= %v (half the measured window)", res.Elapsed, duration/2)
	}

	// Figure 3 oracle over every captured trace, zero checker violations.
	if validated := validateAllTraces(t, sys); validated < res.Committed {
		t.Errorf("validated %d traces for %d committed transactions", validated, res.Committed)
	}
}
