package tmf

import (
	"fmt"
	"strings"
	"testing"
)

// TestAbortCheckpointsPerVolume: backing a transaction out of the one
// volume it touched costs that volume's DISCPROCESS pair three checkpoints
// — the freeze, one undo record for all its before-images, and the endtx —
// however many records the transaction changed.
func TestAbortCheckpointsPerVolume(t *testing.T) {
	for _, n := range []int{1, 40} {
		t.Run(fmt.Sprintf("%d-images", n), func(t *testing.T) {
			nodes, _ := testCluster(t, "a")
			a := nodes["a"]
			tx, err := a.mon.Begin(2)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				a.insert(t, "a", tx, fmt.Sprintf("k%02d", i), "v")
			}
			before := a.disc.Pair.Stats().Checkpoints
			if err := a.mon.Abort(tx, "test"); err != nil {
				t.Fatal(err)
			}
			if got := a.disc.Pair.Stats().Checkpoints - before; got != 3 {
				t.Errorf("abort of %d images = %d checkpoints, want 3 (freeze, undo, endtx)", n, got)
			}
			if v, err := a.read(t, "a", "k00"); err == nil {
				t.Errorf("k00 = %q after the backout of its insert", v)
			}
		})
	}
}

// TestBackoutCountsUnreadableRecords: a before-image the BACKOUTPROCESS
// cannot read is an update left un-undone. The abort still restores what
// is readable, but it counts a scan failure and says in its reason how
// many records of which trail it could not read.
func TestBackoutCountsUnreadableRecords(t *testing.T) {
	nodes, _ := testCluster(t, "a")
	a := nodes["a"]
	tx, err := a.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		a.insert(t, "a", tx, k, "v")
	}
	imgs := a.trail.ImagesForUnforced(tx)
	if len(imgs) != 3 || !a.trail.Corrupt(imgs[1].LSN) {
		t.Fatalf("images = %+v, want three to damage the second of", imgs)
	}
	if err := a.mon.Abort(tx, "test"); err != nil {
		t.Fatal(err)
	}
	if got := a.mon.Stats().BackoutScanFailures; got != 1 {
		t.Errorf("backout scan failures = %d, want 1", got)
	}
	if r, want := a.mon.AbortReason(tx), "backout incomplete: 1 unreadable records on trail audit"; !strings.Contains(r, want) {
		t.Errorf("abort reason = %q, want it to contain %q", r, want)
	}
	for _, k := range []string{"k0", "k2"} {
		if v, err := a.read(t, "a", k); err == nil {
			t.Errorf("%s = %q after the backout of its insert", k, v)
		}
	}
	if v, err := a.read(t, "a", "k1"); err != nil || v != "v" {
		t.Errorf("k1 = %q, %v: its image was unreadable, so the insert stands", v, err)
	}
}
