package encompass_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"encompass"
	"encompass/internal/txid"
)

func TestTotalNodeFailureRollforward(t *testing.T) {
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	a := sys.Node("a")
	sys.CreateFileEverywhere(encompass.LocalFile("f", encompass.KeySequenced, "a", "va"))

	// Committed baseline, then archive.
	tx1, _ := a.Begin()
	tx1.Insert("f", "k1", []byte("v1"))
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	arch := a.TakeArchive()

	// Post-archive committed work (must survive) ...
	tx2, _ := a.Begin()
	tx2.Insert("f", "k2", []byte("v2"))
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	// ... and uncommitted dirty work (must vanish).
	tx3, _ := a.Begin()
	tx3.Insert("f", "k3", []byte("dirty"))

	a.Crash()
	st, err := a.Recover(arch)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.VolumesRestored != 1 {
		t.Errorf("stats = %+v", st)
	}

	v, err := a.FS.Read("f", "k1")
	if err != nil || string(v) != "v1" {
		t.Errorf("k1 = %q, %v", v, err)
	}
	v, err = a.FS.Read("f", "k2")
	if err != nil || string(v) != "v2" {
		t.Errorf("k2 (post-archive committed) = %q, %v", v, err)
	}
	if _, err := a.FS.Read("f", "k3"); err == nil {
		t.Error("uncommitted k3 survived total node failure")
	}

	// The node processes transactions again after recovery.
	tx4, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx4.Insert("f", "k4", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Commit(); err != nil {
		t.Fatal(err)
	}
	// Fresh transids do not collide with pre-crash history.
	if o, ok := a.TMF.Outcome(tx4.ID); !ok || o.String() != "committed" {
		t.Errorf("post-recovery outcome = %v, %v", o, ok)
	}
}

func TestRollforwardNegotiatesWithHomeNode(t *testing.T) {
	// Distributed transaction homed on b, updating a. After a's total
	// failure the commit record lives only on b; a's recovery must ask b.
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	a, b := sys.Node("a"), sys.Node("b")
	sys.CreateFileEverywhere(encompass.LocalFile("fa", encompass.KeySequenced, "a", "va"))

	arch := a.TakeArchive()

	// b-homed transaction updates a's volume; a crashes in the in-doubt
	// window (after acknowledging phase one, before learning phase two),
	// so a's trail holds the forced images but a's Monitor Audit Trail
	// never records the outcome — only negotiation with the home node can
	// resolve it.
	b.TMF.SetPhase1Hook(func(txid.ID) { a.Crash() })
	tx, _ := b.Begin()
	if err := tx.Insert("fa", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	b.TMF.SetPhase1Hook(nil)
	st, err := a.Recover(arch)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.Negotiated == 0 {
		t.Errorf("expected negotiation with home node; stats = %+v", st)
	}
	v, err := a.FS.Read("fa", "k")
	if err != nil || string(v) != "v" {
		t.Errorf("k = %q, %v (committed work lost)", v, err)
	}
}

// TestAbortedTransferSurvivesHomeCrash: the home's abort record is not
// forced, so a crash right after a three-node abort loses it. Recovery
// must presume the abort and leave every volume byte-identical to a run
// without the crash.
func TestAbortedTransferSurvivesHomeCrash(t *testing.T) {
	run := func(crash bool) map[string]map[string]map[string][]byte {
		sys := build(t, encompass.Config{
			Nodes: []encompass.NodeSpec{
				{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
				{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
				{Name: "c", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vc", Audited: true}}},
			},
		})
		defer sys.Stop()
		files := []string{"fa", "fb", "fc"}
		for i, n := range []string{"a", "b", "c"} {
			if err := sys.CreateFileEverywhere(encompass.LocalFile(files[i], encompass.KeySequenced, n, "v"+n)); err != nil {
				t.Fatal(err)
			}
		}
		a := sys.Node("a")
		transfer := func(val string) *encompass.Tx {
			tx, err := a.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if _, err := tx.ReadLock(f, "acct"); err != nil {
					t.Fatalf("read %s: %v", f, err)
				}
				if err := tx.Update(f, "acct", []byte(val)); err != nil {
					t.Fatalf("update %s: %v", f, err)
				}
			}
			return tx
		}
		setup, _ := a.Begin()
		for _, f := range files {
			if err := setup.Insert(f, "acct", []byte("100")); err != nil {
				t.Fatal(err)
			}
		}
		if err := setup.Commit(); err != nil {
			t.Fatal(err)
		}
		arch := a.TakeArchive()
		if err := transfer("90").Commit(); err != nil { // replayed by ROLLFORWARD
			t.Fatal(err)
		}
		if !a.TMF.WaitSafeQueueEmpty(5 * time.Second) {
			t.Fatal("phase two did not drain")
		}
		aborted := transfer("0")
		if err := aborted.Abort("test"); err != nil {
			t.Fatal(err)
		}
		if crash {
			a.Crash()
			if o, ok := a.TMF.Outcome(aborted.ID); ok {
				t.Fatalf("the home kept its unforced abort record (%v) across the crash", o)
			}
			if _, err := a.Recover(arch); err != nil {
				t.Fatalf("Recover: %v", err)
			}
		}
		vols := make(map[string]map[string]map[string][]byte)
		for _, n := range sys.Nodes() {
			for name, v := range n.Volumes {
				vols[name] = v.Disk.Snapshot()
			}
		}
		return vols
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("volumes after the home's crash and recovery:\n%v\nwithout the crash:\n%v", got, want)
	}
	if v := want["va"]["fa"]["acct"]; string(v) != "90" {
		t.Errorf("fa/acct = %q, want the committed 90", v)
	}
}

// TestArchiveAfterPresumedAbort: a crash loses the unforced abort record
// of a transaction whose image a later commit forced. Recovery presumes it
// aborted and undoes it, so later archives must presume so too: each
// replays from its own generation, not from that transaction, and none
// puts its key in Undo again.
func TestArchiveAfterPresumedAbort(t *testing.T) {
	sys := oneNode(t)
	defer sys.Stop()
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	arch := n.TakeArchive()
	insert := func(key string) *encompass.Tx {
		tx, err := n.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("f", key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	aborted := insert("lost")
	if err := insert("c0").Commit(); err != nil { // forces the trail, aborted's image too
		t.Fatal(err)
	}
	if err := aborted.Abort("test"); err != nil {
		t.Fatal(err)
	}
	crashRecover(t, n, arch)
	trail := n.Volumes["v1"].Trail
	for i := 1; i <= 3; i++ {
		if err := insert(fmt.Sprintf("c%d", i)).Commit(); err != nil {
			t.Fatal(err)
		}
		a := n.TakeArchive()
		if got, gen := a.TrailLSNs[trail.Name()], trail.GenFirstLSN(a.TrailGens[trail.Name()]); got != gen {
			t.Errorf("archive %d replays from %d, not from its generation's first record %d", i, got, gen)
		}
		if u := a.Undo["v1"]["f"]; len(u) != 0 {
			t.Errorf("archive %d undoes %v", i, u)
		}
	}
}
