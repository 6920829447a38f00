package dst

import (
	"strings"
	"testing"

	"encompass"
	"encompass/internal/audit"
)

// TestHomeCrashPresumesAbort: an abort record is not forced, so a home
// that crashes right after an abort may recover with no record of it. A
// child that asks about the transaction afterwards must still learn that
// it aborted, and the nodes' Monitor Audit Trails must still agree.
func TestHomeCrashPresumesAbort(t *testing.T) {
	sys, err := encompass.Build(encompass.Config{Nodes: []encompass.NodeSpec{
		{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
		{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	for _, f := range []encompass.FileInfo{
		encompass.LocalFile("fa", encompass.KeySequenced, "a", "va"),
		encompass.LocalFile("fb", encompass.KeySequenced, "b", "vb"),
	} {
		if err := sys.CreateFileEverywhere(f); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sys.Node("a"), sys.Node("b")
	arch := a.TakeArchive()

	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fa", "fb"} {
		if err := tx.Insert(f, "k", []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Abort("test"); err != nil {
		t.Fatal(err)
	}
	if o, ok := b.TMF.Outcome(tx.ID); !ok || o != audit.OutcomeAborted {
		t.Fatalf("child outcome after Abort = %v, %v", o, ok)
	}

	a.Crash()
	if _, err := a.Recover(arch); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if o, ok := a.TMF.Outcome(tx.ID); ok {
		t.Fatalf("the home kept its unforced abort record (%v) across the crash", o)
	}
	r, err := b.TMF.QueryRemote("a", tx.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Known || r.Committed || !strings.HasPrefix(r.Decider, "presumed abort on a") {
		t.Errorf("child's query after the home's recovery = %+v, want known, aborted, presumed", r)
	}
	if err := checkMATAgreement(sys, nil, nil); err != nil {
		t.Error(err)
	}
	for _, n := range []*encompass.Node{a, b} {
		f := "f" + n.Name
		if _, err := n.FS.Read(f, "k"); err == nil {
			t.Errorf("%s/k survived the abort on %s", f, n.Name)
		}
	}
}
