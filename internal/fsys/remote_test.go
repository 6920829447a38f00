package fsys_test

import (
	"testing"
	"time"

	"encompass"
)

// TestRemoteRecordOps: a locked read, an update and appends to a file on
// another node cross the network as encoded frames, and the value and the
// keys come back out of the reply's frame.
func TestRemoteRecordOps(t *testing.T) {
	sys, err := encompass.Build(encompass.Config{Nodes: []encompass.NodeSpec{
		{Name: "a", CPUs: 2},
		{Name: "b", CPUs: 2, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Stop()
	for _, fi := range []encompass.FileInfo{
		encompass.LocalFile("acct", encompass.KeySequenced, "b", "vb"),
		encompass.LocalFile("hist", encompass.EntrySequenced, "b", "vb"),
	} {
		if err := sys.CreateFileEverywhere(fi); err != nil {
			t.Fatal(err)
		}
	}
	a, b := sys.Node("a"), sys.Node("b")
	seed, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Insert("acct", "k", []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tx.ReadLock("acct", "k"); err != nil || string(v) != "100" {
		t.Fatalf("remote ReadLock = %q, %v; want 100", v, err)
	}
	if err := tx.Update("acct", "k", []byte("150")); err != nil {
		t.Fatal(err)
	}
	k1, err := tx.Append("hist", []byte("h1"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := tx.Append("hist", []byte("h2"))
	if err != nil || k1 == "" || k1 == k2 {
		t.Fatalf("remote append keys %q, %q, %v; want two distinct keys", k1, k2, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !a.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("phase two to b did not drain")
	}

	if v, err := a.FS.Read("acct", "k"); err != nil || string(v) != "150" {
		t.Errorf("remote read after commit = %q, %v; want 150", v, err)
	}
	recs, err := b.FS.ReadRange("hist", "", "", 0)
	if err != nil || len(recs) != 2 || recs[0].Key != k1 || string(recs[0].Val) != "h1" ||
		recs[1].Key != k2 || string(recs[1].Val) != "h2" {
		t.Errorf("history on b = %+v, %v; want %s=h1, %s=h2", recs, err, k1, k2)
	}
}
