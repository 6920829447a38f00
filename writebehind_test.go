package encompass_test

import (
	"testing"
	"time"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/obs"
)

// TestWriteBehindCrashBeforePhaseOne: a participant whose write-behind
// force has made a remote transaction's images durable crashes before
// phase one reaches it. The home's END must abort, and the participant's
// recovery must find no commit for those durable images and leave the
// record backed out; the home's trace still passes Figure 3.
func TestWriteBehindCrashBeforePhaseOne(t *testing.T) {
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
		TraceCapacity: 64,
	})
	defer sys.Stop()
	a, b := sys.Node("a"), sys.Node("b")
	if err := sys.CreateFileEverywhere(encompass.LocalFile("fb", encompass.KeySequenced, "b", "vb")); err != nil {
		t.Fatal(err)
	}
	arch := b.TakeArchive()

	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("fb", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	trail := b.Volumes["vb"].Trail
	deadline := time.Now().Add(3 * time.Second)
	for !trail.Forced(trail.AppendedLSN()) {
		if time.Now().After(deadline) {
			t.Fatal("the participant never wrote the images behind")
		}
		time.Sleep(time.Millisecond)
	}
	if len(trail.ImagesFor(tx.ID)) != 1 {
		t.Fatalf("durable images on b = %d, want 1", len(trail.ImagesFor(tx.ID)))
	}

	b.Crash()
	if err := tx.Commit(); err == nil {
		t.Fatal("END committed with its participant down before phase one")
	}
	if o, _ := a.TMF.Outcome(tx.ID); o != audit.OutcomeAborted {
		t.Fatalf("home outcome = %v, want aborted", o)
	}
	if _, err := b.Recover(arch); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if v, err := b.FS.Read("fb", "k"); err == nil {
		t.Fatalf("recovered participant still holds the aborted insert %q", v)
	}
	if !a.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("the abort never reached the recovered participant")
	}
	// The home's trace is the whole lifecycle. The participant's ends
	// where the crash erased its transaction table, so its transitions are
	// checked by the runtime checker instead of the terminal-state rule.
	if err := obs.CheckTrace(a.TMF.Tracer().Trace(tx.ID)); err != nil {
		t.Errorf("trace oracle on a: %v\n%s", err, a.TMF.Tracer().Dump(tx.ID))
	}
	for _, n := range sys.Nodes() {
		if vs := n.TMF.Checker().Violations(); len(vs) > 0 {
			t.Errorf("runtime checker on %s: %v", n.Name, vs)
		}
	}
}
