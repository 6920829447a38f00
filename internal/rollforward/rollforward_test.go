package rollforward

import (
	"errors"
	"fmt"
	"testing"

	"encompass/internal/audit"
	"encompass/internal/disk"
	"encompass/internal/txid"
)

func tx(n uint64) txid.ID { return txid.ID{Home: "home", CPU: 0, Seq: n} }

type fixture struct {
	vol   *disk.Volume
	trail *audit.Trail
	mat   *audit.MonitorTrail
}

func newFixture() *fixture {
	return &fixture{
		vol:   disk.NewVolume("v1"),
		trail: audit.NewTrail("a1", 0),
		mat:   audit.NewMonitorTrail(0),
	}
}

// runTx simulates a transaction writing records + images, then commits or
// aborts it. Committed transactions have their images forced (phase one).
func (f *fixture) runTx(id txid.ID, keys []string, val string, commit bool) {
	for _, k := range keys {
		before, _ := f.vol.Read("data", k) // nil if absent
		kind := audit.ImageUpdate
		if before == nil {
			kind = audit.ImageInsert
		}
		f.trail.Append(audit.Image{
			Tx: id, Volume: "v1", File: "data", Key: k,
			Kind: kind, Before: before, After: []byte(val),
		})
		f.vol.Write("data", k, []byte(val))
	}
	if commit {
		f.trail.ForceAll()
		f.mat.Append(id, audit.OutcomeCommitted)
	} else {
		f.mat.Append(id, audit.OutcomeAborted)
	}
}

func noNegotiation(t *testing.T) Resolver {
	return func(id txid.ID) (bool, error) {
		t.Errorf("unexpected negotiation for %s", id)
		return false, nil
	}
}

func (f *fixture) recover(t *testing.T, a *Archive, r Resolver) Stats {
	t.Helper()
	st, err := Recover(a,
		map[string]*disk.Volume{"v1": f.vol},
		map[string]*audit.Trail{"a1": f.trail},
		f.mat, r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func (f *fixture) archive() *Archive {
	return Take("home", map[string]*disk.Volume{"v1": f.vol}, map[string]*audit.Trail{"a1": f.trail},
		func(id txid.ID) bool { _, ok := f.mat.OutcomeOf(id); return ok })
}

func TestRecoverRedoesCommittedWork(t *testing.T) {
	f := newFixture()
	f.runTx(tx(1), []string{"a", "b"}, "v1", true)
	arch := f.archive()
	// Post-archive committed work must be replayed.
	f.runTx(tx(2), []string{"b", "c"}, "v2", true)

	// Crash: disc damaged, unforced tail lost.
	f.trail.CrashLoseUnforced()
	f.vol.Wipe()

	st := f.recover(t, arch, noNegotiation(t))
	if st.VolumesRestored != 1 || st.TxCommitted != 1 || st.ImagesReplayed != 2 {
		t.Errorf("stats = %+v", st)
	}
	for k, want := range map[string]string{"a": "v1", "b": "v2", "c": "v2"} {
		got, err := f.vol.Read("data", k)
		if err != nil || string(got) != want {
			t.Errorf("%s = %q, %v; want %q", k, got, err, want)
		}
	}
}

func TestRecoverDiscardsUncommittedWork(t *testing.T) {
	f := newFixture()
	f.runTx(tx(1), []string{"a"}, "committed", true)
	arch := f.archive()

	// A transaction updates the disc but never commits; its images were
	// never forced and the crash loses them — the classic no-WAL hazard
	// ROLLFORWARD exists to repair.
	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "a",
		Kind: audit.ImageUpdate, Before: []byte("committed"), After: []byte("dirty")})
	f.vol.Write("data", "a", []byte("dirty"))

	f.trail.CrashLoseUnforced()

	st := f.recover(t, arch, noNegotiation(t))
	got, _ := f.vol.Read("data", "a")
	if string(got) != "committed" {
		t.Errorf("a = %q, want committed (dirty update must vanish)", got)
	}
	if st.ImagesReplayed != 0 {
		t.Errorf("replayed %d images, want 0", st.ImagesReplayed)
	}
}

func TestRecoverNegotiatesEndingTransactions(t *testing.T) {
	// A transaction was in ENDING state at the failure: its images were
	// forced (phase one) but the local commit record is missing. The
	// resolver (remote TMP negotiation) decides.
	f := newFixture()
	arch := f.archive()

	f.trail.Append(audit.Image{Tx: tx(9), Volume: "v1", File: "data", Key: "k",
		Kind: audit.ImageInsert, After: []byte("v")})
	f.trail.ForceAll() // phase one completed
	// ... crash before the MAT write.
	f.trail.CrashLoseUnforced()
	f.vol.Wipe()

	asked := 0
	resolver := func(id txid.ID) (bool, error) {
		asked++
		if id != tx(9) {
			t.Errorf("negotiated %s, want %s", id, tx(9))
		}
		return true, nil // home node says: committed
	}
	st := f.recover(t, arch, resolver)
	if asked != 1 || st.Negotiated != 1 {
		t.Errorf("negotiations = %d (stats %+v)", asked, st)
	}
	got, err := f.vol.Read("data", "k")
	if err != nil || string(got) != "v" {
		t.Errorf("k = %q, %v", got, err)
	}

	// And the abort answer discards the work.
	f2 := newFixture()
	arch2 := f2.archive()
	f2.trail.Append(audit.Image{Tx: tx(3), Volume: "v1", File: "data", Key: "k",
		Kind: audit.ImageInsert, After: []byte("v")})
	f2.trail.ForceAll()
	f2.vol.Wipe()
	st2 := f2.recover(t, arch2, func(txid.ID) (bool, error) { return false, nil })
	if ok, _ := f2.vol.Exists("data", "k"); ok {
		t.Error("aborted-by-negotiation work survived")
	}
	if st2.TxDiscarded != 1 {
		t.Errorf("stats = %+v", st2)
	}
}

func TestRecoverDeleteImages(t *testing.T) {
	f := newFixture()
	f.runTx(tx(1), []string{"k"}, "v", true)
	arch := f.archive()
	// Committed delete after the archive.
	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "k",
		Kind: audit.ImageDelete, Before: []byte("v")})
	f.vol.Delete("data", "k")
	f.trail.ForceAll()
	f.mat.Append(tx(2), audit.OutcomeCommitted)

	f.vol.Wipe()
	f.recover(t, arch, noNegotiation(t))
	if ok, _ := f.vol.Exists("data", "k"); ok {
		t.Error("deleted record resurrected by rollforward")
	}
}

func TestRecoverMissingSnapshot(t *testing.T) {
	f := newFixture()
	arch := &Archive{Node: "home", Snapshots: map[string]map[string]map[string][]byte{}, TrailLSNs: map[string]uint64{}}
	_, err := Recover(arch, map[string]*disk.Volume{"v1": f.vol}, nil, f.mat, noNegotiation(t))
	if err == nil {
		t.Error("missing snapshot should fail")
	}
}

func TestRecoverResolverError(t *testing.T) {
	f := newFixture()
	arch := f.archive()
	f.trail.Append(audit.Image{Tx: tx(5), Volume: "v1", File: "data", Key: "k",
		Kind: audit.ImageInsert, After: []byte("v")})
	f.trail.ForceAll()
	wantErr := errors.New("home unreachable")
	_, err := Recover(arch, map[string]*disk.Volume{"v1": f.vol},
		map[string]*audit.Trail{"a1": f.trail}, f.mat,
		func(txid.ID) (bool, error) { return false, wantErr })
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped resolver error", err)
	}
}

func TestArchiveIsolatedFromLiveVolume(t *testing.T) {
	f := newFixture()
	f.runTx(tx(1), []string{"a"}, "v1", true)
	arch := f.archive()
	f.runTx(tx(2), []string{"a"}, "v2", true)
	if string(arch.Snapshots["v1"]["data"]["a"]) != "v1" {
		t.Error("archive aliased live volume")
	}
}

func TestFuzzyArchiveUndoesLostLiveTransaction(t *testing.T) {
	// A transaction is live (unresolved, images unforced) when the archive
	// is copied: the snapshot carries its in-place update. The crash then
	// destroys its unforced audit records, so no trail record can repair
	// the dirt — only the archive's Undo set can.
	f := newFixture()
	f.runTx(tx(1), []string{"a"}, "clean", true)

	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "a",
		Kind: audit.ImageUpdate, Before: []byte("clean"), After: []byte("dirty")})
	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "b",
		Kind: audit.ImageInsert, After: []byte("dirty-insert")})
	f.vol.Write("data", "a", []byte("dirty"))
	f.vol.Write("data", "b", []byte("dirty-insert"))

	arch := f.archive() // fuzzy: tx(2) live, its images unforced
	f.trail.CrashLoseUnforced()

	st := f.recover(t, arch, noNegotiation(t))
	if st.UndoApplied != 2 {
		t.Errorf("stats = %+v, want 2 undo records applied", st)
	}
	if got, _ := f.vol.Read("data", "a"); string(got) != "clean" {
		t.Errorf("a = %q, want pre-transaction value restored", got)
	}
	if ok, _ := f.vol.Exists("data", "b"); ok {
		t.Error("insert by lost live transaction survived recovery")
	}
}

func TestFuzzyArchiveCoversLiveTransactionThatCommits(t *testing.T) {
	// The same live-at-archive transaction instead commits before the
	// crash: its records are forced, and the widened replay window must
	// redo them over the Undo-reverted snapshot.
	f := newFixture()
	f.runTx(tx(1), []string{"a"}, "clean", true)

	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "a",
		Kind: audit.ImageUpdate, Before: []byte("clean"), After: []byte("final")})
	f.vol.Write("data", "a", []byte("final"))

	arch := f.archive() // tx(2) still unresolved
	f.trail.ForceAll()
	f.mat.Append(tx(2), audit.OutcomeCommitted)

	f.trail.CrashLoseUnforced()
	st := f.recover(t, arch, noNegotiation(t))
	if got, _ := f.vol.Read("data", "a"); string(got) != "final" {
		t.Errorf("a = %q, want committed value replayed (stats %+v)", got, st)
	}
}

func TestReplayUndoesStraddlingAbort(t *testing.T) {
	// A transaction's update lands in the snapshot, the transaction
	// aborts *after* the archive (abort recorded in the MAT, images
	// forced), and the backout itself is lost with the crash. The replay
	// must apply the aborted transaction's first-write before-image.
	f := newFixture()
	f.runTx(tx(1), []string{"a"}, "clean", true)
	arch := f.archive()

	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "a",
		Kind: audit.ImageUpdate, Before: []byte("clean"), After: []byte("dirty")})
	f.trail.Append(audit.Image{Tx: tx(2), Volume: "v1", File: "data", Key: "a",
		Kind: audit.ImageUpdate, Before: []byte("dirty"), After: []byte("dirtier")})
	f.vol.Write("data", "a", []byte("dirtier"))
	f.trail.ForceAll()
	f.mat.Append(tx(2), audit.OutcomeAborted)

	// Simulate the snapshot containing the dirt: wipe and restore happen
	// inside Recover; here the "snapshot" is the pre-dirt state, so
	// instead exercise the stream-undo path by NOT wiping — Recover's
	// restore puts back "clean", replay sees tx(2) aborted and applies
	// the first-write before-image "clean" (not the second's "dirty").
	st := f.recover(t, arch, noNegotiation(t))
	if got, _ := f.vol.Read("data", "a"); string(got) != "clean" {
		t.Errorf("a = %q, want first-write before-image (stats %+v)", got, st)
	}
	if st.ImagesUndone != 1 {
		t.Errorf("stats = %+v, want exactly one before-image applied", st)
	}
}

func TestLargeHistoryReplay(t *testing.T) {
	f := newFixture()
	arch := f.archive()
	const n = 2000
	for i := 0; i < n; i++ {
		f.runTx(tx(uint64(i+1)), []string{fmt.Sprintf("k%04d", i)}, "v", true)
	}
	f.vol.Wipe()
	st := f.recover(t, arch, noNegotiation(t))
	if st.ImagesReplayed != n || st.TxCommitted != n {
		t.Errorf("stats = %+v", st)
	}
	if got := len(f.vol.Keys("data")); got != n {
		t.Errorf("records after replay = %d, want %d", got, n)
	}
}
