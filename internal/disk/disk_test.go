package disk

import (
	"errors"
	"fmt"
	"testing"
)

func TestReadWriteRoundTrip(t *testing.T) {
	v := NewVolume("v1")
	if err := v.Write("acct", "100", []byte("balance=50")); err != nil {
		t.Fatal(err)
	}
	got, err := v.Read("acct", "100")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "balance=50" {
		t.Errorf("read = %q", got)
	}
	ok, err := v.Exists("acct", "100")
	if err != nil || !ok {
		t.Errorf("Exists = %v, %v; want true, nil", ok, err)
	}
	if _, err := v.Read("acct", "999"); !errors.Is(err, ErrNoSuchRecord) {
		t.Errorf("missing read err = %v, want ErrNoSuchRecord", err)
	}
}

// TestWriteKeepsValueReadCopies pins the volume's value ownership: Write
// keeps the slice it is given, without a copy, and Read hands out a copy
// that the caller may modify.
func TestWriteKeepsValueReadCopies(t *testing.T) {
	v := NewVolume("v1")
	buf := []byte("abc")
	v.Write("f", "k", buf)
	if n := testing.AllocsPerRun(100, func() { v.Write("f", "k", buf) }); n != 0 {
		t.Errorf("Write of a stored key = %v allocs, want 0 (the volume keeps the value)", n)
	}
	got, _ := v.Read("f", "k")
	got[1] = 'Q'
	again, _ := v.Read("f", "k")
	if string(again) != "abc" {
		t.Errorf("returned value aliased stored buffer: %q", again)
	}
}

func TestDelete(t *testing.T) {
	v := NewVolume("v1")
	v.Write("f", "k", []byte("x"))
	if err := v.Delete("f", "k"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := v.Exists("f", "k"); ok {
		t.Error("record exists after delete")
	}
	// Idempotent delete.
	if err := v.Delete("f", "k"); err != nil {
		t.Errorf("double delete: %v", err)
	}
}

func TestMirroredDriveFailure(t *testing.T) {
	v := NewVolume("v1")
	v.Write("f", "a", []byte("1"))
	if err := v.FailDrive(0); err != nil {
		t.Fatal(err)
	}
	if !v.Degraded() {
		t.Error("volume should be degraded with one drive down")
	}
	if !v.Accessible() {
		t.Error("volume must remain accessible with one drive (Figure 1 claim)")
	}
	// Reads and writes continue on the survivor.
	got, err := v.Read("f", "a")
	if err != nil || string(got) != "1" {
		t.Fatalf("degraded read = %q, %v", got, err)
	}
	if err := v.Write("f", "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	if st.DegradedWrites != 1 {
		t.Errorf("DegradedWrites = %d, want 1", st.DegradedWrites)
	}
	// Revive copies from the mirror, including writes made while degraded.
	if err := v.ReviveDrive(0); err != nil {
		t.Fatal(err)
	}
	if !v.MirrorsConsistent() {
		t.Error("mirrors inconsistent after revive")
	}
	// Fail the other drive: drive 0's revived copy serves.
	v.FailDrive(1)
	got, err = v.Read("f", "b")
	if err != nil || string(got) != "2" {
		t.Errorf("read from revived drive = %q, %v", got, err)
	}
}

func TestBothDrivesDown(t *testing.T) {
	v := NewVolume("v1")
	v.Write("f", "a", []byte("1"))
	v.FailDrive(0)
	v.FailDrive(1)
	if v.Accessible() {
		t.Error("volume should be inaccessible with both drives down")
	}
	if _, err := v.Read("f", "a"); !errors.Is(err, ErrVolumeDown) {
		t.Errorf("err = %v, want ErrVolumeDown", err)
	}
	if err := v.Write("f", "b", nil); !errors.Is(err, ErrVolumeDown) {
		t.Errorf("err = %v, want ErrVolumeDown", err)
	}
}

func TestControllerRedundancy(t *testing.T) {
	v := NewVolume("v1")
	v.Write("f", "a", []byte("1"))
	v.Controller(0).Fail()
	if !v.Accessible() {
		t.Error("one controller down must not sever access")
	}
	if _, err := v.Read("f", "a"); err != nil {
		t.Fatal(err)
	}
	v.Controller(1).Fail()
	if v.Accessible() {
		t.Error("both controllers down should sever access")
	}
	if _, err := v.Read("f", "a"); !errors.Is(err, ErrVolumeDown) {
		t.Errorf("err = %v, want ErrVolumeDown", err)
	}
	v.Controller(0).Revive()
	if _, err := v.Read("f", "a"); err != nil {
		t.Errorf("read after controller revive: %v", err)
	}
}

func TestSnapshotRestore(t *testing.T) {
	v := NewVolume("v1")
	for i := 0; i < 10; i++ {
		v.Write("f", fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	v.Write("g", "x", []byte("gx"))
	snap := v.Snapshot()

	// Mutate after snapshot; snapshot must be unaffected.
	v.Write("f", "k00", []byte("mutated"))
	if string(snap["f"]["k00"]) != "v0" {
		t.Error("snapshot aliased live data")
	}

	v.Wipe()
	if files := v.Files(); len(files) != 0 {
		t.Fatalf("files after wipe = %v", files)
	}
	v.Restore(snap)
	got, err := v.Read("f", "k05")
	if err != nil || string(got) != "v5" {
		t.Errorf("read after restore = %q, %v", got, err)
	}
	if got, _ := v.Read("g", "x"); string(got) != "gx" {
		t.Errorf("second file after restore = %q", got)
	}
	if !v.MirrorsConsistent() {
		t.Error("mirrors inconsistent after restore")
	}
}

func TestFilesAndKeysSorted(t *testing.T) {
	v := NewVolume("v1")
	v.Write("b", "2", nil)
	v.Write("a", "1", nil)
	v.Write("b", "1", nil)
	files := v.Files()
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Errorf("Files = %v", files)
	}
	keys := v.Keys("b")
	if len(keys) != 2 || keys[0] != "1" || keys[1] != "2" {
		t.Errorf("Keys = %v", keys)
	}
}

func TestReviveUpDrive(t *testing.T) {
	v := NewVolume("v1")
	if err := v.ReviveDrive(0); !errors.Is(err, ErrDriveUp) {
		t.Errorf("err = %v, want ErrDriveUp", err)
	}
	if err := v.FailDrive(7); !errors.Is(err, ErrNoSuchDrive) {
		t.Errorf("err = %v, want ErrNoSuchDrive", err)
	}
}
