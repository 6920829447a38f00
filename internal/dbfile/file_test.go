package dbfile

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestKeySequencedCRUD(t *testing.T) {
	f := NewFile("accounts", KeySequenced)
	if err := f.Insert("100", []byte("alice")); err != nil {
		t.Fatal(err)
	}
	if err := f.Insert("100", []byte("dup")); !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("dup insert err = %v, want ErrDuplicateKey", err)
	}
	v, err := f.Read("100")
	if err != nil || string(v) != "alice" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if err := f.Update("100", []byte("alice2")); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.Read("100"); string(v) != "alice2" {
		t.Errorf("after update = %q", v)
	}
	if err := f.Update("999", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("update absent err = %v, want ErrNotFound", err)
	}
	if err := f.Delete("100"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read("100"); !errors.Is(err, ErrNotFound) {
		t.Errorf("read after delete err = %v, want ErrNotFound", err)
	}
	if err := f.Delete("100"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
}

func TestEntrySequencedAppendOnly(t *testing.T) {
	f := NewFile("history", EntrySequenced)
	k1, err := f.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := f.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if k1 >= k2 {
		t.Errorf("entry keys not increasing: %q >= %q", k1, k2)
	}
	if err := f.Insert("x", nil); !errors.Is(err, ErrWrongOrg) {
		t.Errorf("Insert on entry-sequenced err = %v, want ErrWrongOrg", err)
	}
	if err := f.Delete(k1); !errors.Is(err, ErrUpdateEntrySq) {
		t.Errorf("Delete on entry-sequenced err = %v, want ErrUpdateEntrySq", err)
	}
	// Updates are allowed (e.g. flag fields), appends keep numbering after
	// ForceWrite replay.
	if err := f.Update(k1, []byte("first-upd")); err != nil {
		t.Fatal(err)
	}
	f.ForceWrite(FormatRecNum(50), []byte("replayed"))
	k3, _ := f.Append([]byte("third"))
	if n, _ := ParseRecNum(k3); n != 51 {
		t.Errorf("append after replay got record %d, want 51", n)
	}
}

func TestRelativeFile(t *testing.T) {
	f := NewFile("slots", Relative)
	if err := f.Insert(FormatRecNum(7), []byte("seven")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(nil); !errors.Is(err, ErrWrongOrg) {
		t.Errorf("Append on relative err = %v, want ErrWrongOrg", err)
	}
	v, err := f.Read(FormatRecNum(7))
	if err != nil || string(v) != "seven" {
		t.Errorf("Read = %q, %v", v, err)
	}
}

func TestAlternateKeyMaintenance(t *testing.T) {
	// Record layout: branch (3 bytes) + name (5 bytes).
	branch := AltKeyDef{Name: "branch", Offset: 0, Len: 3}
	f := NewFile("accts", KeySequenced, branch)
	f.Insert("a1", []byte("NYCalice"))
	f.Insert("a2", []byte("SFObobby"))
	f.Insert("a3", []byte("NYCcarol"))

	recs, err := f.ReadByAltKey("branch", "NYC")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "a1" || recs[1].Key != "a3" {
		t.Fatalf("NYC records = %+v", recs)
	}

	// Update moves a record between alternate key values.
	if err := f.Update("a1", []byte("SFOalice")); err != nil {
		t.Fatal(err)
	}
	recs, _ = f.ReadByAltKey("branch", "NYC")
	if len(recs) != 1 || recs[0].Key != "a3" {
		t.Errorf("NYC after move = %+v", recs)
	}
	recs, _ = f.ReadByAltKey("branch", "SFO")
	if len(recs) != 2 {
		t.Errorf("SFO after move = %+v", recs)
	}

	// Update that keeps the alt value must keep exactly one index entry.
	if err := f.Update("a2", []byte("SFObobb2")); err != nil {
		t.Fatal(err)
	}
	recs, _ = f.ReadByAltKey("branch", "SFO")
	if len(recs) != 2 {
		t.Errorf("SFO after same-value update = %+v", recs)
	}

	// Delete removes index entries.
	f.Delete("a2")
	recs, _ = f.ReadByAltKey("branch", "SFO")
	if len(recs) != 1 || recs[0].Key != "a1" {
		t.Errorf("SFO after delete = %+v", recs)
	}

	if _, err := f.ReadByAltKey("nope", "x"); !errors.Is(err, ErrNoSuchAltKey) {
		t.Errorf("unknown alt key err = %v", err)
	}
}

func TestAltKeyTooShortRecord(t *testing.T) {
	f := NewFile("f", KeySequenced, AltKeyDef{Name: "k", Offset: 0, Len: 10})
	if err := f.Insert("a", []byte("short")); !errors.Is(err, ErrBadAltKey) {
		t.Errorf("err = %v, want ErrBadAltKey", err)
	}
	// Failed insert must not leave the record behind.
	if f.Exists("a") {
		t.Error("record present after failed insert")
	}
	// Failed update must leave the old record intact.
	f2 := NewFile("f2", KeySequenced, AltKeyDef{Name: "k", Offset: 0, Len: 3})
	f2.Insert("a", []byte("abcdef"))
	if err := f2.Update("a", []byte("x")); !errors.Is(err, ErrBadAltKey) {
		t.Fatalf("err = %v", err)
	}
	v, _ := f2.Read("a")
	if string(v) != "abcdef" {
		t.Errorf("record corrupted by failed update: %q", v)
	}
	if recs, _ := f2.ReadByAltKey("k", "abc"); len(recs) != 1 {
		t.Errorf("index corrupted by failed update: %+v", recs)
	}
}

func TestReadRange(t *testing.T) {
	f := NewFile("f", KeySequenced)
	for i := 0; i < 20; i++ {
		f.Insert(fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	recs := f.ReadRange("k05", "k10", 0)
	if len(recs) != 5 || recs[0].Key != "k05" || recs[4].Key != "k09" {
		t.Errorf("range = %+v", recs)
	}
	recs = f.ReadRange("", "", 3)
	if len(recs) != 3 {
		t.Errorf("limited range len = %d", len(recs))
	}
}

func TestForceWriteDelete(t *testing.T) {
	f := NewFile("f", KeySequenced, AltKeyDef{Name: "p", Offset: 0, Len: 1})
	f.ForceWrite("k", []byte("Xv"))
	if v, _ := f.Read("k"); string(v) != "Xv" {
		t.Error("ForceWrite did not install")
	}
	f.ForceWrite("k", []byte("Yw"))
	recs, _ := f.ReadByAltKey("p", "Y")
	if len(recs) != 1 {
		t.Errorf("alt index after force rewrite = %+v", recs)
	}
	if recs, _ := f.ReadByAltKey("p", "X"); len(recs) != 0 {
		t.Errorf("stale alt entry survived: %+v", recs)
	}
	f.ForceDelete("k")
	if f.Exists("k") {
		t.Error("record exists after ForceDelete")
	}
	f.ForceDelete("k") // idempotent
}

func TestReadReturnsCopy(t *testing.T) {
	f := NewFile("f", KeySequenced)
	f.Insert("k", []byte("abc"))
	v, _ := f.Read("k")
	v[0] = 'Z'
	v2, _ := f.Read("k")
	if string(v2) != "abc" {
		t.Error("Read exposed internal storage")
	}
}

func TestRecNumRoundTripQuick(t *testing.T) {
	prop := func(n uint64) bool {
		n = n % 1e12
		got, err := ParseRecNum(FormatRecNum(n))
		return err == nil && got == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestFormatRecNum: keys are zero-padded to twelve digits, and a number
// wider than that stays unpadded, as the %0*d formatting it replaced left
// it. One allocation, the string.
func TestFormatRecNum(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want string
	}{
		{0, "000000000000"},
		{7, "000000000007"},
		{999999999999, "999999999999"},
		{1e12, "1000000000000"},
		{math.MaxUint64, "18446744073709551615"},
	} {
		if got := FormatRecNum(tc.n); got != tc.want || got != fmt.Sprintf("%0*d", recNumWidth, tc.n) {
			t.Errorf("FormatRecNum(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = FormatRecNum(42) }); n != 1 {
		t.Errorf("FormatRecNum = %v allocs, want 1", n)
	}
}

func TestOrganizationString(t *testing.T) {
	if KeySequenced.String() != "key-sequenced" || Relative.String() != "relative" || EntrySequenced.String() != "entry-sequenced" {
		t.Error("organization strings wrong")
	}
}
