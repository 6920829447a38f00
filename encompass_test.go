package encompass_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"encompass"
	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/fsys"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

func build(t *testing.T, cfg encompass.Config) *encompass.System {
	t.Helper()
	sys, err := encompass.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func oneNode(t *testing.T) *encompass.System {
	return build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 64}},
		}},
	})
}

func TestQuickstartFlow(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("accounts", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	tx, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("accounts", "100", []byte("balance=50")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := n.FS.Read("accounts", "100")
	if err != nil || string(v) != "balance=50" {
		t.Fatalf("read = %q, %v", v, err)
	}
	if tx.State() != txid.StateEnded {
		t.Errorf("state = %v", tx.State())
	}
}

// TestUpdateBufferReuseAfterCommit: the DISCPROCESS keeps its own copy of
// a written value, so a caller that reuses its buffer after the commit
// changes neither what a read returns (served from the record cache) nor
// the volume.
func TestUpdateBufferReuseAfterCommit(t *testing.T) {
	sys := oneNode(t)
	t.Cleanup(sys.Stop)
	n := sys.Node("alpha")
	if err := n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("orig")
	tx1, _ := n.Begin()
	if err := tx1.Insert("f", "k", buf); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := n.Begin()
	if _, err := tx2.ReadLock("f", "k"); err != nil {
		t.Fatal(err)
	}
	copy(buf, "next")
	if err := tx2.Update("f", "k", buf); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXX")
	if v, err := n.FS.Read("f", "k"); err != nil || string(v) != "next" {
		t.Errorf("read after the caller reused its buffer = %q, %v; want next", v, err)
	}
	if v, err := n.Volumes["v1"].Disk.Read("f", "k"); err != nil || string(v) != "next" {
		t.Errorf("volume after the caller reused its buffer = %q, %v; want next", v, err)
	}
}

func TestAbortRestoresState(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))

	tx1, _ := n.Begin()
	tx1.Insert("f", "k", []byte("orig"))
	tx1.Commit()

	tx2, _ := n.Begin()
	if _, err := tx2.ReadLock("f", "k"); err != nil {
		t.Fatal(err)
	}
	tx2.Update("f", "k", []byte("dirty"))
	tx2.Abort("user requested")
	v, _ := n.FS.Read("f", "k")
	if string(v) != "orig" {
		t.Errorf("value = %q, want orig", v)
	}
}

func TestPartitionedFileRouting(t *testing.T) {
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	fi := encompass.PartitionedFile("items", encompass.KeySequenced, [][3]string{
		{"", "a", "va"},
		{"m", "b", "vb"},
	})
	if err := sys.CreateFileEverywhere(fi); err != nil {
		t.Fatal(err)
	}
	a := sys.Node("a")
	tx, _ := a.Begin()
	if err := tx.Insert("items", "apple", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("items", "zebra", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Physical placement followed key ranges.
	if ok, _ := a.Volumes["va"].Disk.Exists("items", "apple"); !ok {
		t.Error("apple not on va")
	}
	if ok, _ := sys.Node("b").Volumes["vb"].Disk.Exists("items", "zebra"); !ok {
		t.Error("zebra not on vb")
	}
	// Cross-partition range scan merges in order.
	recs, err := a.FS.ReadRange("items", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "apple" || recs[1].Key != "zebra" {
		t.Errorf("range = %+v", recs)
	}
	// Reads from the other node work identically.
	v, err := sys.Node("b").FS.Read("items", "apple")
	if err != nil || string(v) != "1" {
		t.Errorf("remote read = %q, %v", v, err)
	}
}

func TestDistributedTxThroughFacade(t *testing.T) {
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	sys.CreateFileEverywhere(encompass.LocalFile("fa", encompass.KeySequenced, "a", "va"))
	sys.CreateFileEverywhere(encompass.LocalFile("fb", encompass.KeySequenced, "b", "vb"))

	a := sys.Node("a")
	tx, _ := a.Begin()
	if err := tx.Insert("fa", "k", []byte("on-a")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("fb", "k", []byte("on-b")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err := sys.Node("b").FS.Read("fb", "k")
	if err != nil || string(v) != "on-b" {
		t.Errorf("b read = %q, %v", v, err)
	}
}

func TestLockTimeoutSurfacesThroughFacade(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
	n.FS.LockTimeout = 50 * time.Millisecond

	tx1, _ := n.Begin()
	tx1.Insert("f", "k", []byte("v"))
	tx2, _ := n.Begin()
	_, err := tx2.ReadLock("f", "k")
	if err == nil {
		t.Fatal("expected lock timeout")
	}
	if !errors.Is(err, lock.ErrTimeout) || !encompass.Restartable(err) {
		t.Errorf("err = %v, want a restartable lock timeout", err)
	}
	tx1.Commit()
	tx2.Abort("deadlock recovery")
}

// TestRestartable: a transaction is restarted when its lock wait timed
// out or was cancelled by TMF's abort, when it was aborted or had already
// ended on a volume, or when a call of it timed out — whether the error
// is the sentinel itself, wraps it, or is another node's answer — and not
// for an application error. The remote rows are real two-node calls to a
// process on b that answers with the sentinel, and a lock timeout on b
// answered through b's TMP.
func TestRestartable(t *testing.T) {
	sys, _ := chain(t, 2)
	answers := map[string]error{
		"released": fmt.Errorf("fsys: readlock: %w", lock.ErrReleased),
		"timeout":  lock.ErrTimeout,
		"aborted":  fmt.Errorf("%w: \\b(0).7 previously aborted on b", tmf.ErrAborted),
		"ended":    discproc.ErrTxEnded,
		"notfound": fmt.Errorf("%w: k in fb", dbfile.ErrNotFound),
	}
	if _, err := sys.Node("b").Msg.Spawn(1, "answer", func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			p.ReplyErr(m, answers[m.Kind])
		}
	}); err != nil {
		t.Fatal(err)
	}
	remote := func(kind string) error {
		_, err := sys.Node("a").Msg.CallTimeout(0, msg.Addr{Node: "b", Name: "answer"}, kind, nil, time.Second)
		return err
	}
	// Through b's TMP: tx2's first request to b rides its remote begin,
	// which the TMP forwards to the DISCPROCESS, whose lock timeout comes
	// straight back.
	a := sys.Node("a")
	a.FS.LockTimeout = 50 * time.Millisecond
	tx1, _ := a.Begin()
	if err := tx1.Insert("fb", "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx2, _ := a.Begin()
	_, relayed := tx2.ReadLock("fb", "k")
	if !errors.Is(relayed, lock.ErrTimeout) {
		t.Errorf("ReadLock through the TMP = %v, want lock.ErrTimeout", relayed)
	}
	tx1.Abort("test done")
	tx2.Abort("test done")
	for _, tc := range []struct {
		err  error
		want bool
	}{
		{lock.ErrReleased, true},
		{fmt.Errorf("fsys: readlock: %w", lock.ErrReleased), true},
		{remote("released"), true},
		{lock.ErrTimeout, true},
		{remote("timeout"), true},
		{relayed, true},
		{fmt.Errorf("%w: \\a(0).7 (aborted while END was stalled)", tmf.ErrAborted), true},
		{remote("aborted"), true},
		{discproc.ErrTxEnded, true},
		{remote("ended"), true},
		{fmt.Errorf("%w: \\b.$disc-vb disc.read: context deadline exceeded", msg.ErrCallTimeout), true},
		{remote("notfound"), false},
		{errors.New("encompass: node a has no up CPUs"), false},
	} {
		if got := encompass.Restartable(tc.err); got != tc.want {
			t.Errorf("Restartable(%q) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestAltKeysThroughFacade(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("emp", encompass.KeySequenced, "alpha", "v1",
		encompass.AltKeyDef{Name: "dept", Offset: 0, Len: 3}))
	tx, _ := n.Begin()
	tx.Insert("emp", "e1", []byte("ENGalice"))
	tx.Insert("emp", "e2", []byte("MKTbob"))
	tx.Insert("emp", "e3", []byte("ENGcarol"))
	tx.Commit()
	recs, err := n.FS.ReadByAltKey("emp", "dept", "ENG")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Key != "e1" || recs[1].Key != "e3" {
		t.Errorf("alt read = %+v", recs)
	}
}

func TestEntrySequencedAppendThroughFacade(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("hist", encompass.EntrySequenced, "alpha", "v1"))
	tx, _ := n.Begin()
	k1, err := tx.Append("hist", []byte("event-1"))
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := tx.Append("hist", []byte("event-2"))
	if k1 >= k2 {
		t.Errorf("keys not increasing: %q %q", k1, k2)
	}
	tx.Commit()
}

func TestTakeoverInvisibleThroughFS(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
	tx, _ := n.Begin()
	tx.Insert("f", "k", []byte("v"))
	tx.Commit()

	// Fail the DISCPROCESS primary's CPU; the FS retry hides the takeover.
	primCPU := n.Volumes["v1"].Proc.Pair.PrimaryCPU()
	n.HW.FailCPU(primCPU)
	v, err := n.FS.Read("f", "k")
	if err != nil || string(v) != "v" {
		t.Errorf("read across takeover = %q, %v", v, err)
	}
	tx2, err := n.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert("f", "k2", []byte("v2")); err != nil {
		t.Fatalf("insert after takeover: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after takeover: %v", err)
	}
}

func TestBadPartitionTables(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	if err := n.FS.Define(fsys.FileInfo{Name: "x"}); !errors.Is(err, fsys.ErrBadPartition) {
		t.Errorf("err = %v, want ErrBadPartition", err)
	}
	bad := encompass.LocalFile("x", encompass.KeySequenced, "alpha", "v1")
	bad.Partitions[0].LowKey = "z"
	if err := n.FS.Define(bad); !errors.Is(err, fsys.ErrBadPartition) {
		t.Errorf("err = %v, want ErrBadPartition", err)
	}
	if _, err := n.FS.Read("ghost", "k"); !errors.Is(err, fsys.ErrUnknownFile) {
		t.Errorf("err = %v, want ErrUnknownFile", err)
	}
}

func TestConcurrentTransactionsSeparateKeys(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	n.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
	const workers = 10
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			tx, err := n.Begin()
			if err != nil {
				errs <- err
				return
			}
			key := fmt.Sprintf("k%02d", w)
			if err := tx.Insert("f", key, []byte("v")); err != nil {
				errs <- err
				return
			}
			errs <- tx.Commit()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := n.FS.ReadRange("f", "", "", 0)
	if len(recs) != workers {
		t.Errorf("records = %d, want %d", len(recs), workers)
	}
}

// TestCallServerTotalNodeFailure: a SEND from a node whose every processor
// is down fails with an error, like Begin does, instead of indexing an
// empty up-CPU list.
func TestCallServerTotalNodeFailure(t *testing.T) {
	sys := oneNode(t)
	n := sys.Node("alpha")
	for cpu := 0; cpu < n.HW.NumCPUs(); cpu++ {
		if err := n.HW.FailCPU(cpu); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.CallServer("", "nobody", txid.ID{}, nil, time.Second); err == nil {
		t.Error("CallServer with every CPU down returned no error")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := encompass.Build(encompass.Config{}); err == nil {
		t.Error("empty config should fail")
	}
	if _, err := encompass.Build(encompass.Config{Nodes: []encompass.NodeSpec{{Name: "x", CPUs: 99}}}); err == nil {
		t.Error("99 CPUs should fail (paper limit is 16)")
	}
}

func TestReadRangeDescAcrossPartitions(t *testing.T) {
	sys := build(t, encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true}}},
			{Name: "b", CPUs: 3, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	fi := encompass.PartitionedFile("items", encompass.KeySequenced, [][3]string{
		{"", "a", "va"},
		{"m", "b", "vb"},
	})
	if err := sys.CreateFileEverywhere(fi); err != nil {
		t.Fatal(err)
	}
	a := sys.Node("a")
	tx, _ := a.Begin()
	for _, k := range []string{"apple", "kiwi", "mango", "zebra"} {
		if err := tx.Insert("items", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	recs, err := a.FS.ReadRangeDesc("items", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"zebra", "mango", "kiwi", "apple"}
	if len(recs) != len(want) {
		t.Fatalf("desc scan = %d recs, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i].Key != w {
			t.Errorf("desc[%d] = %q, want %q", i, recs[i].Key, w)
		}
	}
	// Limit applies across partitions.
	recs, _ = a.FS.ReadRangeDesc("items", "", "", 2)
	if len(recs) != 2 || recs[0].Key != "zebra" || recs[1].Key != "mango" {
		t.Errorf("limited desc = %+v", recs)
	}
}
