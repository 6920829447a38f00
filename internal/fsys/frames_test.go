package fsys

import (
	"context"
	"errors"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/disk"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

func newSys(t *testing.T, cpus int) *msg.System {
	t.Helper()
	node, err := hw.NewNode("n", cpus)
	if err != nil {
		t.Fatal(err)
	}
	return msg.NewSystem(node)
}

// localFile is a one-partition file on volume v1 of node n.
func localFile(name string, org dbfile.Organization) FileInfo {
	return FileInfo{Name: name, Org: org, Partitions: []Partition{{Node: "n", Volume: "v1", Disc: "disc-v1"}}}
}

// TestTimedOutCallLeavesItsFrame: an update the DISCPROCESS holds past
// fsys.Timeout fails with a timeout, and its frame is never handed out
// again — the next calls get frames of their own — so when the held
// update finally runs it still sees its own request.
func TestTimedOutCallLeavesItsFrame(t *testing.T) {
	sys := newSys(t, 2)
	seen := make(chan *discproc.RecReq, 16)
	release := make(chan struct{})
	ran := make(chan discproc.RecReq, 1)
	// A stand-in DISCPROCESS: it answers at once, except for the record
	// "held", whose request it reads only after release.
	if _, err := sys.Spawn(0, "disc-v1", func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			req := m.Payload.(*discproc.RecReq)
			seen <- req
			if req.Key != "held" {
				p.Reply(m, nil)
				continue
			}
			go func() {
				<-release
				ran <- *req
				p.Reply(m, nil) // too late: the caller has given up
			}()
		}
	}); err != nil {
		t.Fatal(err)
	}
	fs := New(sys, nil)
	fs.Timeout = 20 * time.Millisecond
	if err := fs.Define(localFile("f", dbfile.KeySequenced)); err != nil {
		t.Fatal(err)
	}
	tx := txid.ID{Home: "n", Seq: 1}
	if err := fs.Update(tx, "f", "held", []byte("late")); !errors.Is(err, msg.ErrCallTimeout) {
		t.Fatalf("held update = %v, want a timeout", err)
	}
	held := <-seen
	for i := 0; i < 8; i++ {
		if err := fs.Update(tx, "f", "next", []byte("now")); err != nil {
			t.Fatal(err)
		}
		if f := <-seen; f == held {
			t.Fatalf("call %d was sent in the timed-out call's frame", i)
		}
	}
	close(release)
	got := <-ran
	if got.Tx != tx || got.File != "f" || got.Key != "held" || string(got.Val) != "late" {
		t.Errorf("held update ran with %+v, want its own request", got)
	}
}

// recordEnv serves file "f" (key-sequenced, holding record "acct") and
// file "h" (entry-sequenced) from an audited DISCPROCESS on volume v1,
// reached through a File System client.
func recordEnv(t *testing.T) (*msg.System, *FS) {
	t.Helper()
	sys := newSys(t, 4)
	if _, err := audit.StartProcess(sys, "audit-1", 0, 1, audit.NewTrail("a1", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := discproc.Start(sys, "disc-v1", 0, 1, discproc.Config{
		Volume: disk.NewVolume("v1"), Audit: audit.NewClient(sys, "audit-1"), CacheSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	fs := New(sys, nil)
	for _, fi := range []FileInfo{localFile("f", dbfile.KeySequenced), localFile("h", dbfile.EntrySequenced)} {
		if err := fs.Create(fi); err != nil {
			t.Fatal(err)
		}
	}
	seed := txid.ID{Home: "n", Seq: 1}
	if err := fs.Insert(seed, "f", "acct", []byte("0")); err != nil {
		t.Fatal(err)
	}
	endTx(t, sys, fs, &discproc.TxReq{Tx: seed})
	return sys, fs
}

// endTx releases the transaction's locks on v1, as phase two does.
func endTx(t *testing.T, sys *msg.System, fs *FS, req *discproc.TxReq) {
	t.Helper()
	if _, err := sys.CallTimeout(fs.CallCPU, msg.Addr{Name: "disc-v1"}, discproc.KindEndTx, req, fs.Timeout); err != nil {
		t.Fatal(err)
	}
}

// TestRecordOpsAnswerInPlace: a read comes back with the record's value
// and an append with its new key, read out of the frame the request went
// in.
func TestRecordOpsAnswerInPlace(t *testing.T) {
	sys, fs := recordEnv(t)
	tx := txid.ID{Home: "n", Seq: 2}
	if v, err := fs.ReadLock(tx, "f", "acct"); err != nil || string(v) != "0" {
		t.Fatalf("ReadLock = %q, %v; want 0", v, err)
	}
	if err := fs.Update(tx, "f", "acct", []byte("7")); err != nil {
		t.Fatal(err)
	}
	k1, err := fs.Append(tx, "h", []byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := fs.Append(tx, "h", []byte("two"))
	if err != nil || k1 == "" || k2 == "" || k1 == k2 {
		t.Fatalf("append keys %q, %q, %v; want two distinct keys", k1, k2, err)
	}
	endTx(t, sys, fs, &discproc.TxReq{Tx: tx})
	if v, err := fs.Read("f", "acct"); err != nil || string(v) != "7" {
		t.Fatalf("Read after update = %q, %v; want 7", v, err)
	}
	recs, err := fs.ReadRange("h", "", "", 0)
	if err != nil || len(recs) != 2 || recs[0].Key != k1 || string(recs[1].Val) != "two" {
		t.Fatalf("history = %+v, %v; want %s=one, %s=two", recs, err, k1, k2)
	}
}
