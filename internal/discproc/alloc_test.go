//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// message reply slots are reallocated and this pin holds only without it.

package discproc

import (
	"testing"
	"time"
	"unsafe"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/disk"
	"encompass/internal/msg"
)

// lockedUpdateAllocs is what one transaction's locked read, update and
// endtx cost together at DiscWorkers 8, counted across every goroutine,
// with request frames the caller reuses as the File System does: the
// update's mutation object and its one copy of the value, and the endtx
// checkpoint (measured: 3 in three runs; CHANGES.md has the history).
const lockedUpdateAllocs = 3

// TestLockedUpdateAllocs pins the allocation cost of the TP1 record path
// through the DISCPROCESS.
func TestLockedUpdateAllocs(t *testing.T) {
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers = 8
		c.OnParticipate = nil // the test env's participation log allocates
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "acct", Val: []byte("0")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})

	disc, val := msg.Addr{Name: "disc-v1"}, []byte("1")
	seq := uint64(1)
	var err error
	call := func(kind string, payload any) {
		if _, e2 := e.sys.CallTimeout(3, disc, kind, payload, 5*time.Second); e2 != nil {
			err = e2
		}
	}
	var rec RecReq
	var end TxReq
	n := testing.AllocsPerRun(500, func() {
		seq++
		rec = RecReq{Tx: tx(seq), File: "f", Key: "acct", WithLock: true}
		call(KindRead, &rec)
		rec = RecReq{Tx: tx(seq), File: "f", Key: "acct", Val: val}
		call(KindUpdate, &rec)
		end = TxReq{Tx: tx(seq)}
		call(KindEndTx, &end)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("locked read + update + endtx = %v allocs", n)
	if n > lockedUpdateAllocs {
		t.Errorf("locked read + update + endtx = %v allocs, want <= %d", n, lockedUpdateAllocs)
	}
}

// auditedUpdateAllocs is what one audited update costs, lock already held,
// counted across every goroutine, with a request frame the caller reuses:
// the one mutation object that carries the checkpoint, its op, lock, image
// and append request, and the one copy of the value that the file
// structures, cache, volume and image share. The before-image read, the
// audit append and the trail's framing allocate nothing (measured: 2 in
// three runs; CHANGES.md has the history).
const auditedUpdateAllocs = 2

// TestAuditedUpdateAllocs pins the allocation cost of one update through
// commitMutation: checkpoint, audit append and apply.
func TestAuditedUpdateAllocs(t *testing.T) {
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers = 8
		c.OnParticipate = nil // the test env's participation log allocates
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "acct", Val: []byte("0")})

	disc, val := msg.Addr{Name: "disc-v1"}, []byte("1")
	var err error
	var rec RecReq
	n := testing.AllocsPerRun(500, func() {
		rec = RecReq{Tx: tx(1), File: "f", Key: "acct", Val: val}
		if _, e2 := e.sys.CallTimeout(3, disc, KindUpdate, &rec, 5*time.Second); e2 != nil {
			err = e2
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("audited update = %v allocs", n)
	if n > auditedUpdateAllocs {
		t.Errorf("audited update = %v allocs, want <= %d", n, auditedUpdateAllocs)
	}
}

// mutationSizeClass is the allocator size class a mutation fills exactly:
// every update allocates one, so a field added to ckRecord, op, lock,
// image or append request must not push it into the next class (448 B).
const mutationSizeClass = 416

// TestMutationIsOneObject: on an audited volume, an update's checkpoint
// record, op, lock, image and append request are one heap object, of at
// most mutationSizeClass bytes.
func TestMutationIsOneObject(t *testing.T) {
	if n := unsafe.Sizeof(mutation{}); n > mutationSizeClass {
		t.Errorf("mutation is %d B, want <= %d B (its size class)", n, mutationSizeClass)
	}
	a := newApp(&Proc{cfg: Config{Volume: disk.NewVolume("v1"), Audit: &audit.Client{}}})
	op := ckOp{Kind: opWrite, File: "f", Key: "k", Val: []byte("new")}
	before := []byte("old")
	var ck *ckRecord
	n := testing.AllocsPerRun(100, func() {
		ck = a.newMutation(tx(1), op, audit.ImageUpdate, before)
	})
	if n != 1 {
		t.Errorf("newMutation = %v allocs, want 1", n)
	}
	if len(ck.Ops) != 1 || ck.Lock == nil || ck.Append == nil || len(ck.Append.Images) != 1 {
		t.Fatalf("record = %+v, want one op, one lock and one image", ck)
	}
}
