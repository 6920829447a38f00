//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// request frames and reply slots are reallocated and this pin holds only
// without it.

package fsys

import (
	"testing"

	"encompass/internal/discproc"
	"encompass/internal/txid"
)

// recordPathAllocs is what one transaction's locked read, update, append
// and endtx cost through the File System at DiscWorkers 8, counted across
// every goroutine: the update's and the append's mutation objects and
// their one copy of the value each, the append's new key, and the endtx
// checkpoint; the requests travel in pooled frames (measured: 7 in three
// runs; CHANGES.md has the history).
const recordPathAllocs = 7

// TestRecordPathAllocs pins the allocation cost of the TP1 record path
// through the File System.
func TestRecordPathAllocs(t *testing.T) {
	sys, fs := recordEnv(t)
	val := []byte("1")
	seq := uint64(10)
	var (
		end discproc.TxReq
		err error
	)
	keep := func(e error) {
		if e != nil {
			err = e
		}
	}
	n := testing.AllocsPerRun(500, func() {
		seq++
		tx := txid.ID{Home: "n", Seq: seq}
		_, e := fs.ReadLock(tx, "f", "acct")
		keep(e)
		keep(fs.Update(tx, "f", "acct", val))
		_, e = fs.Append(tx, "h", val)
		keep(e)
		end = discproc.TxReq{Tx: tx}
		endTx(t, sys, fs, &end)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ReadLock + Update + Append + endtx = %v allocs", n)
	if n > recordPathAllocs {
		t.Errorf("ReadLock + Update + Append + endtx = %v allocs, want <= %d", n, recordPathAllocs)
	}
}
