//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// message reply slots are reallocated and this pin holds only without it.

package discproc

import (
	"testing"
	"time"

	"encompass/internal/dbfile"
	"encompass/internal/msg"
)

// lockedUpdateAllocs is what one transaction's locked read, update and
// endtx cost together at DiscWorkers 8, counted across every goroutine:
// the client's three calls and payloads, both checkpoints to the backup,
// the audit append and the lock table (measured: 19 in six runs; 26 while
// the DISCPROCESS and AUDITPROCESS member loops built a heap context and
// the scheduler a job per request, 50 while every fresh lock, even a free
// one, was granted through a continuation message to the DISCPROCESS
// itself).
const lockedUpdateAllocs = 19

// TestLockedUpdateAllocs pins the allocation cost of the TP1 record path
// through the DISCPROCESS.
func TestLockedUpdateAllocs(t *testing.T) {
	e := newEnvCfg(t, 4, true, func(_ *env, c *Config) {
		c.DiscWorkers = 8
		c.OnParticipate = nil // the test env's participation log allocates
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, WriteReq{Tx: tx(1), File: "f", Key: "acct", Val: []byte("0")})
	e.mustCall(t, KindEndTx, EndTxReq{Tx: tx(1)})

	disc, val := msg.Addr{Name: "disc-v1"}, []byte("1")
	seq := uint64(1)
	var err error
	call := func(kind string, payload any) {
		if _, e2 := e.sys.CallTimeout(3, disc, kind, payload, 5*time.Second); e2 != nil {
			err = e2
		}
	}
	n := testing.AllocsPerRun(500, func() {
		seq++
		call(KindRead, ReadReq{Tx: tx(seq), File: "f", Key: "acct", WithLock: true})
		call(KindUpdate, WriteReq{Tx: tx(seq), File: "f", Key: "acct", Val: val})
		call(KindEndTx, EndTxReq{Tx: tx(seq)})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("locked read + update + endtx = %v allocs", n)
	if n > lockedUpdateAllocs {
		t.Errorf("locked read + update + endtx = %v allocs, want <= %d", n, lockedUpdateAllocs)
	}
}
