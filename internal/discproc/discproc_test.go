package discproc

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/disk"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

type env struct {
	sys   *msg.System
	vol   *disk.Volume
	trail *audit.Trail
	proc  *Proc

	mu           sync.Mutex
	participants map[txid.ID][]string
}

func newEnv(t *testing.T, cpus int, audited bool) *env {
	t.Helper()
	return newEnvCfg(t, cpus, audited, nil)
}

// newEnvCfg builds a one-node env serving volume v1 from a DISCPROCESS pair
// on CPUs 0/1 (with its AUDITPROCESS beside it when audited); tune, when
// non-nil, adjusts the env and the DISCPROCESS configuration before the
// pair starts.
func newEnvCfg(t *testing.T, cpus int, audited bool, tune func(*env, *Config)) *env {
	t.Helper()
	node, err := hw.NewNode("n", cpus)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	e := &env{sys: sys, vol: disk.NewVolume("v1"), participants: make(map[txid.ID][]string)}
	cfg := Config{
		Volume:    e.vol,
		CacheSize: 64,
		OnParticipate: func(tx txid.ID, vol string) error {
			e.mu.Lock()
			e.participants[tx] = append(e.participants[tx], vol)
			e.mu.Unlock()
			return nil
		},
	}
	if audited {
		e.trail = audit.NewTrail("a1", 0)
		if _, err := audit.StartProcess(sys, "audit-1", 0, 1, e.trail); err != nil {
			t.Fatal(err)
		}
		cfg.Audit = audit.NewClient(sys, "audit-1")
	}
	if tune != nil {
		tune(e, &cfg)
	}
	e.proc, err = Start(sys, "disc-v1", 0, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *env) call(t *testing.T, kind string, payload any) (msg.Message, error) {
	t.Helper()
	return e.callWithin(5*time.Second, kind, payload)
}

func (e *env) callWithin(d time.Duration, kind string, payload any) (msg.Message, error) {
	cpu := e.sys.Node().NumCPUs() - 1
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return e.sys.ClientCall(ctx, cpu, msg.Addr{Name: "disc-v1"}, kind, payload)
}

// promptly fails the test unless the (idempotent) request is served within
// bound. It gets three attempts, so that one scheduling hiccup on a loaded
// host is not a failure; a starved request is not served at all.
func (e *env) promptly(t *testing.T, bound time.Duration, kind string, payload any) {
	t.Helper()
	var err error
	for try := 0; try < 3; try++ {
		if _, err = e.callWithin(bound, kind, payload); err == nil {
			return
		}
	}
	t.Fatalf("%s not served within %v: %v", kind, bound, err)
}

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// loopBrowsers keeps n unlocked reads of f/key in flight, started a
// fraction of stagger apart so they overlap, until the returned stop
// function is called; it returns once every browser has a read under way.
// With the cache off every one of them is a miss.
func (e *env) loopBrowsers(t *testing.T, n int, stagger time.Duration, file, key string) (stop func()) {
	t.Helper()
	started := e.proc.Stats().Sched.BrowseOps
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := e.call(t, KindRead, &RecReq{File: file, Key: key}); err != nil {
					t.Errorf("browse: %v", err)
					return
				}
			}
		}()
		time.Sleep(stagger / time.Duration(n))
	}
	waitFor(t, "the browsers to start", func() bool { return e.proc.Stats().Sched.BrowseOps >= started+uint64(n) })
	return func() { close(done); wg.Wait() }
}

func (e *env) mustCall(t *testing.T, kind string, payload any) msg.Message {
	t.Helper()
	r, err := e.call(t, kind, payload)
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	return r
}

func tx(n uint64) txid.ID { return txid.ID{Home: "n", CPU: 0, Seq: n} }

func (e *env) create(t *testing.T, file string, org dbfile.Organization, alts ...dbfile.AltKeyDef) {
	t.Helper()
	e.mustCall(t, KindCreate, CreateReq{File: file, Org: org, AltKeys: alts})
}

func TestCRUDRoundTrip(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "accts", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "accts", Key: "100", Val: []byte("fifty")})
	r := e.mustCall(t, KindRead, &RecReq{File: "accts", Key: "100"})
	if string(r.Payload.(*RecReq).Val) != "fifty" {
		t.Errorf("read = %q", r.Payload.(*RecReq).Val)
	}
	// Update requires a prior lock; the insert auto-locked the record.
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(1), File: "accts", Key: "100", Val: []byte("sixty")})
	r = e.mustCall(t, KindRead, &RecReq{File: "accts", Key: "100"})
	if string(r.Payload.(*RecReq).Val) != "sixty" {
		t.Errorf("after update = %q", r.Payload.(*RecReq).Val)
	}
	e.mustCall(t, KindDelete, &RecReq{Tx: tx(1), File: "accts", Key: "100"})
	if _, err := e.call(t, KindRead, &RecReq{File: "accts", Key: "100"}); err == nil {
		t.Error("read after delete should fail")
	}
	// Volume mirrors the file contents for inserts/updates.
	if got, _ := e.vol.Exists("accts", "100"); got {
		t.Error("volume still has deleted record")
	}
}

func TestUpdateWithoutLockRejected(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	// tx2 updates without having read-locked: the paper says TMF verifies
	// prior locking for updates and deletes.
	_, err := e.call(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("w")})
	if err == nil || !strings.Contains(err.Error(), "not locked") {
		t.Errorf("err = %v, want not-locked rejection", err)
	}
	_, err = e.call(t, KindDelete, &RecReq{Tx: tx(2), File: "f", Key: "k"})
	if err == nil || !strings.Contains(err.Error(), "not locked") {
		t.Errorf("delete err = %v, want not-locked rejection", err)
	}
	// Reading with lock first makes the update legal.
	e.mustCall(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "k", WithLock: true})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("w")})
}

func TestLockConflictWaitsAndGrants(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})

	// tx2's locked read must wait until tx1 ends.
	got := make(chan error, 1)
	go func() {
		_, err := e.call(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "k", WithLock: true, LockTimeout: 3 * time.Second})
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("locked read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("read after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never granted")
	}
}

func TestLockTimeoutReported(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	_, err := e.call(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "k", WithLock: true, LockTimeout: 30 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want lock timeout", err)
	}
}

func TestAuditImagesGenerated(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v1")})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v2")})
	e.mustCall(t, KindDelete, &RecReq{Tx: tx(1), File: "f", Key: "k"})

	imgs := e.trail.ImagesForUnforced(tx(1))
	if len(imgs) != 3 {
		t.Fatalf("images = %d, want 3", len(imgs))
	}
	if imgs[0].Kind != audit.ImageInsert || string(imgs[0].After) != "v1" || imgs[0].Before != nil {
		t.Errorf("insert image = %+v", imgs[0])
	}
	if imgs[1].Kind != audit.ImageUpdate || string(imgs[1].Before) != "v1" || string(imgs[1].After) != "v2" {
		t.Errorf("update image = %+v", imgs[1])
	}
	if imgs[2].Kind != audit.ImageDelete || string(imgs[2].Before) != "v2" || imgs[2].After != nil {
		t.Errorf("delete image = %+v", imgs[2])
	}
	// Flush forces the trail (phase one).
	if e.trail.Forced(imgs[2].LSN) {
		t.Error("trail forced before flush")
	}
	e.mustCall(t, KindFlush, &TxReq{Tx: tx(1)})
	if !e.trail.Forced(imgs[2].LSN) {
		t.Error("trail not forced after flush")
	}
}

func TestUnauditedVolumeSkipsImages(t *testing.T) {
	e := newEnv(t, 3, false)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	e.mustCall(t, KindFlush, &TxReq{Tx: tx(1)}) // no-op, no error
}

func TestUndoRestoresBeforeImages(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	// Committed baseline record by tx1.
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "a", Val: []byte("orig")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	// tx2 updates a, inserts b, deletes nothing.
	e.mustCall(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "a", WithLock: true})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(2), File: "f", Key: "a", Val: []byte("dirty")})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(2), File: "f", Key: "b", Val: []byte("new")})

	// Backout: apply before-images in reverse LSN order.
	imgs := e.trail.ImagesForUnforced(tx(2))
	rev := make([]audit.Image, len(imgs))
	for i, im := range imgs {
		rev[len(imgs)-1-i] = im
	}
	e.mustCall(t, KindUndo, &UndoReq{Tx: tx(2), Images: rev})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(2)})

	r := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "a"})
	if string(r.Payload.(*RecReq).Val) != "orig" {
		t.Errorf("a = %q after backout, want orig", r.Payload.(*RecReq).Val)
	}
	if _, err := e.call(t, KindRead, &RecReq{File: "f", Key: "b"}); err == nil {
		t.Error("inserted record survived backout")
	}
	if got, _ := e.vol.Exists("f", "b"); got {
		t.Error("volume still holds backed-out insert")
	}
}

func TestEndTxRejectsStragglers(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	_, err := e.call(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k2", Val: []byte("v")})
	if err == nil || !strings.Contains(err.Error(), "already ended") {
		t.Errorf("err = %v, want already-ended rejection", err)
	}
}

func TestAppendEntrySequenced(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "hist", dbfile.EntrySequenced)
	r1 := e.mustCall(t, KindAppend, &RecReq{Tx: tx(1), File: "hist", Val: []byte("e1")})
	r2 := e.mustCall(t, KindAppend, &RecReq{Tx: tx(1), File: "hist", Val: []byte("e2")})
	k1 := r1.Payload.(*RecReq).Key
	k2 := r2.Payload.(*RecReq).Key
	if k1 >= k2 {
		t.Errorf("keys not increasing: %q, %q", k1, k2)
	}
	rr := e.mustCall(t, KindReadRange, ReadRangeReq{File: "hist"})
	if got := rr.Payload.(ReadRangeResp).Recs; len(got) != 2 {
		t.Errorf("range = %d recs, want 2", len(got))
	}
}

func TestReadAltKey(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced, dbfile.AltKeyDef{Name: "branch", Offset: 0, Len: 3})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "a1", Val: []byte("NYCx")})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "a2", Val: []byte("SFOy")})
	r := e.mustCall(t, KindReadAlt, ReadAltReq{File: "f", AltKey: "branch", Value: "NYC"})
	recs := r.Payload.(ReadRangeResp).Recs
	if len(recs) != 1 || recs[0].Key != "a1" {
		t.Errorf("alt read = %+v", recs)
	}
}

func TestParticipationReported(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(7), File: "f", Key: "a", Val: []byte("1")})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(7), File: "f", Key: "b", Val: []byte("2")})
	e.mu.Lock()
	defer e.mu.Unlock()
	// The callback doubles as a per-operation liveness check, so it fires
	// on every transactional op; all reports must name this volume.
	got := e.participants[tx(7)]
	if len(got) == 0 {
		t.Fatal("no participation reported")
	}
	for _, v := range got {
		if v != "v1" {
			t.Errorf("participation = %v, want only v1", got)
		}
	}
}

func TestTakeoverPreservesDataAndLocks(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})

	e.sys.Node().FailCPU(0) // primary DISCPROCESS and AUDITPROCESS CPUs

	// Data survives the takeover.
	r := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"})
	if string(r.Payload.(*RecReq).Val) != "v" {
		t.Errorf("read after takeover = %q", r.Payload.(*RecReq).Val)
	}
	// The lock held by tx1 survives: tx2 must time out trying to take it.
	_, err := e.call(t, KindRead, &RecReq{Tx: tx(2), File: "f", Key: "k", WithLock: true, LockTimeout: 30 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("lock should persist across takeover; err = %v", err)
	}
	// tx1 can continue and end normally.
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v2")})
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	r = e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"})
	if string(r.Payload.(*RecReq).Val) != "v2" {
		t.Errorf("read after post-takeover update = %q", r.Payload.(*RecReq).Val)
	}
}

// TestTakeoverReappendsCheckpointedRequest: the backup buffers an
// update's checkpoint as lastCk, and the append request embedded in it is
// what a takeover ships to the AUDITPROCESS again — the update's image,
// field for field, under a new LSN.
func TestTakeoverReappendsCheckpointedRequest(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v1")})
	e.mustCall(t, KindUpdate, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v2")})

	e.sys.Node().FailCPU(0) // primary DISCPROCESS and AUDITPROCESS CPUs
	e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"})

	waitFor(t, "the takeover's re-append", func() bool { return len(e.trail.ImagesForUnforced(tx(1))) == 3 })
	imgs := e.trail.ImagesForUnforced(tx(1))
	upd, again := imgs[1], imgs[2]
	if again.LSN <= upd.LSN {
		t.Errorf("re-append LSN %d, want after the update's %d", again.LSN, upd.LSN)
	}
	again.LSN = upd.LSN
	if !reflect.DeepEqual(again, upd) || upd.Kind != audit.ImageUpdate || string(upd.Before) != "v1" || string(upd.After) != "v2" {
		t.Errorf("re-appended image %+v, want the update's %+v", again, upd)
	}
}

// TestApplyCheckpointKeepsOtherTransactionsOp: the backup buffers the last
// operation checkpoint so a takeover can re-complete it. Another
// transaction's endtx or freeze passing meanwhile must leave it buffered;
// the owning transaction's retires it.
func TestApplyCheckpointKeepsOtherTransactionsOp(t *testing.T) {
	for _, release := range []ckRecord{{Tx: tx(2), EndTx: true}, {Tx: tx(2), Freeze: true}} {
		b := newApp(&Proc{cfg: Config{Volume: disk.NewVolume("v1")}})
		b.ApplyCheckpoint(&ckRecord{Op: &ckOp{Kind: opCreate, File: "f"}})
		b.ApplyCheckpoint(&ckRecord{Tx: tx(1), Op: &ckOp{Kind: opWrite, File: "f", Key: "k", Val: []byte("new")}})
		b.ApplyCheckpoint(&release)
		if b.lastCk == nil || b.lastCk.Tx != tx(1) {
			t.Fatalf("%+v of another transaction dropped the buffered operation", release)
		}
		own := release
		own.Tx = tx(1)
		b.ApplyCheckpoint(&own)
		if b.lastCk != nil {
			t.Fatalf("%+v of the owning transaction left its operation buffered", own)
		}
	}
}

// TestTakeoverRecompletesOpBesideAnotherEndTx kills the primary's CPU while
// transaction U's update sits between its checkpoint and its apply (held
// there by a forced audit write) and after transaction T's endtx — which
// runs beside it — has checkpointed. The new primary must still re-complete
// U's update: images on the trail again, volume written, lock held, and a
// backout of U restoring the before-image.
func TestTakeoverRecompletesOpBesideAnotherEndTx(t *testing.T) {
	const force = 400 * time.Millisecond
	e := newEnvCfg(t, 4, false, func(e *env, c *Config) {
		e.trail = audit.NewTrail("a1", force)
		if _, err := audit.StartProcess(e.sys, "audit-1", 0, 1, e.trail); err != nil {
			t.Fatal(err)
		}
		c.Audit = audit.NewClient(e.sys, "audit-1")
		c.DiscWorkers, c.ForceEveryUpdate = 8, true
	})
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("old")}) // pays one force
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	T, U := tx(2), tx(3)
	e.mustCall(t, KindLockRec, &RecReq{Tx: T, File: "f", Key: "t"})
	e.mustCall(t, KindLockRec, &RecReq{Tx: U, File: "f", Key: "k"})
	go e.callWithin(force, KindUpdate, &RecReq{Tx: U, File: "f", Key: "k", Val: []byte("new")})
	// The image is appended after the checkpoint and before the force.
	waitFor(t, "U's update to reach the audit trail", func() bool { return len(e.trail.ImagesForUnforced(U)) > 0 })
	if _, err := e.callWithin(force/4, KindEndTx, &TxReq{Tx: T}); err != nil {
		t.Fatalf("endtx(T) beside U's in-flight update: %v", err)
	}
	if v, _ := e.vol.Read("f", "k"); string(v) != "old" {
		t.Fatalf("volume k = %q before the failure, want old (U's update is not applied yet)", v)
	}

	e.sys.Node().FailCPU(0)

	// The first request promotes the backup, which completes U's operation.
	if _, err := e.call(t, KindRead, &RecReq{Tx: tx(4), File: "f", Key: "k", WithLock: true, LockTimeout: 20 * time.Millisecond}); err == nil {
		t.Error("U's lock on k did not survive the takeover")
	}
	if v, _ := e.vol.Read("f", "k"); string(v) != "new" {
		t.Errorf("volume k = %q after takeover, want new: U's checkpointed update was not re-completed", v)
	}
	imgs := e.trail.ImagesForUnforced(U)
	if len(imgs) != 2 {
		t.Errorf("%d images of U on the trail, want 2 (the primary's append and the takeover's)", len(imgs))
	}
	if held := e.proc.LocksSnapshot()[T]; len(held) != 0 {
		t.Errorf("T still holds %v after its endtx", held)
	}
	e.mustCall(t, KindFreeze, &TxReq{Tx: U})
	e.mustCall(t, KindUndo, &UndoReq{Tx: U, Images: imgs[:1]})
	e.mustCall(t, KindEndTx, &TxReq{Tx: U})
	if v := e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"}).Payload.(*RecReq).Val; string(v) != "old" {
		t.Errorf("k = %q after backout of U, want old", v)
	}
	if v, _ := e.vol.Read("f", "k"); string(v) != "old" {
		t.Errorf("volume k = %q after backout of U, want old", v)
	}
}

func TestCacheHits(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	for i := 0; i < 5; i++ {
		e.mustCall(t, KindRead, &RecReq{File: "f", Key: "k"})
	}
	st := e.proc.Stats()
	if st.CacheStats.Hits < 4 {
		t.Errorf("cache hits = %d, want >= 4", st.CacheStats.Hits)
	}
	if st.Reads < 5 || st.Writes < 1 || st.Ops < 6 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("v")})
	_, err := e.call(t, KindInsert, &RecReq{Tx: tx(1), File: "f", Key: "k", Val: []byte("w")})
	if !errors.Is(err, errRemote(err)) && err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("err = %v, want duplicate rejection", err)
	}
}

// errRemote normalizes the RemoteError wrapper for errors.Is probes.
func errRemote(err error) error { return err }

func TestNoSuchFile(t *testing.T) {
	e := newEnv(t, 3, true)
	_, err := e.call(t, KindRead, &RecReq{File: "ghost", Key: "k"})
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("err = %v, want no-such-file", err)
	}
}

func TestWriteReqWithoutTx(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	_, err := e.call(t, KindInsert, &RecReq{File: "f", Key: "k", Val: []byte("v")})
	if err == nil || !strings.Contains(err.Error(), "requires a transaction") {
		t.Errorf("err = %v, want requires-transaction", err)
	}
}

func TestExplicitFileLock(t *testing.T) {
	e := newEnv(t, 3, true)
	e.create(t, "f", dbfile.KeySequenced)
	e.mustCall(t, KindLockFile, &RecReq{Tx: tx(1), File: "f"})
	// Another transaction's record operation must block / time out.
	_, err := e.call(t, KindInsert, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("v"), LockTimeout: 30 * time.Millisecond})
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("err = %v, want timeout under file lock", err)
	}
	e.mustCall(t, KindEndTx, &TxReq{Tx: tx(1)})
	e.mustCall(t, KindInsert, &RecReq{Tx: tx(2), File: "f", Key: "k", Val: []byte("v")})
}

// TestRecReqWireRoundTrip: a record frame crosses nodes intact inside a
// message, still a pointer, and an empty value arrives as nil. (Every
// truncation of every payload's frame is an error: msg's
// TestMalformedFramesAreErrors.)
func TestRecReqWireRoundTrip(t *testing.T) {
	for _, want := range []*RecReq{
		{Tx: txid.ID{Home: "west", CPU: 3, Seq: 1<<40 + 7}, File: "accts", Key: "k1", Val: []byte("v"), WithLock: true, LockTimeout: 2 * time.Second},
		{Tx: txid.ID{Home: "n", CPU: -1}, File: "hist", Val: []byte{}},
		{},
	} {
		b, err := msg.Marshal(msg.Message{Kind: KindRead, Payload: want})
		if err != nil {
			t.Fatal(err)
		}
		m, err := msg.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := m.Payload.(*RecReq)
		if len(want.Val) == 0 {
			want.Val = nil
		}
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("round trip of %+v = %#v", want, m.Payload)
		}
	}
}
