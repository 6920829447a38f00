package discproc

import (
	"fmt"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// ErrTxEnded rejects operations arriving for a transaction that already
// released its locks on this volume (it committed or was backed out).
var ErrTxEnded = fmt.Errorf("discproc: transaction already ended on this volume")

func (a *app) handleCreate(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(CreateReq)
	if _, ok := a.files[req.File]; ok {
		ctx.ReplyErr(fmt.Errorf("%w: %s", ErrFileExists, req.File))
		return
	}
	ck := a.newMutation(txid.ID{}, ckOp{Kind: opCreate, File: req.File, Org: req.Org, AltKeys: req.AltKeys, AllowNodes: req.AllowNodes}, noImage, nil)
	if err := a.commitMutation(ctx, ck); err != nil {
		ctx.ReplyErr(err)
		return
	}
	// Persist file metadata on the volume so the file structure can be
	// rebuilt after total node failure (ROLLFORWARD reload).
	if err := a.proc.cfg.Volume.Write(metaFile, req.File, encodeMeta(req.Org, req.AltKeys)); err != nil {
		ctx.ReplyErr(err)
		return
	}
	ctx.Reply(nil)
}

// handleReload rebuilds the in-memory file structures from the volume
// contents; used after a total node failure once ROLLFORWARD has restored
// the volume. Locks and in-flight state are discarded: every transaction
// that was live at the failure is gone.
func (a *app) handleReload(ctx *pair.Ctx, m *msg.Message) {
	if err := a.reloadFromVolume(); err != nil {
		ctx.ReplyErr(err)
		return
	}
	// The backup (which shares the volume) rebuilds the same way.
	//lint:allow droppederr ErrNoBackup: a lone primary after node failure has no backup to rebuild; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its tables die with it
	ctx.Checkpoint(&ckRecord{Ops: []ckOp{{Kind: opReload}}})
	ctx.Reply(nil)
}

func (a *app) handleRead(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	if req.WithLock {
		if req.Tx.IsZero() {
			ctx.ReplyErr(fmt.Errorf("%w: locked read", ErrNoTx))
			return
		}
		if a.ended(req.Tx) {
			ctx.ReplyErr(ErrTxEnded)
			return
		}
		if err := a.participate(req.Tx); err != nil {
			ctx.ReplyErr(err)
			return
		}
		key := lock.Key{File: req.File, Record: req.Key}
		if !a.ensureLock(ctx, req.Tx, key, req.LockTimeout) {
			return // parked
		}
	}
	a.proc.reads.Add(1)
	// Cache consult: a hit avoids the simulated disc read cost.
	ck := dbfile.CacheKey{File: req.File, Key: req.Key}
	if v, ok := a.cache.Get(ck); ok {
		*req = RecReq{Val: v}
		ctx.Reply(req)
		return
	}
	// A miss pays the disc first and reads afterwards, in one step with the
	// cache install: an unlocked read is not ordered against writers by the
	// scheduler, and a value read before the sleep would overwrite, in the
	// cache, whatever an update or delete installed during it.
	if a.proc.cfg.MissPenalty > 0 {
		time.Sleep(a.proc.cfg.MissPenalty)
	}
	v, err := a.cache.Fill(ck, f)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	*req = RecReq{Val: v}
	ctx.Reply(req)
}

func (a *app) handleReadRange(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(ReadRangeReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.reads.Add(1)
	if req.Desc {
		ctx.Reply(ReadRangeResp{Recs: f.ReadRangeDesc(req.Lo, req.Hi, req.Limit)})
		return
	}
	ctx.Reply(ReadRangeResp{Recs: f.ReadRange(req.Lo, req.Hi, req.Limit)})
}

func (a *app) handleReadAlt(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(ReadAltReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.reads.Add(1)
	recs, err := f.ReadByAltKey(req.AltKey, req.Value)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	ctx.Reply(ReadRangeResp{Recs: recs})
}

// handleInsert: "TMF automatically generates locks on all new records
// inserted by a transaction."
func (a *app) handleInsert(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	if req.Tx.IsZero() {
		ctx.ReplyErr(fmt.Errorf("%w: insert", ErrNoTx))
		return
	}
	if a.ended(req.Tx) {
		ctx.ReplyErr(ErrTxEnded)
		return
	}
	if f.Exists(req.Key) {
		ctx.ReplyErr(fmt.Errorf("%w: %s in %s", dbfile.ErrDuplicateKey, req.Key, req.File))
		return
	}
	if err := a.participate(req.Tx); err != nil {
		ctx.ReplyErr(err)
		return
	}
	key := lock.Key{File: req.File, Record: req.Key}
	if !a.ensureLock(ctx, req.Tx, key, req.LockTimeout) {
		return
	}
	// A competitor may have inserted while we waited for the lock.
	if f.Exists(req.Key) {
		ctx.ReplyErr(fmt.Errorf("%w: %s in %s", dbfile.ErrDuplicateKey, req.Key, req.File))
		return
	}
	ck := a.newMutation(req.Tx, ckOp{Kind: opWrite, File: req.File, Key: req.Key, Val: a.own(ctx, m, req.Val)}, audit.ImageInsert, nil)
	if err := a.commitMutation(ctx, ck); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.writes.Add(1)
	ctx.Reply(nil)
}

// handleUpdate: "TMF verifies that all records updated or deleted by a
// transaction have been previously locked by that transaction."
func (a *app) handleUpdate(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	if req.Tx.IsZero() {
		ctx.ReplyErr(fmt.Errorf("%w: update", ErrNoTx))
		return
	}
	if a.ended(req.Tx) {
		ctx.ReplyErr(ErrTxEnded)
		return
	}
	if !a.lockHeld(req.Tx, req.File, req.Key) {
		ctx.ReplyErr(fmt.Errorf("%w: update %s/%s by %s", ErrNotLocked, req.File, req.Key, req.Tx))
		return
	}
	if err := a.participate(req.Tx); err != nil {
		ctx.ReplyErr(err)
		return
	}
	before, err := f.ReadShared(req.Key)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	ck := a.newMutation(req.Tx, ckOp{Kind: opWrite, File: req.File, Key: req.Key, Val: a.own(ctx, m, req.Val)}, audit.ImageUpdate, before)
	if err := a.commitMutation(ctx, ck); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.writes.Add(1)
	ctx.Reply(nil)
}

// handleDelete requires the record lock (acquired at read time) and keeps
// the primary-key lock until end of transaction.
func (a *app) handleDelete(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	if req.Tx.IsZero() {
		ctx.ReplyErr(fmt.Errorf("%w: delete", ErrNoTx))
		return
	}
	if a.ended(req.Tx) {
		ctx.ReplyErr(ErrTxEnded)
		return
	}
	if !a.lockHeld(req.Tx, req.File, req.Key) {
		ctx.ReplyErr(fmt.Errorf("%w: delete %s/%s by %s", ErrNotLocked, req.File, req.Key, req.Tx))
		return
	}
	if err := a.participate(req.Tx); err != nil {
		ctx.ReplyErr(err)
		return
	}
	before, err := f.ReadShared(req.Key)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	ck := a.newMutation(req.Tx, ckOp{Kind: opDelete, File: req.File, Key: req.Key}, audit.ImageDelete, before)
	if err := a.commitMutation(ctx, ck); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.writes.Add(1)
	ctx.Reply(nil)
}

// handleAppend adds to an entry-sequenced file; the new record is
// auto-locked like any insert.
func (a *app) handleAppend(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	f, err := a.file(req.File)
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	if err := a.checkAccess(m, req.File); err != nil {
		ctx.ReplyErr(err)
		return
	}
	if req.Tx.IsZero() {
		ctx.ReplyErr(fmt.Errorf("%w: append", ErrNoTx))
		return
	}
	if a.ended(req.Tx) {
		ctx.ReplyErr(ErrTxEnded)
		return
	}
	if f.Org() != dbfile.EntrySequenced {
		ctx.ReplyErr(fmt.Errorf("%w: append to %s file", dbfile.ErrWrongOrg, f.Org()))
		return
	}
	if err := a.participate(req.Tx); err != nil {
		ctx.ReplyErr(err)
		return
	}
	key, err := f.PeekAppendKey()
	if err != nil {
		ctx.ReplyErr(err)
		return
	}
	lk := lock.Key{File: req.File, Record: key}
	// The fresh key is normally free, so the lock is taken inline. Under
	// the lock manager's FIFO fairness the grant can still be refused — an
	// earlier file-lock waiter is queued, or another transaction holds the
	// file lock — and then the append parks like any other lock wait. (The
	// seed ignored the acquire outcome here and hard-coded
	// DefaultLockTimeout, silently writing an unlocked record whenever the
	// acquire queued.)
	if !a.ensureLock(ctx, req.Tx, lk, req.LockTimeout) {
		return
	}
	ck := a.newMutation(req.Tx, ckOp{Kind: opWrite, File: req.File, Key: key, Val: a.own(ctx, m, req.Val)}, audit.ImageInsert, nil)
	if err := a.commitMutation(ctx, ck); err != nil {
		ctx.ReplyErr(err)
		return
	}
	a.proc.writes.Add(1)
	// The key goes into the frame only now: a parked append is classified
	// again on resume, and its footprint must stay the whole file.
	*req = RecReq{Key: key}
	ctx.Reply(req)
}

// handleLock serves explicit file- or record-lock requests.
func (a *app) handleLock(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*RecReq)
	if req.Tx.IsZero() {
		ctx.ReplyErr(fmt.Errorf("%w: lock", ErrNoTx))
		return
	}
	if a.ended(req.Tx) {
		ctx.ReplyErr(ErrTxEnded)
		return
	}
	if err := a.participate(req.Tx); err != nil {
		ctx.ReplyErr(err)
		return
	}
	key := lock.Key{File: req.File, Record: req.Key}
	if !a.ensureLock(ctx, req.Tx, key, req.LockTimeout) {
		return
	}
	// Checkpoint the lock so a takeover preserves it.
	//lint:allow droppederr ErrNoBackup: with no backup there is no takeover to preserve the lock for; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its tables die with it
	ctx.Checkpoint(&ckRecord{Tx: req.Tx, Lock: &key})
	ctx.Reply(nil)
}

// handleEndTx releases the transaction's locks (phase two of commit, or
// the completion of backout).
func (a *app) handleEndTx(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*TxReq)
	a.markEnded(req.Tx)
	//lint:allow droppederr ErrNoBackup: release proceeds degraded and pair.Stats counts the miss; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its tables die with it
	ctx.Checkpoint(&ckRecord{Tx: req.Tx, EndTx: true})
	a.locks.ReleaseAll(req.Tx)
	a.stateMu.Lock()
	delete(a.participated, req.Tx)
	a.stateMu.Unlock()
	ctx.Reply(nil)
}

// handleFreeze marks a transaction ended-for-new-work while keeping its
// locks: the abort path freezes a transaction at every participating
// volume BEFORE backout, so an application's straggler update cannot slip
// in between the backout scan and the lock release.
func (a *app) handleFreeze(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*TxReq)
	a.markEnded(req.Tx)
	//lint:allow droppederr ErrNoBackup: the freeze itself is local, the checkpoint only mirrors it; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its tables die with it
	ctx.Checkpoint(&ckRecord{Tx: req.Tx, Freeze: true})
	ctx.Reply(nil)
}

// handleUndo applies before-images to reverse the transaction's updates.
// The images arrive in reverse LSN order from the BACKOUTPROCESS, and
// their restores are checkpointed to the backup as one record before the
// first is applied: the backup then holds every restore the primary may
// have made, which is all claim 3 asks of a checkpoint. The transaction
// still holds its locks, so the restores are invisible to concurrent
// transactions until lock release.
func (a *app) handleUndo(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*UndoReq)
	if len(req.Images) > 0 {
		if err := a.commitMutation(ctx, a.newUndo(req)); err != nil {
			ctx.ReplyErr(err)
			return
		}
		a.proc.undos.Add(uint64(len(req.Images)))
	}
	if tr := a.proc.cfg.Obs; tr != nil { // the detail is built only for a reader
		tr.Record(obs.Event{Tx: req.Tx, Kind: obs.EvUndoApplied,
			Node: a.proc.name, CPU: ctx.Proc().PID().CPU,
			Detail: fmt.Sprintf("%s (%d images)", a.proc.cfg.Volume.Name(), len(req.Images))})
	}
	ctx.Reply(nil)
}

// handleFlush write-forces the volume's audit trail (phase one of commit).
// Forcing everything appended so far is conservative and correct: the
// trail treats already-durable prefixes as free, and unrelated records
// forced early are simply group-committed. The force blocks for the
// simulated disc latency, so it runs on a parked flush worker: served
// inline it would hold a scheduler worker (or, at DiscWorkers = 1, the
// member goroutine itself) for the whole force, so concurrent committers'
// flushes would each take a worker out of the pool — and at DiscWorkers =
// 1 every other request on the volume would wait behind each force. The
// worker touches no app state — only the Proc's immutable configuration —
// and the commit protocol still waits for the reply before writing the
// commit record, so durability-before-commit is preserved per transaction.
func (a *app) handleFlush(ctx *pair.Ctx, m *msg.Message) {
	req := m.Payload.(*TxReq)
	if !a.audited() {
		ctx.Reply(nil)
		return
	}
	a.flushers.Go(*ctx, req.Tx)
}

// flush forces the trail for tx; the flush worker answers the request
// with the error it returns.
func (a *app) flush(ctx pair.Ctx, tx txid.ID) error {
	cpu := ctx.Proc().PID().CPU
	start := time.Now()
	err := a.proc.cfg.Audit.Force(cpu, 0)
	ev := obs.Event{Tx: tx, Kind: obs.EvFlushServed, Node: a.proc.name, CPU: cpu,
		Dur: time.Since(start), Detail: a.proc.cfg.Volume.Name()}
	if err != nil {
		ev.Err = err.Error()
	}
	a.proc.cfg.Obs.Record(ev)
	return err
}

// endedSet guards against operations arriving after end-of-transaction.
// It keeps two generations of up to endedCap transactions each: a full
// generation becomes the old one (whose map is cleared and reused), so the
// last endedCap ended transactions are always remembered.
const endedCap = 4096

func (a *app) markEnded(tx txid.ID) {
	a.stateMu.Lock()
	if len(a.endedSet) >= endedCap {
		clear(a.endedOld)
		a.endedSet, a.endedOld = a.endedOld, a.endedSet
	}
	a.endedSet[tx] = true
	a.stateMu.Unlock()
}

func (a *app) ended(tx txid.ID) bool {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	return a.endedSet[tx] || a.endedOld[tx]
}
