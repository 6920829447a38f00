package discproc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// opKind classifies a checkpointed mutation.
type opKind int

const (
	opCreate opKind = iota
	opWrite         // insert/update/undo-write: install Val under Key
	opDelete        // delete/undo-delete: remove Key
	opReload        // rebuild file structures from the volume (recovery)
)

// metaFile is the reserved volume file that stores per-file metadata
// (organization, alternate keys) so file structures are rebuildable after
// total node failure.
const metaFile = "__meta__"

// ckOp is the mutation part of a checkpoint record. All apply paths are
// idempotent (ForceWrite/ForceDelete) so replays after takeover are safe.
type ckOp struct {
	Kind       opKind
	File       string
	Key        string
	Val        []byte
	Org        dbfile.Organization
	AltKeys    []dbfile.AltKeyDef
	AllowNodes []string
	NextRec    uint64 // entry-sequenced allocator position after this op
}

// ckRecord is one checkpoint: the ops, in the order they apply, the lock
// the transaction acquired with them, and the audit images they generated,
// as the request that ships them to the AUDITPROCESS (nil on an unaudited
// volume). It is sent to the backup BEFORE the primary applies any op —
// the WAL-equivalence discipline. EndTx marks end-of-transaction lock
// release. It is sent by pointer (pair checkpoints stay on the node's bus
// and are never encoded), so a record is immutable once sent: the primary
// only reads it afterwards, the AUDITPROCESS reads its append request, and
// the backup buffers that same record as lastCk.
//
// A mutation's record is built by newMutation, inside the one object that
// also holds its op, lock, image and append request. An undo of several
// images is one record whose Ops are the restores (newUndo). Endtx,
// freeze and lock-only checkpoints are a bare ckRecord: they are the most
// frequent records and carry none of that.
type ckRecord struct {
	Ops    []ckOp
	Tx     txid.ID
	Lock   *lock.Key
	Append *audit.AppendReq
	EndTx  bool
	Freeze bool
}

// mutation is everything one mutation's checkpoint points at, in one heap
// object: the record itself (checkpointed as &m.ck), inline backing for
// its one op, its one lock and its one image, and the append request that
// ships the image. It is not pooled: the backup buffers &m.ck as lastCk,
// and the record is immutable once sent.
type mutation struct {
	ck  ckRecord
	op  [1]ckOp
	lk  lock.Key
	img [1]audit.Image
	req audit.AppendReq
}

// noImage is the image kind of a mutation that generates no image and
// takes no lock: a create, and an undo (its transaction already holds the
// lock, and the trail already has the image being undone).
const noImage audit.ImageKind = -1

// newMutation builds the checkpoint record for op on behalf of tx. A
// record mutation (kind is not noImage) carries the lock on op's record
// and, on an audited volume, the image of kind: before is the
// before-image, op.Val the after-image. The image is written behind when
// tx is homed on another node: its phase-one request is at least one
// network hop away, so the AUDITPROCESS starts the force now and phase
// one here finds the records durable (ForceEveryUpdate forces anyway).
// The lock was taken beforehand, for an update or delete at read time,
// which does not checkpoint.
// Without it a takeover would serve new lock requests on a record whose
// in-flight update this checkpoint delivers — admitting dirty reads, and
// letting this transaction's backout overwrite a successor's committed
// update.
func (a *app) newMutation(tx txid.ID, op ckOp, kind audit.ImageKind, before []byte) *ckRecord {
	m := &mutation{op: [1]ckOp{op}}
	m.ck = ckRecord{Ops: m.op[:], Tx: tx}
	if kind == noImage {
		return &m.ck
	}
	m.lk = lock.Key{File: op.File, Record: op.Key}
	m.ck.Lock = &m.lk
	if a.audited() {
		m.img[0] = audit.Image{Tx: tx, Volume: a.proc.cfg.Volume.Name(), File: op.File,
			Key: op.Key, Kind: kind, Before: before, After: op.Val}
		m.req.Images = m.img[:]
		m.req.WriteBehind = tx.Home != a.proc.node && !a.proc.cfg.ForceEveryUpdate
		m.ck.Append = &m.req
	}
	return &m.ck
}

// newUndo builds the one checkpoint record that restores req's images, in
// the order they arrive: a before-image is written back, an inserted
// record is deleted. A single image takes one object, as a mutation does.
func (a *app) newUndo(req *UndoReq) *ckRecord {
	if len(req.Images) == 1 {
		return a.newMutation(req.Tx, undoOp(&req.Images[0]), noImage, nil)
	}
	ck := &ckRecord{Ops: make([]ckOp, len(req.Images)), Tx: req.Tx}
	for i := range req.Images {
		ck.Ops[i] = undoOp(&req.Images[i])
	}
	return ck
}

// undoOp is the op that restores the record img changed.
func undoOp(img *audit.Image) ckOp {
	if img.Kind == audit.ImageInsert {
		return ckOp{Kind: opDelete, File: img.File, Key: img.Key}
	}
	return ckOp{Kind: opWrite, File: img.File, Key: img.Key, Val: img.Before}
}

// own returns the value an insert, update or append carries as the
// DISCPROCESS's own copy. A value is copied once, here, where a caller's
// bytes enter: from then on the file, the cache, the volume, the
// checkpointed op and the audit image all share it, read-only, and a
// caller that reuses its buffer after the reply changes none of them. A
// request from another node was decoded from its frame and already owns
// its bytes, so it is not copied again.
func (a *app) own(ctx *pair.Ctx, m *msg.Message, val []byte) []byte {
	if m.FromSys != "" && m.FromSys != ctx.Proc().System().Node().Name() {
		return val
	}
	return bytes.Clone(val)
}

// resumeNote is the continuation payload posted to self when a parked
// lock wait resolves.
type resumeNote struct {
	token uint64
	err   error
}

// app is the per-member DISCPROCESS state machine. With DiscWorkers > 1 a
// conflict-aware scheduler (sched.go) dispatches non-conflicting requests
// concurrently, so the shared transaction-tracking maps are guarded by
// small mutexes; the file structures, record cache, lock manager, volume
// and audit client are all internally synchronized. The file table, the
// ACL map and the cache and locks pointers need no lock: only the wide
// operations (create, reload) mutate them, and those are admitted alone,
// after browses drain. Everything else — including the transaction-scoped
// flush, endtx, freeze and undo, which run beside other transactions'
// work — only reads them.
//
// Writers keep the record cache coherent by order: file structure first,
// cache second (applyOp). A read miss relies on that order to fill the
// cache without ever installing a value a writer has since replaced
// (dbfile.Cache.Fill).
type app struct {
	proc  *Proc
	sched *scheduler // nil in serial (DiscWorkers = 1) mode
	files map[string]*dbfile.File
	locks *lock.Manager
	cache *dbfile.Cache

	// stateMu guards participated, endedSet and endedOld (written by
	// concurrent workers via participate/markEnded).
	stateMu sync.Mutex
	// participated tracks transactions already reported to TMF.
	participated map[txid.ID]bool // guarded by stateMu
	// endedSet and endedOld, its previous generation, remember recently
	// ended transactions so straggler operations are rejected rather than
	// re-acquiring locks post-release.
	endedSet map[txid.ID]bool // guarded by stateMu
	endedOld map[txid.ID]bool // guarded by stateMu

	// pendMu guards pending and nextToken (workers park, the member
	// goroutine resumes).
	pendMu sync.Mutex
	// pending parks lock-waiting requests, by token, as the context they
	// will be answered through.
	pending   map[uint64]pair.Ctx // guarded by pendMu
	nextToken uint64              // guarded by pendMu

	// acl maps file name -> set of node names allowed to access it; a
	// missing entry means unrestricted.
	acl map[string]map[string]bool

	// lastCk buffers the most recent checkpoint absorbed as backup, so a
	// takeover can re-complete the in-flight operation (re-append images,
	// re-apply to the shared volume) idempotently. A transaction's endtx or
	// freeze checkpoint retires it only if it is that transaction's: the
	// primary runs endtx(T) beside update(U), and U's operation may still
	// be in flight when T's release passes.
	lastCk *ckRecord

	// flushers serve handleFlush's trail forces.
	flushers *pair.Workers[txid.ID]
}

func newApp(pr *Proc) *app {
	a := &app{
		proc:         pr,
		files:        make(map[string]*dbfile.File),
		locks:        lock.NewManager(),
		cache:        dbfile.NewCache(pr.cfg.CacheSize),
		participated: make(map[txid.ID]bool),
		endedSet:     make(map[txid.ID]bool),
		endedOld:     make(map[txid.ID]bool),
		pending:      make(map[uint64]pair.Ctx),
		acl:          make(map[string]map[string]bool),
	}
	a.flushers = pair.NewWorkers(a.flush)
	if w := resolveWorkers(pr.cfg.DiscWorkers); w > 1 {
		a.sched = newScheduler(a, w)
	}
	return a
}

// resolveWorkers maps Config.DiscWorkers onto a pool depth: 0 (and any
// negative value) selects the parallel default, 1 the serial seed mode.
func resolveWorkers(n int) int {
	if n <= 0 {
		return DefaultDiscWorkers
	}
	return n
}

// Handle accepts one client request on the primary. In serial mode it
// dispatches inline on the member goroutine (the seed behaviour). With the
// scheduler enabled, browse requests fork onto their own goroutine (the
// lock-free fast path) and everything else is queued for conflict-aware
// admission onto the worker pool. Ops counts client requests; a lock-wait
// continuation is part of the request it resumes.
//
// Below Handle a request's context travels by pointer, to the one copy
// that serves it: Handle's own parameter (serial mode), a scheduler job's
// (a browse is carried by a job too), or a resumed request's; dispatch
// hands the handlers the message by pointer too. A handler that answers
// after dispatch returns (a parked lock wait, a flush) copies the context.
func (a *app) Handle(ctx pair.Ctx) {
	a.proc.primApp.Store(a)
	m := ctx.Req()
	if m.Kind == kindResume {
		a.handleResume(&m)
		return
	}
	a.proc.ops.Add(1)
	if a.sched == nil {
		a.dispatch(&ctx)
		return
	}
	fp, browse := classify(&m)
	if browse {
		go a.browse(a.sched.browseJob(&ctx))
		return
	}
	a.sched.enqueue(&ctx, fp)
}

// browse serves a browse request on its own goroutine, counted by the
// scheduler so that wide operations can wait for it to drain. The request
// comes in a job, so the goroutine is handed a pointer: a context passed
// by value would be moved to the heap, being larger than a closure
// captures by value.
func (a *app) browse(j *job) {
	a.sched.startBrowse()
	defer a.sched.endBrowse(j)
	a.dispatch(&j.ctx)
}

func (a *app) dispatch(ctx *pair.Ctx) {
	m := ctx.Req()
	switch m.Kind {
	case KindCreate:
		a.handleCreate(ctx, &m)
	case KindRead:
		a.handleRead(ctx, &m)
	case KindReadRange:
		a.handleReadRange(ctx, &m)
	case KindReadAlt:
		a.handleReadAlt(ctx, &m)
	case KindInsert:
		a.handleInsert(ctx, &m)
	case KindUpdate:
		a.handleUpdate(ctx, &m)
	case KindDelete:
		a.handleDelete(ctx, &m)
	case KindAppend:
		a.handleAppend(ctx, &m)
	case KindLockFile, KindLockRec:
		a.handleLock(ctx, &m)
	case KindEndTx:
		a.handleEndTx(ctx, &m)
	case KindUndo:
		a.handleUndo(ctx, &m)
	case KindFlush:
		a.handleFlush(ctx, &m)
	case KindReload:
		a.handleReload(ctx, &m)
	case KindFreeze:
		a.handleFreeze(ctx, &m)
	default:
		ctx.ReplyErr(fmt.Errorf("%w: %q", ErrUnknownKind, m.Kind))
	}
}

// ensureLock guarantees tx holds key before ctx's handler proceeds. A lock
// tx already holds (or covers with its file lock), and a free lock, which
// is taken on the spot, return true: the caller continues inline under the
// scheduler footprint it already holds, as the paper's DISCPROCESS grants
// a lock as part of the request that needs it. TryAcquire decides and
// grants in one step under the lock table's shard mutex, so there is no
// callback and no wakeup to lose.
//
// Only a refused request waits. It is parked, an acquisition is queued
// whose outcome (grant, timeout, or cancellation) is posted back to our own
// inbox as a continuation message, and the caller must return immediately.
func (a *app) ensureLock(ctx *pair.Ctx, tx txid.ID, key lock.Key, timeout time.Duration) bool {
	if a.locks.Holds(tx, key) || (!key.IsFileLock() && a.locks.Holds(tx, lock.Key{File: key.File})) {
		return true
	}
	if a.locks.TryAcquire(tx, key) {
		return true
	}
	if timeout <= 0 {
		timeout = DefaultLockTimeout
	}
	a.pendMu.Lock()
	a.nextToken++
	token := a.nextToken
	a.pending[token] = *ctx
	a.pendMu.Unlock()
	proc := ctx.Proc()
	self := msg.Addr{Name: proc.Name()}
	a.locks.Acquire(tx, key, timeout, func(err error) {
		// Runs from a lock-manager goroutine, or synchronously if the lock
		// fell free since TryAcquire; either way the continuation is a
		// message to self.
		go func() {
			if serr := proc.Send(self, kindResume, resumeNote{token: token, err: err}); serr != nil {
				// The member mailbox is gone (mid-takeover shutdown): unpark
				// the request and fail it so the client is not left waiting
				// on a continuation that can never arrive.
				a.pendMu.Lock()
				orig, ok := a.pending[token]
				delete(a.pending, token)
				a.pendMu.Unlock()
				if ok {
					_ = orig.ReplyErr(serr)
				}
			}
		}()
	})
	return false
}

func (a *app) handleResume(m *msg.Message) {
	note := m.Payload.(resumeNote)
	a.pendMu.Lock()
	orig, ok := a.pending[note.token]
	delete(a.pending, note.token)
	a.pendMu.Unlock()
	if !ok {
		return
	}
	if note.err != nil {
		// Lock wait failed: timeout (possible deadlock — the prescribed
		// recovery is RESTART-TRANSACTION) or cancellation by release.
		orig.ReplyErr(note.err)
		return
	}
	// Lock granted: re-dispatch the original request; the held lock makes
	// the retry take the inline path. A parked request released its
	// scheduler footprint when it parked, so it goes back through
	// conflict-aware admission rather than straight to a worker.
	if a.sched != nil {
		req := orig.Req()
		if fp, browse := classify(&req); !browse {
			a.sched.enqueue(&orig, fp)
			return
		}
	}
	a.dispatch(&orig)
}

// checkAccess enforces per-file node ACLs against the request's
// originating node.
func (a *app) checkAccess(m *msg.Message, file string) error {
	allowed, ok := a.acl[file]
	if !ok || len(allowed) == 0 {
		return nil
	}
	origin := m.FromSys
	if origin == "" {
		origin = m.From.Node
	}
	if !allowed[origin] {
		return fmt.Errorf("%w: %s accessing %s", ErrAccessDenied, origin, file)
	}
	return nil
}

// lockHeld reports whether tx owns the record (or covering file) lock.
func (a *app) lockHeld(tx txid.ID, file, key string) bool {
	return a.locks.Holds(tx, lock.Key{File: file, Record: key}) ||
		a.locks.Holds(tx, lock.Key{File: file})
}

func (a *app) file(name string) (*dbfile.File, error) {
	f, ok := a.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s on %s", ErrNoSuchFile, name, a.proc.name)
	}
	return f, nil
}

// participate reports the volume's participation in tx to TMF, BEFORE the
// operation takes any lock or applies any change. The call is made on
// every operation, not just the first per volume: TMF's answer doubles as
// the transaction's liveness check, refusing operations once the
// transaction is closed to new work (END in progress or abort under way),
// so a straggler can never apply an update that the freeze/backout/release
// snapshots no longer cover.
func (a *app) participate(tx txid.ID) error {
	if tx.IsZero() {
		return nil
	}
	if cb := a.proc.cfg.OnParticipate; cb != nil {
		if err := cb(tx, a.proc.cfg.Volume.Name()); err != nil {
			return err
		}
	}
	a.stateMu.Lock()
	a.participated[tx] = true
	a.stateMu.Unlock()
	return nil
}

// audited reports whether this volume generates audit images.
func (a *app) audited() bool { return a.proc.cfg.Audit != nil }

// emitImages sends a checkpoint's append request to the AUDITPROCESS
// (appended, not forced — unless the T2 ablation's ForceEveryUpdate is on,
// which forces everything appended, as a flush does).
func (a *app) emitImages(ctx *pair.Ctx, req *audit.AppendReq) error {
	if req == nil {
		return nil
	}
	cpu := ctx.Proc().PID().CPU
	if err := a.proc.cfg.Audit.Append(cpu, req); err != nil {
		return err
	}
	if a.proc.cfg.ForceEveryUpdate {
		return a.proc.cfg.Audit.Force(cpu, 0)
	}
	return nil
}

// commitMutation runs the full write discipline for one checkpoint
// record: checkpoint (audit records + ops + lock) to the backup, append
// images to the audit trail, then apply each op, in order, to the file
// structures and the mirrored volume. No op applies before the record has
// reached the backup, so one checkpoint covers a whole undo batch.
//
// ErrNoBackup is the one tolerable checkpoint failure (the pair runs
// degraded, single-module, and pair.Stats counts the miss). Any other
// error — in particular ErrHalted, this member's own CPU dying
// mid-handler — must abandon the mutation BEFORE it touches the shared
// volume or the audit trail: the promoted partner owns the state now, and
// a zombie that kept applying would fork the volume from the state the
// new primary serves.
func (a *app) commitMutation(ctx *pair.Ctx, ck *ckRecord) error {
	if err := ctx.Checkpoint(ck); err != nil && !errors.Is(err, pair.ErrNoBackup) {
		return err
	}
	if err := a.emitImages(ctx, ck.Append); err != nil {
		return err
	}
	for i := range ck.Ops {
		a.applyOp(&ck.Ops[i])
		if err := a.applyVolume(&ck.Ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyOp applies a mutation to the in-memory file structures.
// Idempotent; used by both primary and backup.
func (a *app) applyOp(op *ckOp) {
	switch op.Kind {
	case opCreate:
		if _, ok := a.files[op.File]; !ok {
			a.files[op.File] = dbfile.NewFile(op.File, op.Org, op.AltKeys...)
		}
		if len(op.AllowNodes) > 0 {
			set := make(map[string]bool, len(op.AllowNodes))
			for _, n := range op.AllowNodes {
				set[n] = true
			}
			a.acl[op.File] = set
		}
	case opWrite:
		if f, ok := a.files[op.File]; ok {
			f.ForceWrite(op.Key, op.Val)
			a.cache.Put(dbfile.CacheKey{File: op.File, Key: op.Key}, op.Val)
		}
	case opDelete:
		if f, ok := a.files[op.File]; ok {
			f.ForceDelete(op.Key)
			a.cache.Invalidate(dbfile.CacheKey{File: op.File, Key: op.Key})
		}
	case opReload:
		_ = a.reloadFromVolume()
	}
}

// reloadFromVolume discards all in-memory state and rebuilds the file
// structures from the (restored) volume contents.
func (a *app) reloadFromVolume() error {
	a.files = make(map[string]*dbfile.File)
	a.cache = dbfile.NewCache(a.proc.cfg.CacheSize)
	a.locks = lock.NewManager()
	a.stateMu.Lock()
	a.participated = make(map[txid.ID]bool)
	clear(a.endedSet)
	clear(a.endedOld)
	a.stateMu.Unlock()
	a.pendMu.Lock()
	a.pending = make(map[uint64]pair.Ctx)
	a.pendMu.Unlock()
	v := a.proc.cfg.Volume
	for _, name := range v.Keys(metaFile) {
		raw, err := v.Read(metaFile, name)
		if err != nil {
			return err
		}
		org, alts, err := decodeMeta(raw)
		if err != nil {
			return err
		}
		f := dbfile.NewFile(name, org, alts...)
		for _, key := range v.Keys(name) {
			val, err := v.Read(name, key)
			if err != nil {
				return err
			}
			f.ForceWrite(key, val)
		}
		a.files[name] = f
	}
	return nil
}

// encodeMeta/decodeMeta persist file metadata as a volume record.
func encodeMeta(org dbfile.Organization, alts []dbfile.AltKeyDef) []byte {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	_ = enc.Encode(org)
	_ = enc.Encode(alts)
	return buf.Bytes()
}

func decodeMeta(raw []byte) (dbfile.Organization, []dbfile.AltKeyDef, error) {
	dec := gob.NewDecoder(bytes.NewReader(raw))
	var org dbfile.Organization
	var alts []dbfile.AltKeyDef
	if err := dec.Decode(&org); err != nil {
		return 0, nil, err
	}
	if err := dec.Decode(&alts); err != nil {
		return 0, nil, err
	}
	return org, alts, nil
}

// applyVolume applies a mutation to the shared mirrored volume (primary
// only; the backup re-applies its buffered op on takeover).
func (a *app) applyVolume(op *ckOp) error {
	v := a.proc.cfg.Volume
	switch op.Kind {
	case opWrite:
		return v.Write(op.File, op.Key, op.Val)
	case opDelete:
		return v.Delete(op.File, op.Key)
	}
	return nil
}

// --- pair.App interface ---

// ApplyCheckpoint absorbs one checkpoint on the backup: take the lock,
// apply every op to the replica file structures, and buffer the record
// for takeover completion.
func (a *app) ApplyCheckpoint(cp any) {
	ck := cp.(*ckRecord)
	if ck.Freeze || ck.EndTx {
		a.markEnded(ck.Tx)
		if ck.EndTx {
			a.locks.ReleaseAll(ck.Tx)
			a.stateMu.Lock()
			delete(a.participated, ck.Tx)
			a.stateMu.Unlock()
		}
		// The transaction's own operations all completed before this was
		// admitted; another transaction's buffered operation may not have.
		if a.lastCk != nil && a.lastCk.Tx == ck.Tx {
			a.lastCk = nil
		}
		return
	}
	if ck.Lock != nil {
		a.locks.Acquire(ck.Tx, *ck.Lock, time.Nanosecond, func(error) {})
	}
	if !ck.Tx.IsZero() {
		a.stateMu.Lock()
		a.participated[ck.Tx] = true
		a.stateMu.Unlock()
	}
	for i := range ck.Ops {
		a.applyOp(&ck.Ops[i])
	}
	a.lastCk = ck
}

// Snapshot captures full state for seeding a fresh backup. It runs on the
// member goroutine while workers may be mid-operation, so the scheduler is
// quiesced first: admission pauses and in-flight work (scheduled and
// browse) drains, making the copied cut consistent.
func (a *app) Snapshot() any {
	if a.sched != nil {
		resume := a.sched.quiesce()
		defer resume()
	}
	snap := &snapshot{
		locks: a.locks.Snapshot(),
		files: make(map[string]fileSnap, len(a.files)),
	}
	a.stateMu.Lock()
	snap.participated = make(map[txid.ID]bool, len(a.participated))
	for tx := range a.participated {
		snap.participated[tx] = true
	}
	a.stateMu.Unlock()
	for name, f := range a.files {
		recs := f.ReadRange("", "", 0)
		snap.files[name] = fileSnap{org: f.Org(), altKeys: f.AltKeys(), recs: recs}
	}
	return snap
}

type fileSnap struct {
	org     dbfile.Organization
	altKeys []dbfile.AltKeyDef
	recs    []dbfile.Rec
}

type snapshot struct {
	locks        map[txid.ID][]lock.Key
	participated map[txid.ID]bool
	files        map[string]fileSnap
}

// Restore seeds a fresh backup from a snapshot.
func (a *app) Restore(s any) {
	snap := s.(*snapshot)
	a.locks.Restore(snap.locks)
	// The backup is not serving yet, but the seed writes a guarded field;
	// holding the (uncontended) mutex keeps the invariant machine-checkable.
	a.stateMu.Lock()
	for tx := range snap.participated {
		a.participated[tx] = true
	}
	a.stateMu.Unlock()
	for name, fs := range snap.files {
		f := dbfile.NewFile(name, fs.org, fs.altKeys...)
		for _, r := range fs.recs {
			f.ForceWrite(r.Key, r.Val)
		}
		a.files[name] = f
	}
}

// TakeOver completes the in-flight operation whose checkpoint we absorbed:
// its images may not have reached the audit trail and its volume writes
// (every op of an undo batch) may not have happened; both re-applications
// are idempotent.
func (a *app) TakeOver() {
	a.proc.primApp.Store(a)
	if ck := a.lastCk; ck != nil {
		if ck.Append != nil {
			// Best effort: the trail tolerates duplicate images because
			// backout/replay write absolute before/after values.
			cpu := -1
			if p := a.proc.Pair; p != nil {
				cpu = p.PrimaryCPU()
			}
			if cpu >= 0 {
				if err := a.proc.cfg.Audit.Append(cpu, ck.Append); err != nil {
					// The trail is unreachable during takeover: the images
					// for this one operation may be missing from the audit
					// trail. Count it so operators and the chaos oracle can
					// see the exposure instead of it vanishing silently.
					a.proc.replayAppendFails.Add(1)
				}
			}
		}
		for i := range ck.Ops {
			a.applyVolume(&ck.Ops[i])
		}
		a.lastCk = nil
	}
}
