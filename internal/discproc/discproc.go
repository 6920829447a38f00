// Package discproc implements the ENCOMPASS DISCPROCESS: "an I/O
// process-pair per disc volume ... it protects the structural integrity of
// individual files through active checkpointing of process state and data".
// The DISCPROCESS controls all access to one logical (mirrored) disc
// volume, maintains the lock table for the records and files resident on
// that volume (decentralized concurrency control), and — for audited
// volumes — provides before- and after-images of every update to an
// AUDITPROCESS.
//
// The checkpoint discipline implements the paper's replacement for
// Write Ahead Log: "By checkpointing the audit records generated by an
// update request to its backup prior to performing the update, the primary
// DISCPROCESS assures the feasibility of transaction backout even in the
// event of the failure of the primary's processor."
//
// Requests are served by a conflict-aware scheduler (sched.go): incoming
// operations are classified as keyed by (file, key), scoped to their
// transaction (flush, endtx, freeze, undo) or volume-wide (create, reload);
// non-conflicting ones run concurrently on a bounded worker pool
// (Config.DiscWorkers), conflicting ones serialize in arrival order.
// Browse accesses bypass the write pipeline entirely. With DiscWorkers = 1
// the process serves from the single member goroutine, the paper's
// original single-threaded DISCPROCESS. Either way lock waits are
// asynchronous: a request that must wait is parked and resumed by a
// continuation message when the lock manager grants or times out.
package discproc

import (
	"errors"
	"sync/atomic"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/disk"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// Message kinds served by a DISCPROCESS.
const (
	KindCreate    = "disc.create"
	KindRead      = "disc.read"
	KindReadRange = "disc.readrange"
	KindReadAlt   = "disc.readalt"
	KindInsert    = "disc.insert"
	KindUpdate    = "disc.update"
	KindDelete    = "disc.delete"
	KindAppend    = "disc.append"
	KindLockFile  = "disc.lockfile"
	KindLockRec   = "disc.lockrec"
	KindEndTx     = "disc.endtx"
	KindUndo      = "disc.undo"
	KindFlush     = "disc.flush"
	KindReload    = "disc.reload"
	KindFreeze    = "disc.freeze"

	kindResume = "disc.resume" // internal continuation
)

// Errors reported by the DISCPROCESS.
var (
	ErrNoSuchFile   = errors.New("discproc: no such file")
	ErrFileExists   = errors.New("discproc: file already exists")
	ErrNotLocked    = errors.New("discproc: record not locked by transaction")
	ErrNoTx         = errors.New("discproc: operation requires a transaction")
	ErrLockTimeout  = lock.ErrTimeout
	ErrUnknownKind  = errors.New("discproc: unknown request kind")
	ErrNotAudited   = errors.New("discproc: volume is not audited")
	ErrAccessDenied = errors.New("discproc: access denied for requesting node")
	ErrBadOpPayload = errors.New("discproc: malformed request payload")
)

// DefaultLockTimeout applies when a request leaves the timeout zero.
const DefaultLockTimeout = 2 * time.Second

// DefaultDiscWorkers is the worker-pool depth used when Config.DiscWorkers
// is zero: conflict-aware intra-volume parallelism is the default (1 = the
// serial seed).
const DefaultDiscWorkers = 8

// CreateReq defines a new file on the volume. AllowNodes, when non-empty,
// restricts access to requests originating from the listed network nodes
// ("security controls by ... network node", ENCOMPASS data base manager
// feature 5).
type CreateReq struct {
	File       string
	Org        dbfile.Organization
	AltKeys    []dbfile.AltKeyDef
	AllowNodes []string
}

// RecReq is the frame of every record operation: read, insert, update,
// delete, append and lock. It travels by pointer, and the DISCPROCESS
// answers in the frame it was sent: a read replies with the frame holding
// only the record's value, in Val, an append with the frame holding only
// the assigned key, in Key; the other operations reply with no payload.
//
// The frame belongs to the caller, who may reuse it once a reply —
// success or application error — has arrived. Until then the DISCPROCESS
// may still read and write it, so a call that timed out must abandon its
// frame. Across nodes the frame is copied both ways (its wire codec is in
// wire.go), and the reply's payload is a frame of its own.
type RecReq struct {
	Tx   txid.ID
	File string
	// Key names the record; an append leaves it empty and gets the new
	// record's key back in it, and a lock request leaves it empty for a
	// file lock.
	Key string
	// Val is the new value of an insert, update or append, and a read's
	// answer.
	Val []byte
	// WithLock makes a read acquire the record lock at read time, the
	// paper's prescribed locking point.
	WithLock    bool
	LockTimeout time.Duration
}

// ReadRangeReq scans keys in [Lo, Hi), at most Limit records (browse
// access, no locks). Desc scans in reverse key order.
type ReadRangeReq struct {
	File   string
	Lo, Hi string
	Limit  int
	Desc   bool
}

// ReadRangeResp carries scan results.
type ReadRangeResp struct{ Recs []dbfile.Rec }

// ReadAltReq fetches records by alternate key value.
type ReadAltReq struct {
	File   string
	AltKey string
	Value  string
}

// TxReq names the transaction a transaction-scoped request acts on: flush
// (force the volume's audit records, phase one of commit), endtx (release
// every lock the transaction holds on this volume, phase two or the end
// of backout) and freeze. It travels by pointer and is never written, so
// one request can be shared by every volume and every retry.
type TxReq struct {
	Tx txid.ID
}

// UndoReq applies before-images to reverse a transaction's updates
// (transaction backout). Images arrive in reverse LSN order. It travels by
// pointer and is never written.
type UndoReq struct {
	Tx     txid.ID
	Images []audit.Image
}

// Config describes one DISCPROCESS.
type Config struct {
	Volume *disk.Volume
	// Audited wires the volume to an AUDITPROCESS; nil means unaudited
	// (no images, no backout protection), per the paper's per-volume
	// "audited" configuration.
	Audit *audit.Client
	// OnParticipate is invoked (on the primary, once per transaction)
	// before a transaction's first operation on this volume touches any
	// lock or data; the facade wires it to the local TMF so participants
	// are tracked. A non-nil error (e.g. the transaction is past END or
	// aborting) rejects the operation.
	OnParticipate func(tx txid.ID, volume string) error
	// CacheSize is the record cache capacity (0 disables).
	CacheSize int
	// MissPenalty simulates the disc read cost a cache hit avoids.
	MissPenalty time.Duration
	// ForceEveryUpdate enables the conventional Write-Ahead-Log discipline
	// (force the audit trail after every update) instead of the paper's
	// checkpoint discipline; used by the T2 ablation.
	ForceEveryUpdate bool
	// Obs, when non-nil, receives the DISCPROCESS side of a transaction's
	// lifecycle trace (flush served, undo applied). The facade shares the
	// node's tracer so these interleave with the TMF monitor's events.
	Obs *obs.Tracer
	// DiscWorkers bounds the conflict-aware scheduler's worker pool:
	// 0 = DefaultDiscWorkers (parallel, the default), 1 = the serial
	// seed-equivalent mode (every request on the member goroutine, no
	// browse fast path), N > 1 = N workers.
	DiscWorkers int
	// Registry, when non-nil, receives scheduler metrics (queue wait,
	// admissions, browse fast-path hits, wide barriers, per-file conflict
	// stalls). The facade shares the node's registry so tmfctl metrics
	// shows them next to the TMF and audit counters.
	Registry *obs.Registry
}

// Stats aggregates DISCPROCESS activity.
type Stats struct {
	Ops        uint64
	Reads      uint64
	Writes     uint64
	Undos      uint64
	LockStats  lock.Stats
	CacheStats dbfile.CacheStats
	Pair       pair.Stats
	Sched      SchedStats
	// ReplayAppendFails counts takeover re-appends of checkpointed images
	// that the audit trail rejected — each one is an operation whose
	// images may be absent from the trail.
	ReplayAppendFails uint64
}

// Proc is a running DISCPROCESS pair.
type Proc struct {
	cfg  Config
	Pair *pair.Pair
	name string

	ops    atomic.Uint64
	reads  atomic.Uint64
	writes atomic.Uint64
	undos  atomic.Uint64

	// replayAppendFails counts audit re-append failures during TakeOver.
	replayAppendFails atomic.Uint64

	// shared references for Stats (primary's view)
	primApp atomic.Pointer[app]
}

// Start launches a DISCPROCESS pair named name (conventionally
// "disc-<volume>") on the given CPUs.
func Start(sys *msg.System, name string, primaryCPU, backupCPU int, cfg Config) (*Proc, error) {
	pr := &Proc{cfg: cfg, name: name}
	p, err := pair.Start(sys, name, primaryCPU, backupCPU, func() pair.App {
		a := newApp(pr)
		// Track the most recently created app that serves as primary; the
		// first one created is the initial primary.
		pr.primApp.CompareAndSwap(nil, a)
		return a
	})
	if err != nil {
		return nil, err
	}
	pr.Pair = p
	return pr, nil
}

// Name returns the registered service name.
func (pr *Proc) Name() string { return pr.name }

// LocksSnapshot returns every lock currently held on the volume, keyed by
// owning transaction. The DST harness's no-lost-locks checker asserts
// this is empty once every transaction is resolved.
func (pr *Proc) LocksSnapshot() map[txid.ID][]lock.Key {
	if a := pr.primApp.Load(); a != nil {
		return a.locks.Snapshot()
	}
	return nil
}

// Volume returns the underlying disc volume.
func (pr *Proc) Volume() *disk.Volume { return pr.cfg.Volume }

// Stats returns aggregated counters from the current serving member.
func (pr *Proc) Stats() Stats {
	s := Stats{
		Ops:    pr.ops.Load(),
		Reads:  pr.reads.Load(),
		Writes: pr.writes.Load(),
		Undos:  pr.undos.Load(),
		Pair:   pr.Pair.Stats(),

		ReplayAppendFails: pr.replayAppendFails.Load(),
	}
	if a := pr.primApp.Load(); a != nil {
		s.LockStats = a.locks.Stats()
		s.CacheStats = a.cache.Stats()
		if a.sched != nil {
			s.Sched = a.sched.snapshotStats()
		} else {
			s.Sched = SchedStats{Workers: 1}
		}
	}
	return s
}
