package discproc

import (
	"context"
	"sync"
	"time"

	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// This file implements the conflict-aware request scheduler that makes the
// DISCPROCESS multithreaded. The paper's DISCPROCESS serves a whole volume
// from one thread; here every incoming request is put in one of three
// conflict classes and requests that do not conflict run concurrently on a
// bounded worker pool:
//
//   - keyed: record-granularity operations carry (file, key) — appends
//     carry the file alone — and conflict when they touch the same record;
//   - transaction-scoped: flush, endtx, freeze and undo act on one
//     transaction's audit records, locks and updated records, so they
//     conflict with requests of that transaction only. A transaction's own
//     operations therefore still run — and reach the backup as checkpoints
//     — in arrival order (endtx(T) neither overtakes nor runs beside an
//     earlier update(T)), while phase one and phase two of T wait behind
//     nobody else's work;
//   - wide: create and reload replace the file table, the ACL map and the
//     cache / lock-manager pointers, which every other request reads
//     without a lock, so they run alone.
//
// The transaction-scoped class is safe beside other transactions' keyed
// work because none of its four members touches what wide exclusivity
// protects: endtx and freeze use stateMu and the internally locked lock
// manager, flush touches only the audit client, and undo rewrites records
// on which its transaction still holds the locks (strict 2PL), so no other
// transaction's keyed operation can pass its lock check on them.
//
// Conflicting requests are admitted in arrival order. The
// checkpoint-before-update discipline is preserved per operation: a worker
// ships the operation's checkpoint to the backup before applying it, so the
// backup observes conflicting checkpoints in execution order
// (non-conflicting ones commute).
//
// Browse accesses (ReadRange, ReadAlt, unlocked Read) bypass the write
// pipeline entirely: they run on their own goroutine against the dbfile
// structures (internally guarded by a per-file RWMutex) and the record
// cache, never touching the lock manager. A wide operation waits for
// in-flight browses to drain, so a reload or create never mutates the file
// table under a reader, and while one is queued (or a Snapshot has the
// pool quiesced) new browses wait at the door until it has run: overlapping
// browses cannot starve it, and a browse waits for at most one such
// operation.
//
// One wake per admissible job. Idle workers wait on work, and each event
// that can make a job admissible wakes one of them: an enqueue; a worker
// that takes a job while others stay queued (so one completion that
// unblocks two jobs runs both); the last browse ending under a queued wide
// job. A finishing worker looks for its next job itself. Browses held at
// the door and quiesce wait on cond, which is broadcast only while paused
// or when a wide job ends. A closed pool and quiesce's resume wake all.

// scope is a footprint's conflict class.
type scope uint8

const (
	scopeKeyed scope = iota // one record, or one whole file (key == "")
	scopeTx                 // everything of one transaction on this volume
	scopeWide               // the whole volume
)

// footprint describes what one request touches. tx is the requesting
// transaction in every class that has one; file and key are set for keyed
// requests only.
type footprint struct {
	file  string
	key   string // empty = whole file (appends: allocator position)
	tx    txid.ID
	scope scope
}

// overlaps reports whether two footprints must not run concurrently.
func (a footprint) overlaps(b footprint) bool {
	switch {
	case a.scope == scopeWide || b.scope == scopeWide:
		return true
	case a.scope == scopeTx || b.scope == scopeTx:
		return a.tx == b.tx
	case a.file != b.file:
		return false
	}
	return a.key == "" || b.key == "" || a.key == b.key
}

// txScoped is the footprint of a request that acts on tx as a whole. With
// no transaction to scope it to, it falls back to wide.
func txScoped(tx txid.ID) footprint {
	if tx.IsZero() {
		return footprint{scope: scopeWide}
	}
	return footprint{tx: tx, scope: scopeTx}
}

// classify derives a request's footprint. browse requests bypass the
// scheduler entirely. Unknown or malformed payloads fall back to wide, so
// they serialize exactly as in the single-threaded seed.
func classify(m *msg.Message) (fp footprint, browse bool) {
	switch m.Kind {
	case KindRead:
		if req, ok := m.Payload.(*RecReq); ok {
			if !req.WithLock {
				return footprint{}, true
			}
			return footprint{file: req.File, key: req.Key, tx: req.Tx}, false
		}
	case KindReadRange:
		if _, ok := m.Payload.(ReadRangeReq); ok {
			return footprint{}, true
		}
	case KindReadAlt:
		if _, ok := m.Payload.(ReadAltReq); ok {
			return footprint{}, true
		}
	case KindInsert, KindUpdate, KindDelete, KindLockFile, KindLockRec:
		if req, ok := m.Payload.(*RecReq); ok {
			return footprint{file: req.File, key: req.Key, tx: req.Tx}, false
		}
	case KindAppend:
		// Appends allocate the next entry-sequence key, so they serialize
		// per file: two concurrent appends would race on the allocator.
		if req, ok := m.Payload.(*RecReq); ok {
			return footprint{file: req.File, tx: req.Tx}, false
		}
	case KindEndTx, KindFreeze, KindFlush:
		if req, ok := m.Payload.(*TxReq); ok {
			return txScoped(req.Tx), false
		}
	case KindUndo:
		if req, ok := m.Payload.(*UndoReq); ok {
			return txScoped(req.Tx), false
		}
	}
	return footprint{scope: scopeWide}, false
}

// job is one scheduled request, or one browse: a copy of the request's
// context, which the worker (or the browse goroutine) dispatches by
// pointer. Jobs are recycled through the scheduler's free list once
// dispatch has returned and the job has left inflight (or the browse
// count); that is safe because a handler that answers later (a parked lock
// wait, a flush) holds its own copy of the context, never the job's.
type job struct {
	ctx      pair.Ctx
	fp       footprint
	enqueued time.Time
	stalled  bool // conflict stall already counted for this job
}

// SchedStats counts scheduler activity (see Proc.Stats).
type SchedStats struct {
	Workers        int
	Enqueued       uint64
	Admitted       uint64
	BrowseOps      uint64
	WideOps        uint64 // create, reload and unclassifiable requests only
	ConflictStalls uint64
	MaxInflight    uint64
	MaxQueued      uint64
	// Violations counts admissions whose footprint overlapped an already
	// in-flight one — the in-flight footprint assertion. Always zero; the
	// conflict property test fails the build of trust if it ever is not.
	Violations uint64
	// Wakeups counts idle workers woken to look for a job; with one wake
	// per admissible job it stays close to Admitted.
	Wakeups uint64
}

// scheduler admits queued jobs onto a bounded worker pool such that no two
// in-flight jobs have overlapping footprints and conflicting jobs run in
// arrival order.
type scheduler struct {
	a       *app
	workers int
	vol     string
	reg     *obs.Registry

	mu       sync.Mutex
	work     *sync.Cond // shares mu; idle workers wait here
	cond     *sync.Cond // shares mu; browses at the door and quiesce wait here
	queue    []*job     // guarded by mu
	inflight []*job     // guarded by mu
	free     []*job     // guarded by mu; finished jobs, zeroed, for reuse
	browsing int        // guarded by mu; browse fast-path operations currently running
	wide     int        // guarded by mu; wide jobs enqueued and not yet finished
	paused   bool       // guarded by mu; quiesce() for Snapshot
	spawned  bool       // guarded by mu
	closed   bool       // guarded by mu

	stats SchedStats // guarded by mu

	queueWait  *obs.Histogram
	admitted   *obs.Counter
	browseOps  *obs.Counter
	wideOps    *obs.Counter
	stalls     *obs.Counter
	wakes      *obs.Counter
	fileStalls map[string]*obs.Counter
}

func newScheduler(a *app, workers int) *scheduler {
	vol := a.proc.cfg.Volume.Name()
	reg := a.proc.cfg.Registry
	s := &scheduler{
		a:          a,
		workers:    workers,
		vol:        vol,
		reg:        reg,
		queueWait:  reg.Histogram(obs.MDiscQueueWait(vol)),
		admitted:   reg.Counter(obs.MDiscAdmitted(vol)),
		browseOps:  reg.Counter(obs.MDiscBrowse(vol)),
		wideOps:    reg.Counter(obs.MDiscWideBarriers(vol)),
		stalls:     reg.Counter(obs.MDiscConflictStalls(vol)),
		wakes:      reg.Counter(obs.MDiscWorkerWakes(vol)),
		fileStalls: make(map[string]*obs.Counter),
	}
	s.work = sync.NewCond(&s.mu)
	s.cond = sync.NewCond(&s.mu)
	s.stats.Workers = workers
	return s
}

// enqueue accepts one non-browse request from the member goroutine. The
// worker pool is spawned lazily on first use so it binds to the serving
// member's context (workers die with the member's CPU).
func (s *scheduler) enqueue(ctx *pair.Ctx, fp footprint) {
	now := time.Now()
	s.mu.Lock()
	if !s.spawned {
		s.spawned = true
		for i := 0; i < s.workers; i++ {
			//lint:allow spawnlifecycle workers retire via the closed flag: watch() observes the member context ending and broadcasts every worker out of its loop
			go s.run()
		}
		go s.watch(ctx.Proc().Context())
	}
	j := s.jobLocked()
	j.ctx, j.fp, j.enqueued = *ctx, fp, now
	s.queue = append(s.queue, j)
	s.stats.Enqueued++
	if fp.scope == scopeWide {
		s.wide++
		s.stats.WideOps++
	}
	if n := uint64(len(s.queue)); n > s.stats.MaxQueued {
		s.stats.MaxQueued = n
	}
	s.mu.Unlock()
	s.work.Signal()
	if fp.scope == scopeWide {
		s.wideOps.Inc()
	}
}

// jobLocked takes a job from the free list, or a new one. Caller holds s.mu.
func (s *scheduler) jobLocked() *job {
	if n := len(s.free); n > 0 {
		j := s.free[n-1]
		s.free = s.free[:n-1]
		return j
	}
	return new(job)
}

// recycleLocked zeroes a finished job and returns it to the free list.
// Caller holds s.mu.
func (s *scheduler) recycleLocked(j *job) {
	*j = job{}
	s.free = append(s.free, j)
}

// browseJob carries a browse request's context to its goroutine, which
// recycles the job in endBrowse.
func (s *scheduler) browseJob(ctx *pair.Ctx) *job {
	s.mu.Lock()
	j := s.jobLocked()
	s.mu.Unlock()
	j.ctx = *ctx
	return j
}

// watch closes the pool when the serving member's CPU goes down.
func (s *scheduler) watch(member context.Context) {
	<-member.Done()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.work.Broadcast()
	s.cond.Broadcast()
}

// run is one worker: admit a conflict-free job, dispatch it, repeat. A
// worker that takes a job while others stay queued wakes one more idle
// worker, which admits the next job if it can run now; a finishing worker
// wakes nobody, since it looks for its next job itself.
func (s *scheduler) run() {
	s.mu.Lock()
	for {
		var j *job
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if !s.paused {
				j = s.pickLocked()
			}
			if j != nil {
				break
			}
			s.work.Wait()
			s.stats.Wakeups++
			s.wakes.Inc()
		}
		if len(s.queue) > 0 {
			s.work.Signal()
		}
		s.mu.Unlock()
		s.queueWait.Observe(time.Since(j.enqueued))
		s.admitted.Inc()
		s.a.dispatch(&j.ctx)
		s.mu.Lock()
		s.inflight = remove(s.inflight, j)
		if j.fp.scope == scopeWide {
			s.wide--
		}
		if s.paused || j.fp.scope == scopeWide {
			s.cond.Broadcast()
		}
		s.recycleLocked(j)
	}
}

// pickLocked returns the first queued job that conflicts with neither an
// in-flight job nor an earlier-queued one (FIFO per conflict class: two
// conflicting requests are always admitted in arrival order, while later
// non-conflicting requests may overtake a stalled head). Wide jobs are
// admitted only alone, and only once in-flight browses have drained;
// transaction-scoped jobs wait for neither browses nor other transactions.
// Caller holds s.mu.
func (s *scheduler) pickLocked() *job {
	for i, j := range s.queue {
		blocked := false
		if j.fp.scope == scopeWide && (len(s.inflight) > 0 || s.browsing > 0) {
			blocked = true
		}
		if !blocked {
			for _, f := range s.inflight {
				if j.fp.overlaps(f.fp) {
					blocked = true
					break
				}
			}
		}
		if !blocked {
			for _, e := range s.queue[:i] {
				if j.fp.overlaps(e.fp) {
					blocked = true
					break
				}
			}
		}
		if blocked {
			if !j.stalled {
				j.stalled = true
				s.stats.ConflictStalls++
				s.stalls.Inc()
				if j.fp.scope == scopeKeyed {
					s.fileStallLocked(j.fp.file).Inc()
				}
			}
			continue
		}
		s.queue = removeAt(s.queue, i)
		// In-flight footprint assertion: admission must never overlap a
		// running job. Redundant with the checks above by construction;
		// counted (not assumed) so the property test can verify it.
		for _, f := range s.inflight {
			if j.fp.overlaps(f.fp) {
				s.stats.Violations++
			}
		}
		s.inflight = append(s.inflight, j)
		s.stats.Admitted++
		if n := uint64(len(s.inflight)); n > s.stats.MaxInflight {
			s.stats.MaxInflight = n
		}
		return j
	}
	return nil
}

func (s *scheduler) fileStallLocked(file string) *obs.Counter {
	c, ok := s.fileStalls[file]
	if !ok {
		c = s.reg.Counter(obs.MDiscFileStalls(s.vol, file))
		s.fileStalls[file] = c
	}
	return c
}

func remove(js []*job, j *job) []*job {
	for i, x := range js {
		if x == j {
			return removeAt(js, i)
		}
	}
	return js
}

// removeAt shifts js[i+1:] down in place: the queue and the in-flight list
// are only ever touched under s.mu, so no reader holds the old backing
// array and a removal need not allocate.
func removeAt(js []*job, i int) []*job {
	copy(js[i:], js[i+1:])
	js[len(js)-1] = nil
	return js[:len(js)-1]
}

// startBrowse/endBrowse bracket a browse fast-path operation, on the
// browse's own goroutine. Browses are never queued behind other requests,
// but wide operations wait for them to drain before mutating the file
// table, and in return a browse that arrives while a wide job is waiting
// or running (or while a Snapshot has the pool quiesced) waits here until
// it is done — otherwise overlapping browses would keep `browsing` above
// zero for ever. A closed pool (the member's CPU is down) holds nobody.
func (s *scheduler) startBrowse() {
	s.mu.Lock()
	for (s.wide > 0 || s.paused) && !s.closed {
		s.cond.Wait()
	}
	s.browsing++
	s.stats.BrowseOps++
	s.mu.Unlock()
	s.browseOps.Inc()
}

func (s *scheduler) endBrowse(j *job) {
	s.mu.Lock()
	s.browsing--
	s.recycleLocked(j)
	if s.browsing == 0 && s.wide > 0 {
		s.work.Signal() // a queued wide job may run now
	}
	if s.paused {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// quiesce pauses admission and waits for in-flight work (scheduled and
// browse) to drain, so the member goroutine can take a consistent snapshot
// for backup seeding. The returned function resumes admission.
func (s *scheduler) quiesce() func() {
	s.mu.Lock()
	s.paused = true
	for len(s.inflight) > 0 || s.browsing > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.paused = false
		s.mu.Unlock()
		s.work.Broadcast()
		s.cond.Broadcast()
	}
}

// snapshotStats returns a copy of the counters.
func (s *scheduler) snapshotStats() SchedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
