// Package lock implements the concurrency control described in the paper:
// "Two granularities of locking are provided ...: file and record. ... All
// locks are exclusive mode. Each DISCPROCESS maintains the locking control
// information for those records and files resident on its volume only ...
// no central lock manager exists. Deadlock detection is by timeout, the
// interval being specified as part of the lock request."
//
// A Manager serves one volume. Because a DISCPROCESS must never block its
// serving threads on a lock wait, acquisition is asynchronous: a request
// that cannot be granted immediately is queued and its callback fires on
// grant or timeout.
//
// The lock table is striped per file: each file's owners and waiters live
// in their own shard behind their own mutex, so Acquire/ReleaseAll on
// different files never contend. Waiters queue in arrival order per shard
// and grants are strictly FIFO: a fresh request compatible with the current
// owners still queues behind any earlier conflicting waiter (no barging),
// so a stream of short holders cannot starve an early waiter. Snapshot
// (process-pair checkpointing) takes every shard in sorted file order so a
// consistent cut is captured without a global mutex on the hot path.
package lock

import (
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/msg"
	"encompass/internal/txid"
)

// Errors reported by the lock manager.
var (
	// ErrTimeout is the deadlock-detection-by-timeout outcome. The paper's
	// prescribed recovery is RESTART-TRANSACTION.
	ErrTimeout = errors.New("lock: wait timed out (possible deadlock)")
	// ErrReleased is reported to waiters cancelled because their
	// transaction released its locks (e.g. it was aborted while waiting).
	ErrReleased = errors.New("lock: wait cancelled by transaction release")
)

// Requesters restart on either lock error; lock's error codes are 32-39.
func init() {
	msg.RegisterError(32, ErrTimeout)
	msg.RegisterError(33, ErrReleased)
}

// Key names a lockable object on a volume: a whole file, or one record by
// primary key. Record locking "operates on the primary key of an
// individual logical data record. (There is no locking at the block or
// index level.)"
type Key struct {
	File   string
	Record string // empty means a file-granularity lock
}

// IsFileLock reports whether the key names a whole file.
func (k Key) IsFileLock() bool { return k.Record == "" }

// conflict reports whether two keys in the same file exclude each other:
// a file lock excludes everything in the file, records exclude only
// themselves.
func conflict(a, b Key) bool {
	if a.File != b.File {
		return false
	}
	return a.IsFileLock() || b.IsFileLock() || a.Record == b.Record
}

// Stats counts lock activity.
type Stats struct {
	Grants       uint64
	ImmediateOK  uint64
	Waits        uint64
	Timeouts     uint64
	MaxQueueSeen uint64
}

type waiter struct {
	tx    txid.ID
	key   Key
	grant func(error)
	timer *time.Timer
	done  bool // granted, expired, or cancelled; guarded by shard.mu
}

// shard is one file's lock state. waiters is kept in arrival order; it is
// the FIFO the fairness guarantee is defined over.
type shard struct {
	file      string
	mu        sync.Mutex
	fileOwner txid.ID
	records   map[string]txid.ID // record key -> owner
	waiters   []*waiter
}

// Manager is the per-volume lock table.
type Manager struct {
	shardMu sync.RWMutex
	shards  map[string]*shard
	// list holds the same shards in creation order. It is append-only, so
	// a slice header read under shardMu stays valid after the lock is
	// dropped: ReleaseAll walks it without copying.
	list []*shard

	heldMu sync.Mutex
	// held is the reverse index (tx -> keys it owns, each once) behind
	// LocksHeld, Snapshot and ReleaseAll. A transaction's slice is taken at
	// its first grant on the volume, from free when it has one, and
	// ReleaseAll returns it there emptied.
	held map[txid.ID][]Key
	free [][]Key // guarded by heldMu; at most maxFreeHeld

	grants      atomic.Uint64
	immediate   atomic.Uint64
	waits       atomic.Uint64
	timeouts    atomic.Uint64
	maxQueue    atomic.Uint64
	queueLength atomic.Int64
}

// NewManager creates an empty lock table.
func NewManager() *Manager {
	return &Manager{
		shards: make(map[string]*shard),
		held:   make(map[txid.ID][]Key),
	}
}

// shardFor returns file's shard, creating it on first use.
func (m *Manager) shardFor(file string) *shard {
	if s := m.lookup(file); s != nil {
		return s
	}
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	s := m.shards[file]
	if s == nil {
		s = &shard{file: file, records: make(map[string]txid.ID)}
		m.shards[file] = s
		m.list = append(m.list, s)
	}
	return s
}

// lookup returns file's shard, or nil if nothing on the file was ever
// locked.
func (m *Manager) lookup(file string) *shard {
	m.shardMu.RLock()
	defer m.shardMu.RUnlock()
	return m.shards[file]
}

// ownsLocked reports whether tx owns key. Caller holds s.mu.
func (s *shard) ownsLocked(tx txid.ID, key Key) bool {
	if tx.IsZero() {
		return false
	}
	if key.IsFileLock() {
		return s.fileOwner == tx
	}
	return s.records[key.Record] == tx
}

// compatibleLocked reports whether tx may take key right now given the
// shard's owners. Caller holds s.mu.
func (s *shard) compatibleLocked(tx txid.ID, key Key) bool {
	if !s.fileOwner.IsZero() && s.fileOwner != tx {
		return false
	}
	if key.IsFileLock() {
		for _, owner := range s.records {
			if !owner.IsZero() && owner != tx {
				return false
			}
		}
		return true
	}
	owner := s.records[key.Record]
	return owner.IsZero() || owner == tx
}

// bargedLocked reports whether an earlier-queued waiter of another
// transaction conflicts with key, in which case a fresh compatible request
// must queue behind it instead of barging. Caller holds s.mu.
func (s *shard) bargedLocked(tx txid.ID, key Key) bool {
	for _, w := range s.waiters {
		if !w.done && w.tx != tx && conflict(w.key, key) {
			return true
		}
	}
	return false
}

// takeLocked records ownership. Caller holds s.mu and has verified
// compatibility. A grant of a key tx already owns is counted but not
// indexed twice.
func (m *Manager) takeLocked(s *shard, tx txid.ID, key Key) {
	if !s.ownsLocked(tx, key) {
		if key.IsFileLock() {
			s.fileOwner = tx
		} else {
			s.records[key.Record] = tx
		}
		m.heldMu.Lock()
		h := m.held[tx]
		if h == nil {
			if n := len(m.free); n > 0 {
				h, m.free = m.free[n-1], m.free[:n-1]
			} else {
				h = make([]Key, 0, 4)
			}
		}
		m.held[tx] = append(h, key)
		m.heldMu.Unlock()
	}
	m.grants.Add(1)
}

// tryLocked grants key to tx if the grant is immediate — tx already owns
// key, or the owners are compatible and no earlier conflicting waiter is
// queued — and reports whether it did. Caller holds s.mu.
func (m *Manager) tryLocked(s *shard, tx txid.ID, key Key) bool {
	if !s.ownsLocked(tx, key) {
		if !s.compatibleLocked(tx, key) || s.bargedLocked(tx, key) {
			return false
		}
		m.takeLocked(s, tx, key)
	}
	m.immediate.Add(1)
	return true
}

// Holds reports whether tx currently owns key.
func (m *Manager) Holds(tx txid.ID, key Key) bool {
	return !tx.IsZero() && m.HeldBy(key) == tx
}

// HeldBy returns the current owner of key (zero if unlocked).
func (m *Manager) HeldBy(key Key) txid.ID {
	s := m.lookup(key.File)
	if s == nil {
		return txid.ID{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key.IsFileLock() {
		return s.fileOwner
	}
	return s.records[key.Record]
}

// LocksHeld returns how many locks tx owns.
func (m *Manager) LocksHeld(tx txid.ID) int {
	m.heldMu.Lock()
	defer m.heldMu.Unlock()
	return len(m.held[tx])
}

// compatibleFor reports whether tx would be granted key immediately: it
// already holds it, or the owners are compatible and no earlier conflicting
// waiter is queued. Test hook for the exclusivity property test.
func (m *Manager) compatibleFor(tx txid.ID, key Key) bool {
	s := m.shardFor(key.File)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ownsLocked(tx, key) || s.compatibleLocked(tx, key) && !s.bargedLocked(tx, key)
}

// TryAcquire grants key to tx if the grant is immediate — tx already owns
// key, or the owners are compatible and no earlier conflicting waiter is
// queued — and reports whether it did. It never queues a waiter, and the
// decision and the grant are one step under the shard mutex.
func (m *Manager) TryAcquire(tx txid.ID, key Key) bool {
	s := m.shardFor(key.File)
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.tryLocked(s, tx, key)
}

// Acquire requests key for tx in exclusive mode. If the request is
// immediately grantable — tx already owns key, or the owners are compatible
// and no earlier conflicting waiter is queued — grant(nil) runs
// synchronously before Acquire returns true. Otherwise the request queues
// in arrival order: grant fires later with nil on grant or ErrTimeout
// after timeout, and Acquire returns false.
func (m *Manager) Acquire(tx txid.ID, key Key, timeout time.Duration, grant func(error)) bool {
	s := m.shardFor(key.File)
	s.mu.Lock()
	if m.tryLocked(s, tx, key) {
		s.mu.Unlock()
		grant(nil)
		return true
	}
	w := &waiter{tx: tx, key: key, grant: grant}
	s.waiters = append(s.waiters, w)
	m.waits.Add(1)
	q := uint64(m.queueLength.Add(1))
	if q > m.maxQueue.Load() {
		m.maxQueue.Store(q)
	}
	w.timer = time.AfterFunc(timeout, func() { m.expire(s, w) })
	s.mu.Unlock()
	return false
}

// expire fires on a waiter's deadline: remove it and report ErrTimeout.
func (m *Manager) expire(s *shard, w *waiter) {
	s.mu.Lock()
	if w.done {
		s.mu.Unlock()
		return
	}
	w.done = true
	s.waiters = without(s.waiters, w)
	// The expired waiter may have been blocking later-queued compatible
	// requests (no-barging); promote them now.
	granted := m.promoteLocked(s)
	s.mu.Unlock()
	m.timeouts.Add(1)
	m.queueLength.Add(-1)
	w.grant(ErrTimeout)
	for _, g := range granted {
		m.queueLength.Add(-1)
		g.grant(nil)
	}
}

func without(ws []*waiter, w *waiter) []*waiter {
	for i, x := range ws {
		if x == w {
			return append(ws[:i:i], ws[i+1:]...)
		}
	}
	return ws
}

// maxFreeHeld bounds the free list of emptied reverse-index slices.
const maxFreeHeld = 64

// ReleaseAll frees every lock tx owns and cancels its pending waits; it
// then grants newly compatible waiters in FIFO arrival order per shard.
// Called at phase two of commit or at the end of backout.
func (m *Manager) ReleaseAll(tx txid.ID) {
	keys := m.takeHeld(tx)
	m.releasePass(tx, keys)
	// A wait of tx that another transaction's release granted before this
	// pass cancelled it was indexed afresh after takeHeld: release that too.
	// The pass cancelled every remaining wait, so nothing more can come.
	if late := m.takeHeld(tx); late != nil {
		m.releasePass(tx, late)
		m.recycle(late)
	}
	m.recycle(keys)
}

// takeHeld removes and returns tx's reverse-index slice (nil when tx owns
// nothing).
func (m *Manager) takeHeld(tx txid.ID) []Key {
	m.heldMu.Lock()
	defer m.heldMu.Unlock()
	keys := m.held[tx]
	delete(m.held, tx)
	return keys
}

// recycle returns a released reverse-index slice, emptied, to the free
// list.
func (m *Manager) recycle(keys []Key) {
	if keys == nil {
		return
	}
	m.heldMu.Lock()
	if len(m.free) < maxFreeHeld {
		m.free = append(m.free, keys[:0])
	}
	m.heldMu.Unlock()
}

// releasePass releases the given keys of tx and cancels tx's waits. The
// transaction may be waiting in shards where it owns nothing, so every
// shard is visited: release owners, cancel waits, promote.
func (m *Manager) releasePass(tx txid.ID, keys []Key) {
	m.shardMu.RLock()
	shards := m.list
	m.shardMu.RUnlock()

	for _, s := range shards {
		s.mu.Lock()
		// Release owners held by tx in this shard.
		for _, k := range keys {
			switch {
			case k.File != s.file:
			case k.IsFileLock():
				if s.fileOwner == tx {
					s.fileOwner = txid.ID{}
				}
			case s.records[k.Record] == tx:
				delete(s.records, k.Record)
			}
		}
		// Cancel waits belonging to tx itself.
		var cancelled []*waiter
		kept := s.waiters[:0]
		for _, w := range s.waiters {
			if w.tx == tx {
				w.done = true
				if w.timer != nil {
					w.timer.Stop()
				}
				cancelled = append(cancelled, w)
			} else {
				kept = append(kept, w)
			}
		}
		s.waiters = kept
		granted := m.promoteLocked(s)
		s.mu.Unlock()

		for _, w := range cancelled {
			m.queueLength.Add(-1)
			w.grant(ErrReleased)
		}
		for _, w := range granted {
			m.queueLength.Add(-1)
			w.grant(nil)
		}
	}
}

// promoteLocked grants every waiter now grantable, in arrival order: a
// waiter is granted only if it is compatible with the owners AND no
// earlier still-queued waiter of another transaction conflicts with its
// key — the FIFO fairness rule. Caller holds s.mu; the returned waiters'
// callbacks must be invoked after unlocking.
func (m *Manager) promoteLocked(s *shard) []*waiter {
	var granted []*waiter
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		blocked := false
		for _, e := range kept {
			if e.tx != w.tx && conflict(e.key, w.key) {
				blocked = true
				break
			}
		}
		if !blocked && s.compatibleLocked(w.tx, w.key) {
			w.done = true
			if w.timer != nil {
				w.timer.Stop()
			}
			m.takeLocked(s, w.tx, w.key)
			granted = append(granted, w)
		} else {
			kept = append(kept, w)
		}
	}
	s.waiters = kept
	return granted
}

// Stats returns activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Grants:       m.grants.Load(),
		ImmediateOK:  m.immediate.Load(),
		Waits:        m.waits.Load(),
		Timeouts:     m.timeouts.Load(),
		MaxQueueSeen: m.maxQueue.Load(),
	}
}

// Snapshot lists all held locks, for checkpointing lock state to a backup
// DISCPROCESS. It takes every shard in sorted file order (the shard-ordered
// lock protocol) so the copy is a consistent cut: no grant or release can
// be mid-flight across the stripes while the snapshot is taken.
func (m *Manager) Snapshot() map[txid.ID][]Key {
	m.shardMu.RLock()
	names := make([]string, 0, len(m.shards))
	for name := range m.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	locked := make([]*shard, 0, len(names))
	for _, name := range names {
		s := m.shards[name]
		s.mu.Lock()
		locked = append(locked, s)
	}
	m.heldMu.Lock()
	out := make(map[txid.ID][]Key, len(m.held))
	for tx, keys := range m.held {
		out[tx] = slices.Clone(keys)
	}
	m.heldMu.Unlock()
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].mu.Unlock()
	}
	m.shardMu.RUnlock()
	return out
}

// Restore installs a lock snapshot into an empty manager (backup seeding /
// takeover).
func (m *Manager) Restore(snap map[txid.ID][]Key) {
	// Deterministic order: file locks before record locks per transaction,
	// so a tx's file lock never spuriously conflicts with its own records.
	txs := make([]txid.ID, 0, len(snap))
	for tx := range snap {
		txs = append(txs, tx)
	}
	sort.Slice(txs, func(i, j int) bool { return txs[i].String() < txs[j].String() })
	for _, tx := range txs {
		keys := append([]Key(nil), snap[tx]...)
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].File != keys[j].File {
				return keys[i].File < keys[j].File
			}
			return keys[i].Record < keys[j].Record // "" (file lock) first
		})
		for _, k := range keys {
			s := m.shardFor(k.File)
			s.mu.Lock()
			if s.compatibleLocked(tx, k) {
				m.takeLocked(s, tx, k)
			}
			s.mu.Unlock()
		}
	}
}
