// Package mfg implements the paper's Figure-4 case study: Tandem
// Manufacturing's distributed data base coordinating four facilities
// (Cupertino, Santa Clara, Reston, Neufahrn).
//
// Each node holds a copy of the "global" files (Item Master, Bill of
// Materials, Purchase Order Header) and a set of "local" files (Stock,
// Work-in-Progress, Transaction History, Purchase Order Detail). Global
// files are replicated for performance and availability; reads always go
// to the local copy. For updates, "each global file record is assigned a
// master node, the name of which is stored in each record instance": the
// update runs as a TMF transaction at the master node, which updates the
// master copy and queues deferred updates for the non-master copies in a
// suspense file. A dedicated suspense monitor drains the file — in order —
// to each node as it becomes accessible, so that "when the network is
// re-connected and all accumulated updates are applied, global file copies
// converge to a consistent state."
//
// The design trades replica consistency for node autonomy; InstallSync
// provides the paper's rejected alternative (synchronous replication of
// all copies in one TMF transaction) for the availability comparison.
package mfg

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encompass"
	"encompass/internal/txid"
)

// DefaultNodes are the four manufacturing facilities of Figure 4.
var DefaultNodes = []string{"cupertino", "santaclara", "reston", "neufahrn"}

// GlobalFiles are replicated at every node.
var GlobalFiles = []string{"item-master", "bom", "po-header"}

// LocalFiles exist independently per node.
var LocalFiles = []string{"stock", "wip", "history", "po-detail"}

// suspenseFile holds deferred updates for non-master copies.
const suspenseFile = "suspense"

// serverClass is the manufacturing application server class name.
const serverClass = "mfg"

// Errors reported by the application.
var (
	ErrMasterUnavailable = errors.New("mfg: record's master node unavailable")
	ErrNoRecord          = errors.New("mfg: no such record")
	ErrBadRecord         = errors.New("mfg: malformed record encoding")
)

// EncodeGlobal packs a global record: its master node plus the payload.
func EncodeGlobal(master, payload string) []byte {
	return []byte(master + "|" + payload)
}

// DecodeGlobal unpacks a global record.
func DecodeGlobal(raw []byte) (master, payload string, err error) {
	s := string(raw)
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return "", "", fmt.Errorf("%w: %q", ErrBadRecord, s)
	}
	return s[:i], s[i+1:], nil
}

func encodeSuspense(target, file, key string, value []byte) []byte {
	return []byte(target + "|" + file + "|" + key + "|" + string(value))
}

func decodeSuspense(raw []byte) (target, file, key string, value []byte, err error) {
	parts := strings.SplitN(string(raw), "|", 4)
	if len(parts) != 4 {
		return "", "", "", nil, fmt.Errorf("%w: suspense %q", ErrBadRecord, string(raw))
	}
	return parts[0], parts[1], parts[2], []byte(parts[3]), nil
}

// Stats counts application activity.
type Stats struct {
	MasterUpdates   uint64
	DeferredQueued  uint64
	DeferredApplied uint64
	DeferredBlocked uint64 // drain attempts skipped for unreachable nodes
	// DeferredRetries counts drains that re-attempted a target after its
	// backoff expired; DeferredBackoffSkips counts targets skipped because
	// they were still inside their backoff window.
	DeferredRetries      uint64
	DeferredBackoffSkips uint64
	SyncUpdates          uint64
	SyncUpdateFails      uint64
	LocalTxns            uint64
}

// App is the running manufacturing application across the system.
type App struct {
	sys   *encompass.System
	nodes []string

	stats struct {
		masterUpdates, deferredQueued, deferredApplied, deferredBlocked atomic.Uint64
		deferredRetries, deferredBackoffSkips                           atomic.Uint64
		syncUpdates, syncFails, localTxns                               atomic.Uint64
	}

	monMu    sync.Mutex
	monitors []*suspenseMonitor

	skMu        sync.Mutex
	suspenseSeq map[string]uint64
}

// nextSuspenseKey allocates the next suspense-file key at a node;
// zero-padded so lexicographic order is queue order.
func (a *App) nextSuspenseKey(node string) string {
	a.skMu.Lock()
	defer a.skMu.Unlock()
	a.suspenseSeq[node]++
	return fmt.Sprintf("%012d", a.suspenseSeq[node])
}

// Install builds the manufacturing schema and servers on the given nodes
// (volume "v-<node>" must exist on each) and starts the suspense monitors.
func Install(sys *encompass.System, nodes []string, drainInterval time.Duration) (*App, error) {
	a := &App{sys: sys, nodes: nodes, suspenseSeq: make(map[string]uint64)}
	for _, name := range nodes {
		n := sys.Node(name)
		if n == nil {
			return nil, fmt.Errorf("mfg: node %s not in system", name)
		}
		vol := "v-" + name
		// Per-node catalog: global files resolve to the LOCAL copy, local
		// files to the local volume; the suspense file is local.
		for _, f := range append(append([]string{}, GlobalFiles...), LocalFiles...) {
			org := encompass.KeySequenced
			if f == "history" {
				org = encompass.EntrySequenced
			}
			if err := n.FS.Create(encompass.LocalFile(f, org, name, vol)); err != nil {
				return nil, err
			}
		}
		if err := n.FS.Create(encompass.LocalFile(suspenseFile, encompass.KeySequenced, name, vol)); err != nil {
			return nil, err
		}
		if _, err := n.StartServerClass(encompass.ServerClassConfig{
			Class:        serverClass,
			Handler:      a.handler(n),
			MinInstances: 1,
			MaxInstances: 4,
		}); err != nil {
			return nil, err
		}
	}
	for _, name := range nodes {
		m := &suspenseMonitor{app: a, node: sys.Node(name), interval: drainInterval,
			stop: make(chan struct{}), backoff: make(map[string]*targetBackoff)}
		a.monMu.Lock()
		a.monitors = append(a.monitors, m)
		a.monMu.Unlock()
		go m.run()
	}
	return a, nil
}

// Stop halts the suspense monitors.
func (a *App) Stop() {
	a.monMu.Lock()
	defer a.monMu.Unlock()
	for _, m := range a.monitors {
		m.stopOnce.Do(func() { close(m.stop) })
	}
}

// Stats returns activity counters.
func (a *App) Stats() Stats {
	return Stats{
		MasterUpdates:        a.stats.masterUpdates.Load(),
		DeferredQueued:       a.stats.deferredQueued.Load(),
		DeferredApplied:      a.stats.deferredApplied.Load(),
		DeferredBlocked:      a.stats.deferredBlocked.Load(),
		DeferredRetries:      a.stats.deferredRetries.Load(),
		DeferredBackoffSkips: a.stats.deferredBackoffSkips.Load(),
		SyncUpdates:          a.stats.syncUpdates.Load(),
		SyncUpdateFails:      a.stats.syncFails.Load(),
		LocalTxns:            a.stats.localTxns.Load(),
	}
}

// handler is the per-node manufacturing server.
func (a *App) handler(n *encompass.Node) encompass.Handler {
	return func(tx txid.ID, f map[string]string) (map[string]string, error) {
		switch f["OP"] {
		case "update-master":
			// Runs at the record's master node, inside the caller's
			// transaction: update the master copy and queue deferred
			// updates for every non-master copy.
			file, key, payload := f["FILE"], f["KEY"], f["PAYLOAD"]
			cur, err := n.FS.ReadLock(tx, file, key)
			if err != nil {
				return nil, err
			}
			master, _, err := DecodeGlobal(cur)
			if err != nil {
				return nil, err
			}
			if master != n.Name {
				return nil, fmt.Errorf("mfg: %s/%s is mastered at %s, not %s", file, key, master, n.Name)
			}
			val := EncodeGlobal(master, payload)
			if err := n.FS.Update(tx, file, key, val); err != nil {
				return nil, err
			}
			for _, other := range a.nodes {
				if other == n.Name {
					continue
				}
				sk := a.nextSuspenseKey(n.Name)
				if err := n.FS.Insert(tx, suspenseFile, sk, encodeSuspense(other, file, key, val)); err != nil {
					return nil, err
				}
				a.stats.deferredQueued.Add(1)
			}
			a.stats.masterUpdates.Add(1)
			return map[string]string{"STATUS": "OK"}, nil
		case "apply-replica":
			// Runs at a non-master node on behalf of the suspense monitor:
			// install the deferred update into the local copy.
			file, key := f["FILE"], f["KEY"]
			val := []byte(f["VALUE"])
			if _, err := n.FS.ReadLock(tx, file, key); err == nil {
				if err := n.FS.Update(tx, file, key, val); err != nil {
					return nil, err
				}
			} else if err := n.FS.Insert(tx, file, key, val); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		case "replica-write":
			// Synchronous-replication variant (the design the paper
			// rejected): write the local copy inside the caller's
			// distributed transaction.
			if err := writeOrInsert(n, tx, f["FILE"], f["KEY"], []byte(f["VALUE"])); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		case "stock-move":
			// A purely local transaction: adjust stock, append history.
			item, qty := f["ITEM"], f["QTY"]
			if _, err := n.FS.ReadLock(tx, "stock", item); err != nil {
				if err := n.FS.Insert(tx, "stock", item, []byte(qty)); err != nil {
					return nil, err
				}
			} else if err := n.FS.Update(tx, "stock", item, []byte(qty)); err != nil {
				return nil, err
			}
			if _, err := n.FS.Append(tx, "history", []byte("stock-move "+item+" "+qty)); err != nil {
				return nil, err
			}
			a.stats.localTxns.Add(1)
			return map[string]string{"STATUS": "OK"}, nil
		default:
			return nil, fmt.Errorf("mfg: unknown op %q", f["OP"])
		}
	}
}

func writeOrInsert(n *encompass.Node, tx txid.ID, file, key string, val []byte) error {
	if _, err := n.FS.ReadLock(tx, file, key); err == nil {
		return n.FS.Update(tx, file, key, val)
	}
	return n.FS.Insert(tx, file, key, val)
}

// SeedItem installs a global record (master copy + every replica) under
// one distributed transaction. Used for initial loading while the network
// is whole.
func (a *App) SeedItem(file, key, masterNode, payload string) error {
	home := a.sys.Node(masterNode)
	t, err := home.Begin()
	if err != nil {
		return err
	}
	val := EncodeGlobal(masterNode, payload)
	for _, name := range a.nodes {
		node := name
		if node == masterNode {
			if err := t.Insert(file, key, val); err != nil {
				t.Abort("seed failed")
				return err
			}
			continue
		}
		if _, err := home.CallServer(node, serverClass, t.ID, map[string]string{
			"OP": "replica-write", "FILE": file, "KEY": key, "VALUE": string(val),
		}, 5*time.Second); err != nil {
			t.Abort("seed failed")
			return err
		}
	}
	return t.Commit()
}

// ReadItem reads the LOCAL copy at the given node — "reads are always
// directed to the local record copy."
func (a *App) ReadItem(node, file, key string) (master, payload string, err error) {
	raw, err := a.sys.Node(node).FS.Read(file, key)
	if err != nil {
		return "", "", fmt.Errorf("%w: %s/%s at %s: %v", ErrNoRecord, file, key, node, err)
	}
	return DecodeGlobal(raw)
}

// UpdateItem updates a global record from any node: the update is sent to
// a server at the record's master node; non-master copies follow via the
// suspense file. It fails if the master node is unreachable — the paper's
// stated constraint.
func (a *App) UpdateItem(fromNode, file, key, payload string) error {
	from := a.sys.Node(fromNode)
	master, _, err := a.ReadItem(fromNode, file, key)
	if err != nil {
		return err
	}
	t, err := from.Begin()
	if err != nil {
		return err
	}
	_, err = from.CallServer(master, serverClass, t.ID, map[string]string{
		"OP": "update-master", "FILE": file, "KEY": key, "PAYLOAD": payload,
	}, 5*time.Second)
	if err != nil {
		t.Abort("master unreachable or rejected")
		return fmt.Errorf("%w: %v", ErrMasterUnavailable, err)
	}
	return t.Commit()
}

// UpdateItemSync is the rejected consistency-first design: update every
// copy inside one distributed TMF transaction. "No node can run a global
// update transaction at a time when any other node is unavailable."
func (a *App) UpdateItemSync(fromNode, file, key, payload string) error {
	from := a.sys.Node(fromNode)
	master, _, err := a.ReadItem(fromNode, file, key)
	if err != nil {
		return err
	}
	t, err := from.Begin()
	if err != nil {
		return err
	}
	val := EncodeGlobal(master, payload)
	for _, node := range a.nodes {
		if _, err := from.CallServer(node, serverClass, t.ID, map[string]string{
			"OP": "replica-write", "FILE": file, "KEY": key, "VALUE": string(val),
		}, 5*time.Second); err != nil {
			t.Abort("replica unreachable")
			a.stats.syncFails.Add(1)
			return err
		}
	}
	if err := t.Commit(); err != nil {
		a.stats.syncFails.Add(1)
		return err
	}
	a.stats.syncUpdates.Add(1)
	return nil
}

// StockMove runs a purely local transaction at a node.
func (a *App) StockMove(node, item, qty string) error {
	n := a.sys.Node(node)
	t, err := n.Begin()
	if err != nil {
		return err
	}
	if _, err := n.CallServer("", serverClass, t.ID, map[string]string{
		"OP": "stock-move", "ITEM": item, "QTY": qty,
	}, 5*time.Second); err != nil {
		t.Abort("stock move failed")
		return err
	}
	return t.Commit()
}

// SuspenseDepth reports the number of queued deferred updates at a node.
func (a *App) SuspenseDepth(node string) int {
	recs, err := a.sys.Node(node).FS.ReadRange(suspenseFile, "", "", 0)
	if err != nil {
		return -1
	}
	return len(recs)
}

// Converged verifies that every node holds an identical copy of the given
// global record.
func (a *App) Converged(file, key string) (bool, error) {
	var want string
	for i, node := range a.nodes {
		raw, err := a.sys.Node(node).FS.Read(file, key)
		if err != nil {
			return false, err
		}
		if i == 0 {
			want = string(raw)
		} else if string(raw) != want {
			return false, nil
		}
	}
	return true, nil
}

// WaitConverged polls until the record converges everywhere or the
// timeout expires.
func (a *App) WaitConverged(file, key string, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok, err := a.Converged(file, key); err == nil && ok {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// suspenseBackoffMax caps the per-target retry backoff of a suspense
// monitor: a target that stays unreachable is probed no more often than
// its backoff allows, and at least once a second.
const suspenseBackoffMax = time.Second

// targetBackoff is one target's retry state: don't re-attempt before
// `until`; on the next failure the delay doubles up to suspenseBackoffMax.
type targetBackoff struct {
	until time.Time
	delay time.Duration
}

// suspenseMonitor is the per-node "dedicated process called the 'suspense
// monitor'" that scans the suspense file looking for work to do. Targets
// that fail (unreachable, or the apply call itself failed — e.g. timed out
// on a lossy line) back off with a per-target capped exponential delay
// rather than being re-hammered every tick.
type suspenseMonitor struct {
	app      *App
	node     *encompass.Node
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once

	boMu    sync.Mutex
	backoff map[string]*targetBackoff
}

// targetReady reports whether the target may be attempted now, and whether
// doing so is a retry after an earlier failure.
func (m *suspenseMonitor) targetReady(target string) (ready, isRetry bool) {
	m.boMu.Lock()
	defer m.boMu.Unlock()
	b, ok := m.backoff[target]
	if !ok {
		return true, false
	}
	return !time.Now().Before(b.until), true
}

// noteFailure arms (or doubles) the target's backoff.
func (m *suspenseMonitor) noteFailure(target string) {
	m.boMu.Lock()
	defer m.boMu.Unlock()
	b, ok := m.backoff[target]
	if !ok {
		d := m.interval
		if d <= 0 {
			d = 20 * time.Millisecond
		}
		b = &targetBackoff{delay: d}
		m.backoff[target] = b
	} else {
		b.delay *= 2
		if b.delay > suspenseBackoffMax {
			b.delay = suspenseBackoffMax
		}
	}
	b.until = time.Now().Add(b.delay)
}

// noteSuccess clears the target's backoff.
func (m *suspenseMonitor) noteSuccess(target string) {
	m.boMu.Lock()
	delete(m.backoff, target)
	m.boMu.Unlock()
}

func (m *suspenseMonitor) run() {
	if m.interval <= 0 {
		m.interval = 20 * time.Millisecond
	}
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
			m.drain()
		}
	}
}

// drain applies queued deferred updates in suspense-file order. Order per
// target node is preserved: a blocked node blocks its later entries but
// not other nodes'.
func (m *suspenseMonitor) drain() {
	recs, err := m.node.FS.ReadRange(suspenseFile, "", "", 0)
	if err != nil {
		return
	}
	blocked := make(map[string]bool)
	retried := make(map[string]bool)
	for _, rec := range recs {
		target, file, key, val, err := decodeSuspense(rec.Val)
		if err != nil {
			continue
		}
		if blocked[target] {
			continue
		}
		ready, isRetry := m.targetReady(target)
		if !ready {
			blocked[target] = true
			m.app.stats.deferredBackoffSkips.Add(1)
			continue
		}
		if isRetry && !retried[target] {
			retried[target] = true
			m.app.stats.deferredRetries.Add(1)
		}
		if !m.app.sys.Network.Reachable(m.node.Name, target) {
			blocked[target] = true
			m.app.stats.deferredBlocked.Add(1)
			m.noteFailure(target)
			continue
		}
		// "The suspense monitor executes a TMF transaction which sends the
		// update to a server at the non-master node and deletes the
		// suspense file entry."
		t, err := m.node.Begin()
		if err != nil {
			return
		}
		_, err = m.node.CallServer(target, serverClass, t.ID, map[string]string{
			"OP": "apply-replica", "FILE": file, "KEY": key, "VALUE": string(val),
		}, 5*time.Second)
		if err != nil {
			t.Abort("deferred apply failed")
			blocked[target] = true
			m.app.stats.deferredBlocked.Add(1)
			m.noteFailure(target)
			continue
		}
		if _, err := t.ReadLock(suspenseFile, rec.Key); err != nil {
			t.Abort("suspense entry lock failed")
			continue
		}
		if err := m.node.FS.Delete(t.ID, suspenseFile, rec.Key); err != nil {
			t.Abort("suspense delete failed")
			continue
		}
		if err := t.Commit(); err != nil {
			continue
		}
		m.noteSuccess(target)
		m.app.stats.deferredApplied.Add(1)
	}
}
