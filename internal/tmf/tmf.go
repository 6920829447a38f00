// Package tmf implements the Transaction Monitoring Facility, the paper's
// primary contribution: continuous, fault-tolerant transaction processing
// in a decentralized, distributed environment.
//
// Each node runs a Monitor holding:
//
//   - per-CPU transaction state tables, updated by broadcasting every state
//     change over the interprocessor bus to all processors of the node
//     ("this is done regardless of which processors actually participated
//     in the transaction");
//   - the Monitor Audit Trail of commit/abort records — forcing the commit
//     record is the commit point, and an abort record is not forced;
//   - the Transaction Monitor Process (TMP) pair, which coordinates
//     distributed transactions with TMPs on other nodes using
//     critical-response messages (remote begin, phase one) and
//     safe-delivery messages (phase two, abort);
//   - the BACKOUTPROCESS, which reverses an aborting transaction's updates
//     using before-images from the audit trails.
//
// Single-node transactions use the paper's abbreviated two-phase commit:
// phase one forces the audit trails, the commit record is written, phase
// two releases locks. Distributed transactions add TMP-to-TMP voting with
// unilateral-abort rights until a node has acknowledged phase one.
package tmf

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/audit"
	"encompass/internal/discproc"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// Errors reported by TMF.
var (
	ErrUnknownTx       = errors.New("tmf: unknown transaction")
	ErrNotHome         = errors.New("tmf: operation only valid on the transaction's home node")
	ErrAborted         = errors.New("tmf: transaction aborted")
	ErrBadState        = errors.New("tmf: invalid state transition")
	ErrNodeUnreachable = errors.New("tmf: participating node unreachable")
	ErrInDoubt         = errors.New("tmf: transaction in doubt (phase one acknowledged, disposition unknown)")
)

// VolumeInfo wires one audited volume into TMF: the DISCPROCESS serving it
// and the AUDITPROCESS that writes its trail.
type VolumeInfo struct {
	Name      string
	DiscName  string
	AuditName string // empty = unaudited volume
}

// tcb is the per-transaction control block.
type tcb struct {
	id     txid.ID
	source string // node that first transmitted the transid to us (non-home)

	// s is the protocol state, changed only by step (core.go) under
	// Monitor.mu, where the DISCPROCESS participation check reads it: an
	// operation lands before the transaction closes to new work, or is
	// rejected. busy is the transaction's turn (shell.go). Both guarded by
	// Monitor.mu.
	s    txState
	busy bool

	// children (the nodes we directly transmitted the transid to) and
	// localVols (the participating volumes on this node) are sets in name
	// order, so delivery order, trace order and DST replays repeat, over
	// inline backing.
	children  []string // guarded by Monitor.mu
	localVols []string // guarded by Monitor.mu
	childBuf  [1]string
	volBuf    [2]string

	// req is the flush, endtx and freeze request for the transaction's
	// volumes, shared by every volume and retry: never written after.
	req         discproc.TxReq
	abortReason string    // guarded by Monitor.mu
	beginAt     time.Time // anchors the begin→ENDED latency histogram
}

// addName adds name to the name-ordered set s.
func addName(s []string, name string) []string {
	if i, found := slices.BinarySearch(s, name); !found {
		s = slices.Insert(s, i, name)
	}
	return s
}

// Stats counts TMF activity on a node: a thin alias over the node's
// obs.Registry counters and gauges, which new code reads directly.
type Stats struct {
	Begun         uint64
	Committed     uint64
	Aborted       uint64
	Backouts      uint64
	BroadcastMsgs uint64
	// UnreleasedVolumes counts volumes whose phase-two lock release still
	// failed after bounded retry (locks leaked until operator action).
	UnreleasedVolumes uint64
	// BackoutScanFailures counts audit-trail scans the BACKOUTPROCESS
	// could not complete after bounded retry (backout incomplete).
	BackoutScanFailures uint64
	// SafeQueueDepth counts the safe-delivery messages whose first attempt
	// failed and whose owner is still retrying them.
	SafeQueueDepth int
	// Phase2Outstanding counts transactions whose outcome is durable here
	// while its first delivery to the children is in flight; with
	// SafeQueueDepth (children whose message an owner retries) it bounds
	// the children that may still hold a resolved transaction's locks.
	Phase2Outstanding int
}

// Monitor is the per-node TMF instance.
type Monitor struct {
	sys  *msg.System
	node string
	net  *expand.Network // nil on an un-networked node
	mat  *audit.MonitorTrail
	// incarnation counts the restarts of the node's monitor over mat; it
	// is the high part of the Seq of every transid this monitor issues.
	incarnation uint64

	mu       sync.Mutex
	txs      map[txid.ID]*tcb      // guarded by mu
	turnFree sync.Cond             // on mu: a transaction's turn (tcb.busy) came free
	seq      map[int]uint64        // guarded by mu; per-CPU BEGIN sequence numbers
	volumes  map[string]VolumeInfo // guarded by mu

	// tabMu guards the per-CPU replicated state tables.
	tabMu  sync.Mutex
	tables []map[txid.ID]txid.State // guarded by tabMu

	// life ends at Stop. It is shared by every incarnation of the node's
	// monitor, so Stop also ends what a crashed one left waiting. epoch is
	// the current topology epoch, a child of life that the next topology
	// change or FlushSafeQueue ends: the safe-delivery attempts, the
	// owners of undelivered outcomes and the in-doubt watchers wait on it.
	life  context.Context
	stop  context.CancelFunc
	epoch atomic.Pointer[epoch]

	// Observability: the registry is the single source of truth for
	// activity counters (Stats is a thin alias view), the tracer captures
	// per-transaction lifecycle events, and the checker validates every
	// state-change broadcast against Figure 3 at emission time.
	reg     *obs.Registry
	tracer  *obs.Tracer
	checker *obs.StateMachineChecker

	// Pre-resolved metric handles (hot path: no map lookups per event).
	cBegun, cCommitted, cAborted, cBackouts   *obs.Counter
	cBroadcast, cUnreleased, cScanFails       *obs.Counter
	cSafeRetries, cOutcomeForces              *obs.Counter
	cStateViolations                          *obs.Counter
	gP2Outstanding, gSafeQueue                *obs.Gauge
	hBeginToEnded, hPhase1, hPhase2, hBackout *obs.Histogram

	tmpCPU func() int

	// paxos is the node's part in Paxos Commit; nil under the abbreviated
	// protocol, whose only decision procedure is the Monitor Audit Trail.
	paxos *paxosCommit

	// watchMu guards the set of armed in-doubt watchers (one per
	// unresolved transaction under Paxos Commit).
	watchMu  sync.Mutex
	watchers map[txid.ID]bool // guarded by watchMu

	// phase1Hook, when set, runs between a successful phase one and the
	// write of the commit record; fault-injection experiments use it to
	// create in-doubt participants. Atomic: DST schedules install and
	// clear one-shot hooks while commits are in flight.
	phase1Hook atomic.Pointer[func(txid.ID)]
}

// SetPhase1Hook installs a fault-injection hook that runs after phase one
// succeeds and before the commit record is written. Experiments use it to
// partition the network at the in-doubt window. Passing nil clears it.
func (m *Monitor) SetPhase1Hook(fn func(txid.ID)) {
	if fn == nil {
		m.phase1Hook.Store(nil)
		return
	}
	m.phase1Hook.Store(&fn)
}

// Config configures a Monitor.
type Config struct {
	System *msg.System
	// Network is the EXPAND network; nil for a standalone node.
	Network *expand.Network
	// MonitorTrailForceDelay simulates the commit-record force latency.
	MonitorTrailForceDelay time.Duration
	// Previous, when non-nil, is the node's halted monitor: the new one
	// starts over what of it was durable — the Monitor Audit Trail and the
	// commit acceptors' decision logs survive total node failure, and a
	// recovering node's fresh Monitor must see both.
	Previous *Monitor
	// TMPPrimaryCPU / TMPBackupCPU host the TMP pair.
	TMPPrimaryCPU, TMPBackupCPU int
	// Registry receives the monitor's activity counters and per-phase
	// latency histograms; nil creates a private registry (Stats and
	// Registry() still work).
	Registry *obs.Registry
	// Tracer, when non-nil, captures per-transaction lifecycle traces.
	// The facade shares one tracer across the monitor and the node's
	// DISCPROCESSes so a transaction's trace interleaves both sides.
	Tracer *obs.Tracer
	// CommitProtocol selects the disposition protocol for distributed
	// transactions: ProtoAbbreviated (default — the paper's abbreviated
	// 2PC) or ProtoPaxos (Paxos Commit: non-blocking under one acceptor or
	// coordinator failure, decided by paxoscommit.Acceptors processes, slot
	// i on CPU i mod NumCPUs of the home node).
	CommitProtocol string
}

// restartSeqShift places the Monitor Audit Trail's restart count above the
// per-CPU sequence number in a transid's Seq: 2^32 transactions per
// processor per incarnation.
const restartSeqShift = 32

// New creates and starts the node's TMF monitor, including its TMP pair.
func New(cfg Config) (*Monitor, error) {
	node := cfg.System.Node()
	mat, checker := audit.NewMonitorTrail(cfg.MonitorTrailForceDelay), obs.NewStateMachineChecker()
	var logs []*audit.DecisionLog
	if prev := cfg.Previous; prev != nil {
		mat, checker, logs = prev.mat, prev.checker, prev.AcceptorLogs()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Monitor{
		sys:      cfg.System,
		node:     node.Name(),
		net:      cfg.Network,
		mat:      mat,
		txs:      make(map[txid.ID]*tcb),
		seq:      make(map[int]uint64),
		volumes:  make(map[string]VolumeInfo),
		watchers: make(map[txid.ID]bool),
		tables:   make([]map[txid.ID]txid.State, node.NumCPUs()),
		reg:      reg,
		tracer:   cfg.Tracer,
		checker:  checker,

		cBegun:           reg.Counter(obs.MBegun),
		cCommitted:       reg.Counter(obs.MCommitted),
		cAborted:         reg.Counter(obs.MAborted),
		cBackouts:        reg.Counter(obs.MBackouts),
		cBroadcast:       reg.Counter(obs.MBroadcasts),
		cUnreleased:      reg.Counter(obs.MUnreleasedVolumes),
		cScanFails:       reg.Counter(obs.MBackoutScanFailures),
		cSafeRetries:     reg.Counter(obs.MSafeRetries),
		cOutcomeForces:   reg.Counter(obs.MOutcomeForces),
		cStateViolations: reg.Counter(obs.MStateViolations),
		gP2Outstanding:   reg.Gauge(obs.MPhase2Outstanding),
		gSafeQueue:       reg.Gauge(obs.MSafeQueueDepth),
		hBeginToEnded:    reg.Histogram(obs.MBeginToEnded),
		hPhase1:          reg.Histogram(obs.MPhaseOne),
		hPhase2:          reg.Histogram(obs.MPhaseTwo),
		hBackout:         reg.Histogram(obs.MBackout),
	}
	m.turnFree.L = &m.mu
	for i := range m.tables {
		m.tables[i] = make(map[txid.ID]txid.State)
	}
	// A recovered node must never re-issue a pre-crash transid, and the
	// trail's records cannot say which were issued: a transaction active at
	// the failure left none, yet its images are in the audit trails and a
	// child node may still hold it. So the trail counts restarts, and each
	// incarnation numbers its transactions from its own range.
	if cfg.Previous != nil {
		m.life, m.stop = cfg.Previous.life, cfg.Previous.stop
		m.incarnation = mat.NoteRestart()
		for cpu := range m.tables {
			m.seq[cpu] = m.incarnation << restartSeqShift
		}
	} else {
		m.life, m.stop = context.WithCancel(context.Background())
	}
	m.newEpoch()
	var err error
	if m.paxos, err = startPaxosCommit(cfg.System, cfg.CommitProtocol, logs); err != nil {
		return nil, err
	}
	if err := m.startTMP(cfg.TMPPrimaryCPU, cfg.TMPBackupCPU); err != nil {
		return nil, err
	}
	if m.net != nil {
		m.net.WatchTopology(m.node, m.onTopologyChange)
	}
	node.Watch(m.onHWEvent)
	return m, nil
}

// Node returns the node name.
func (m *Monitor) Node() string { return m.node }

// MonitorTrail exposes the node's Monitor Audit Trail (used by
// ROLLFORWARD and the tmfctl utility).
func (m *Monitor) MonitorTrail() *audit.MonitorTrail { return m.mat }

// AddVolume registers an audited volume with TMF.
func (m *Monitor) AddVolume(v VolumeInfo) {
	m.mu.Lock()
	m.volumes[v.Name] = v
	m.mu.Unlock()
}

// Begin starts a transaction whose BEGIN-TRANSACTION ran on the given CPU
// of this (home) node. The transid is broadcast in "active" state to every
// processor of the node.
func (m *Monitor) Begin(cpu int) (txid.ID, error) {
	c, err := m.sys.Node().CPU(cpu)
	if err != nil {
		return txid.ID{}, err
	}
	if !c.Up() {
		return txid.ID{}, fmt.Errorf("%w: cpu %d", hw.ErrCPUDown, cpu)
	}
	m.mu.Lock()
	m.seq[cpu]++
	id := txid.ID{Home: m.node, CPU: cpu, Seq: m.seq[cpu]}
	t, out := m.installLocked(id, true, "")
	m.mu.Unlock()
	m.cBegun.Inc()
	m.tracer.Record(obs.Event{Tx: id, Kind: obs.EvBegin, Node: m.node, CPU: cpu})
	return id, m.drive(t, out, "")
}

// installLocked builds tx's control block, takes its turn and steps its
// begin. The caller holds m.mu, and then runs the effects (drive).
func (m *Monitor) installLocked(tx txid.ID, isHome bool, source string) (*tcb, effects) {
	t := &tcb{id: tx, source: source, busy: true, beginAt: time.Now(), req: discproc.TxReq{Tx: tx},
		s: txState{home: isHome, paxos: m.paxos != nil}}
	t.children, t.localVols = t.childBuf[:0], t.volBuf[:0]
	var out effects
	t.s, out = step(t.s, event{kind: evBegin})
	m.txs[tx] = t
	return t, out
}

// beginRemote installs a transaction transmitted to us from another node.
// It reports whether the transid was already known here — then the sender
// is NOT this node's parent in the transmission tree. The dedup is
// source-aware: a retransmitted begin from our parent re-acks "not already
// known", or the parent would drop us from its child set and orphan our
// updates. A late duplicate after the transaction resolved and was
// forgotten is acknowledged without resurrecting a control block.
func (m *Monitor) beginRemote(id txid.ID, source string) (alreadyKnown bool) {
	m.mu.Lock()
	if t, ok := m.txs[id]; ok {
		dupFromParent := !t.s.home && t.source == source
		m.mu.Unlock()
		return !dupFromParent
	}
	if _, resolved := m.mat.OutcomeOf(id); resolved {
		m.mu.Unlock()
		return true
	}
	t, out := m.installLocked(id, false, source)
	m.mu.Unlock()
	m.tracer.Record(obs.Event{Tx: id, Kind: obs.EvBegin, Node: m.node,
		CPU: m.tmpCPUOrFirstUp(), Detail: "remote from " + source})
	_ = m.drive(t, out, "") // a begin answers nothing but OK
	return false
}

// RegisterLocalVolume records that tx touched a volume on this node. The
// facade wires it to every DISCPROCESS's OnParticipate callback. It fails
// once the transaction is closed to new work (END in progress, phase one
// acknowledged, or abort under way), so no operation can slip in after the
// protocol snapshotted the participant set.
func (m *Monitor) RegisterLocalVolume(tx txid.ID, volume string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.txs[tx]
	if !ok {
		return fmt.Errorf("%w: %s on %s", ErrUnknownTx, tx, m.node)
	}
	if t.s.closed {
		return fmt.Errorf("%w: %s is past the point of new work", ErrAborted, tx)
	}
	t.localVols = addName(t.localVols, volume)
	return nil
}

// State returns the transaction's state as replicated on the
// lowest-numbered up CPU of the node: an observer's view, which a
// reloaded processor may hold stale until it is reseeded. No protocol
// decision reads it.
func (m *Monitor) State(tx txid.ID) txid.State {
	cpu, ok := m.sys.Node().FirstUpCPU()
	if !ok {
		return txid.StateNone
	}
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	return m.tables[cpu][tx]
}

// StateOnCPU returns the state replica held by one CPU's table.
func (m *Monitor) StateOnCPU(tx txid.ID, cpu int) txid.State {
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	if cpu < 0 || cpu >= len(m.tables) {
		return txid.StateNone
	}
	return m.tables[cpu][tx]
}

// broadcast delivers the state change from → to, which step decided, to
// every processor of the node over the interprocessor bus, tracing the
// transition (with detail, the cause of an abort) and checking it against
// Figure 3.
func (m *Monitor) broadcast(tx txid.ID, from, to txid.State, detail string) {
	srcCPU := m.tmpCPUOrFirstUp()
	m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvState, From: from, To: to,
		Node: m.node, CPU: srcCPU, Detail: detail})
	if m.checker.Observe(m.node, tx, from, to) != nil {
		m.cStateViolations.Inc()
	}

	// A down receiver fails its Transfer with ErrCPUDown and is skipped.
	node := m.sys.Node()
	for cpu := range node.NumCPUs() {
		err := node.Transfer(srcCPU, cpu, func() {
			// "Once the 'ended'/'aborted' state has completed, the transid
			// leaves the system." Terminal states stay in the table briefly
			// for observability; Forget clears them.
			m.tabMu.Lock()
			m.tables[cpu][tx] = to
			m.tabMu.Unlock()
		})
		if err == nil {
			m.cBroadcast.Inc()
		}
	}
}

// reseedTable brings a just-revived CPU's transaction state table current:
// it missed every broadcast while it was down. The table is rebuilt from
// the transactions' protocol states, which no replica is ahead of (a
// copy of a surviving replica could miss a broadcast still on its way),
// under mu, so every later step's broadcast comes after it. With no other
// CPU up (total node failure) nothing survives: ROLLFORWARD's case.
func (m *Monitor) reseedTable(cpu int) {
	if !slices.ContainsFunc(m.sys.Node().UpCPUs(), func(up int) bool { return up != cpu }) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := make(map[txid.ID]txid.State, len(m.txs))
	for id, t := range m.txs {
		//lint:allow statetrans reseeding copies the states the broadcasts carry; no Figure-3 edge is taken, so there is nothing for the tracer or the checker to see
		fresh[id] = t.s.st
	}
	m.tabMu.Lock()
	defer m.tabMu.Unlock()
	if cpu >= 0 && cpu < len(m.tables) {
		m.tables[cpu] = fresh
	}
}

// Forget removes a terminal transaction's replicated state ("the transid
// leaves the system"), the control block first, so that a reseed cannot
// write the state back.
func (m *Monitor) Forget(tx txid.ID) {
	m.mu.Lock()
	delete(m.txs, tx)
	m.mu.Unlock()
	m.tabMu.Lock()
	for _, tab := range m.tables {
		if tab[tx].Terminal() {
			delete(tab, tx)
		}
	}
	m.tabMu.Unlock()
}

// Stats returns activity counters: an alias view over the obs registry,
// kept for existing callers.
func (m *Monitor) Stats() Stats {
	return Stats{
		Begun:               m.cBegun.Value(),
		Committed:           m.cCommitted.Value(),
		Aborted:             m.cAborted.Value(),
		Backouts:            m.cBackouts.Value(),
		BroadcastMsgs:       m.cBroadcast.Value(),
		UnreleasedVolumes:   m.cUnreleased.Value(),
		BackoutScanFailures: m.cScanFails.Value(),
		Phase2Outstanding:   int(m.gP2Outstanding.Value()),
		// Read after the gauge above: a message moves only from a first
		// attempt to an owner, counted by the owner before it leaves the
		// first attempt, so the two reads never both miss it.
		SafeQueueDepth: int(m.gSafeQueue.Value()),
	}
}

// Registry exposes the monitor's metrics registry.
func (m *Monitor) Registry() *obs.Registry { return m.reg }

// Tracer exposes the monitor's lifecycle tracer (nil when tracing is off).
func (m *Monitor) Tracer() *obs.Tracer { return m.tracer }

// Checker exposes the runtime Figure 3 checker.
func (m *Monitor) Checker() *obs.StateMachineChecker { return m.checker }

func (m *Monitor) tmpCPUOrFirstUp() int {
	if m.tmpCPU != nil {
		if cpu := m.tmpCPU(); cpu >= 0 {
			return cpu
		}
	}
	cpu, _ := m.sys.Node().FirstUpCPU()
	return cpu
}

// childrenOf copies the nodes this node directly transmitted t's transid
// to, in name order, so protocol steps hold no monitor lock across network
// calls.
func (m *Monitor) childrenOf(t *tcb) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(t.children)
}

// volumesOf appends to buf, in name order, the volumes on this node that
// t touched. A caller passes a buffer on its own stack, so the snapshot
// allocates nothing for the usual one or two volumes.
func (m *Monitor) volumesOf(t *tcb, buf []VolumeInfo) []VolumeInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range t.localVols {
		if vi, ok := m.volumes[v]; ok {
			buf = append(buf, vi)
		}
	}
	return buf
}
