package tmf

import (
	"fmt"
	"sync"
	"time"

	"encompass/internal/audit"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/paxoscommit"
	"encompass/internal/txid"
)

// The selectable disposition protocols (Config.CommitProtocol).
const (
	// ProtoAbbreviated is the paper's abbreviated two-phase commit: the
	// disposition is a private fact of the home node's Monitor Audit Trail.
	// A participant that acknowledged phase one and then lost the home
	// node holds its locks until the network heals or an operator forces
	// the disposition — the availability hole the paper concedes.
	ProtoAbbreviated = "abbreviated"
	// ProtoPaxos is Gray & Lamport's Paxos Commit: the disposition is
	// decided by 2F+1 acceptor processes spread over the home node's
	// CPUs. Participants' phase-one votes double as ballot-0 accepts, and
	// any surviving node can learn (or force, via a recovery ballot) the
	// disposition from a majority of acceptors, so F failures — the
	// coordinator included — block nobody.
	ProtoPaxos = "paxos"
)

// paxosCommit is a node's part in Paxos Commit: the acceptor set that
// decides the transactions homed here, and one client per home node whose
// acceptors this node registers with, votes at and learns from. A Monitor
// holds one under ProtoPaxos and nil under ProtoAbbreviated, where the
// Monitor Audit Trail is the only decision procedure; the core reads that
// nil as txState.paxos.
//
// Call discipline (kept by the core): a node joins its own instance and
// the child's before it first transmits the transid to that child, so a
// recovery proposer discovers every participant; a node votes after its
// own phase one (the ballot-0 fast path); the home node records Committed
// only after every instance voted, and resolves — never assumes — Aborted.
type paxosCommit struct {
	sys       *msg.System
	acceptors *paxoscommit.AcceptorSet

	mu      sync.Mutex
	clients map[string]*paxoscommit.Client // guarded by mu; keyed by home node
}

// startPaxosCommit validates the configured protocol name and, under Paxos
// Commit, starts the node's acceptors. logs, when non-nil, are the decision
// logs of the node's previous incarnation (Monitor.AcceptorLogs): the
// acceptors resume from them instead of starting empty.
func startPaxosCommit(sys *msg.System, protocol string, logs []*audit.DecisionLog) (*paxosCommit, error) {
	switch protocol {
	case "", ProtoAbbreviated:
		return nil, nil
	case ProtoPaxos:
		set, err := paxoscommit.Start(sys, paxoscommit.Acceptors, logs)
		if err != nil {
			return nil, fmt.Errorf("tmf: starting commit acceptors: %w", err)
		}
		return &paxosCommit{sys: sys, acceptors: set, clients: make(map[string]*paxoscommit.Client)}, nil
	default:
		return nil, fmt.Errorf("tmf: unknown commit protocol %q", protocol)
	}
}

// client returns the proposer/learner for the acceptors on home.
func (p *paxosCommit) client(home string) *paxoscommit.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.clients[home]
	if !ok {
		c = paxoscommit.NewClient(p.sys, home, paxoscommit.Acceptors)
		p.clients[home] = c
	}
	return c
}

// ProtocolName returns the configured protocol's name.
func (m *Monitor) ProtocolName() string {
	if m.paxos != nil {
		return ProtoPaxos
	}
	return ProtoAbbreviated
}

// AcceptorLogs returns the node's commit-acceptor decision logs (nil under
// the abbreviated protocol).
func (m *Monitor) AcceptorLogs() []*audit.DecisionLog {
	if m.paxos == nil {
		return nil
	}
	return m.paxos.acceptors.Logs()
}

// InDoubt lists transactions this node holds locks for without knowing
// the disposition: non-home, phase one acknowledged, no local outcome.
// The T14 experiment and the DST non-blocking checker poll it.
func (m *Monitor) InDoubt() []txid.ID {
	var ids []txid.ID
	m.mu.Lock()
	for id, t := range m.txs {
		if !t.s.home && t.s.voted && !t.s.st.Terminal() {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	return ids
}

// Disposition reports a transaction's outcome as this node can currently
// determine it: the local Monitor Audit Trail first, then — under Paxos
// Commit — what the home node's acceptors have chosen, and last the
// presumption (PresumedAbort). decider names the evidence.
func (m *Monitor) Disposition(tx txid.ID) (o audit.Outcome, decider string, known bool) {
	if o, ok := m.mat.OutcomeOf(tx); ok {
		return o, "monitor audit trail on " + m.node, true
	}
	if m.paxos != nil {
		if o, d, err := m.paxos.client(tx.Home).Learn(tx); err == nil {
			return o, d, true
		}
	}
	if m.PresumedAbort(tx) {
		return audit.OutcomeAborted, "presumed abort on " + m.node, true
	}
	return 0, "", false
}

// PresumedAbort reports whether tx is a transaction this node began in an
// earlier incarnation. One that left no record in the Monitor Audit Trail
// never committed: only a commit record is forced, so a crash may have
// lost its abort record, or it was live at the crash.
func (m *Monitor) PresumedAbort(tx txid.ID) bool {
	return tx.Home == m.node && tx.Seq>>restartSeqShift < m.incarnation
}

// in-doubt watcher pacing: the first probe is quick (a participant under a
// dead coordinator should release its locks in a fraction of a second),
// then backs off; learns escalate to recovery ballots at watcherResolveAt.
const (
	watcherBaseDelay = 120 * time.Millisecond
	watcherMaxDelay  = 2 * time.Second
	watcherResolveAt = 3   // probe index at which Resolve (recovery ballots) starts
	watcherMaxProbes = 150 // give up (the operator sweep will catch it)
)

// armInDoubtWatcher starts, once per transaction, a resolver for an
// in-doubt participant under Paxos Commit: it asks the acceptors' learner
// path and, failing that, runs recovery ballots, then applies what it
// learned — so takeover never blocks on a dead coordinator.
func (m *Monitor) armInDoubtWatcher(tx txid.ID) {
	if m.paxos == nil {
		return
	}
	m.watchMu.Lock()
	if m.watchers[tx] {
		m.watchMu.Unlock()
		return
	}
	m.watchers[tx] = true
	m.watchMu.Unlock()

	acceptors := m.paxos.client(tx.Home)
	go func() {
		defer func() {
			m.watchMu.Lock()
			delete(m.watchers, tx)
			m.watchMu.Unlock()
		}()
		delay, ep := watcherBaseDelay, m.topology()
		for probe := 0; probe < watcherMaxProbes; probe++ {
			select {
			case <-time.After(delay):
			case <-ep.Done(): // a topology change: probe at once
			}
			if m.life.Err() != nil {
				return
			}
			delay, ep = min(2*delay, watcherMaxDelay), m.topology()
			m.mu.Lock()
			t := m.txs[tx]
			bound := t != nil && (t.s.home || t.s.voted) && !t.s.st.Terminal()
			m.mu.Unlock()
			if !bound {
				return // resolved, or forgotten: left the system
			}
			o, decider, err := acceptors.Learn(tx)
			if err != nil && probe >= watcherResolveAt {
				o, decider, err = acceptors.Resolve(tx)
			}
			if err != nil {
				continue
			}
			m.applyLearnedDisposition(tx, o, decider)
			return
		}
	}()
}

// applyLearnedDisposition applies a disposition learned from the
// acceptors as the parent's ENDED or ABORTING would be applied.
func (m *Monitor) applyLearnedDisposition(tx txid.ID, o audit.Outcome, decider string) {
	m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvOutcome, Node: m.node,
		CPU: m.tmpCPUOrFirstUp(), Detail: "learned " + o.String() + " via " + decider})
	// The answer is for nobody: a resolved transaction steps to no effect.
	_ = m.run(tx, event{kind: evOutcome, outcome: o}, "disposition learned from commit acceptors: aborted ("+decider+")")
}
