package tmf

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"encompass/internal/audit"
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
	// ProtoFull2PC is presumed-nothing two-phase commit: every protocol
	// step (prepare intent, participant joins, votes, outcome) is force-
	// logged to a per-node decision log before it is acted on. Recovery
	// after a coordinator reload can consult the log — but a dead
	// coordinator still blocks its participants, exactly as in the paper.
	ProtoFull2PC = "full2pc"
	// ProtoPaxos is Gray & Lamport's Paxos Commit: the disposition is
	// decided by 2F+1 acceptor processes spread over the home node's
	// CPUs. Participants' phase-one votes double as ballot-0 accepts, and
	// any surviving node can learn (or force, via a recovery ballot) the
	// disposition from a majority of acceptors, so F failures — the
	// coordinator included — block nobody.
	ProtoPaxos = "paxos"
)

// ErrDispositionUnknown is returned by Learn/Resolve when the protocol
// cannot determine the transaction's disposition.
var ErrDispositionUnknown = errors.New("tmf: disposition not determined by protocol")

// DispositionProtocol is the pluggable commit/abort decision procedure.
// The Monitor drives it at fixed points of END-TRANSACTION and the abort
// path; the abbreviated implementation is a no-op at every point, keeping
// the seed's behavior byte-identical at the default setting.
//
// Call discipline (enforced by the Monitor): Begin and Join run on a node
// before it first transmits the transid to a child; VoteSelf runs after a
// node's own phase one succeeds (for Paxos this is the ballot-0 fast
// path, so a successful VoteSelf means the node's Prepared vote is chosen
// and no recovery ballot can decide differently); Decide runs only on the
// home node, with the proposed outcome, and returns the ACTUAL outcome —
// which may differ when a recovery ballot already chose the other way.
// Learn is read-only; Resolve may run recovery ballots to force a
// disposition. Learn and Resolve are callable from any node.
type DispositionProtocol interface {
	Name() string
	// NonBlocking reports whether the protocol can resolve an in-doubt
	// participant without the coordinator (the Monitor arms the in-doubt
	// watcher only for non-blocking protocols).
	NonBlocking() bool
	Begin(tx txid.ID) error
	Join(tx txid.ID, child string) error
	VoteSelf(tx txid.ID) error
	Decide(tx txid.ID, proposed audit.Outcome) (audit.Outcome, error)
	Learn(tx txid.ID) (o audit.Outcome, decider string, err error)
	Resolve(tx txid.ID) (o audit.Outcome, decider string, err error)
}

// newProtocol builds the configured protocol for a monitor. Paxos also
// starts the node's acceptor set. logs, when non-nil, are the decision
// logs of the node's previous incarnation (Monitor.AcceptorLogs): the
// protocol resumes from them instead of starting empty.
func newProtocol(m *Monitor, name string, acceptors int, logs []*audit.DecisionLog) (DispositionProtocol, error) {
	switch name {
	case "", ProtoAbbreviated:
		return abbreviatedProto{}, nil
	case ProtoFull2PC:
		p := &full2pcProto{m: m, outcomes: make(map[txid.ID]audit.Outcome)}
		if len(logs) > 0 {
			p.log = logs[0]
			for _, r := range p.log.Records() {
				if r.Kind == audit.DecisionOutcome {
					p.outcomes[r.Tx] = audit.Outcome(r.Value)
				}
			}
		} else {
			p.log = audit.NewDecisionLog(m.node+".2pc", 0)
		}
		return p, nil
	case ProtoPaxos:
		if acceptors == 0 {
			acceptors = 3
		}
		if acceptors%2 == 0 {
			return nil, fmt.Errorf("tmf: CommitAcceptors must be odd (2F+1), got %d", acceptors)
		}
		set, err := paxoscommit.Start(m.sys, acceptors, logs)
		if err != nil {
			return nil, fmt.Errorf("tmf: starting commit acceptors: %w", err)
		}
		m.acceptors = set
		return &paxosProto{m: m, n: acceptors, clients: make(map[string]*paxoscommit.Client)}, nil
	default:
		return nil, fmt.Errorf("tmf: unknown commit protocol %q", name)
	}
}

// --- abbreviated 2PC: the seed's protocol, all decision state in the MAT ---

type abbreviatedProto struct{}

func (abbreviatedProto) Name() string                  { return ProtoAbbreviated }
func (abbreviatedProto) NonBlocking() bool             { return false }
func (abbreviatedProto) Begin(txid.ID) error           { return nil }
func (abbreviatedProto) Join(txid.ID, string) error    { return nil }
func (abbreviatedProto) VoteSelf(txid.ID) error        { return nil }
func (abbreviatedProto) Decide(_ txid.ID, proposed audit.Outcome) (audit.Outcome, error) {
	return proposed, nil
}
func (abbreviatedProto) Learn(txid.ID) (audit.Outcome, string, error) {
	return 0, "", ErrDispositionUnknown
}
func (abbreviatedProto) Resolve(txid.ID) (audit.Outcome, string, error) {
	return 0, "", ErrDispositionUnknown
}

// --- full presumed-nothing 2PC: every step force-logged per node ---

type full2pcProto struct {
	m   *Monitor
	log *audit.DecisionLog

	mu       sync.Mutex
	outcomes map[txid.ID]audit.Outcome
}

func (p *full2pcProto) Name() string      { return ProtoFull2PC }
func (p *full2pcProto) NonBlocking() bool { return false }

// Begin force-logs the prepare intent: a presumed-nothing coordinator
// must be able to tell, after a reload, that the transaction entered the
// protocol (and so must be resolved, not presumed aborted).
func (p *full2pcProto) Begin(tx txid.ID) error {
	p.log.Append(audit.DecisionRecord{Tx: tx, Kind: audit.DecisionPrepare, Instance: p.m.node})
	return nil
}

func (p *full2pcProto) Join(tx txid.ID, child string) error {
	p.log.Append(audit.DecisionRecord{Tx: tx, Kind: audit.DecisionJoin, Instance: child})
	return nil
}

// VoteSelf force-logs this node's Prepared vote before it is sent: a
// presumed-nothing participant must remember across a reload that it is
// bound by an affirmative vote.
func (p *full2pcProto) VoteSelf(tx txid.ID) error {
	p.log.Append(audit.DecisionRecord{Tx: tx, Kind: audit.DecisionAccept, Instance: p.m.node, Value: paxoscommit.VotePrepared})
	return nil
}

func (p *full2pcProto) Decide(tx txid.ID, proposed audit.Outcome) (audit.Outcome, error) {
	p.mu.Lock()
	if _, done := p.outcomes[tx]; !done {
		p.log.Append(audit.DecisionRecord{Tx: tx, Kind: audit.DecisionOutcome, Value: uint8(proposed)})
		p.outcomes[tx] = proposed
	}
	got := p.outcomes[tx]
	p.mu.Unlock()
	return got, nil
}

// Learn answers from this node's own decision log — which is exactly why
// full 2PC is still blocking: a participant severed from the coordinator
// has no outcome record to read.
func (p *full2pcProto) Learn(tx txid.ID) (audit.Outcome, string, error) {
	p.mu.Lock()
	o, ok := p.outcomes[tx]
	p.mu.Unlock()
	if !ok {
		return 0, "", ErrDispositionUnknown
	}
	return o, "local 2pc decision log", nil
}

// Resolve cannot do better than Learn: full 2PC has no quorum to ask.
func (p *full2pcProto) Resolve(tx txid.ID) (audit.Outcome, string, error) {
	return p.Learn(tx)
}

// Log exposes the node's 2PC decision log (tmfctl, tests).
func (p *full2pcProto) Log() *audit.DecisionLog { return p.log }

// --- Paxos Commit ---

type paxosProto struct {
	m *Monitor
	n int // acceptor count (2F+1), uniform across the cluster

	mu      sync.Mutex
	clients map[string]*paxoscommit.Client // keyed by home node
}

func (p *paxosProto) Name() string      { return ProtoPaxos }
func (p *paxosProto) NonBlocking() bool { return true }

func (p *paxosProto) client(home string) *paxoscommit.Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.clients[home]
	if !ok {
		c = paxoscommit.NewClient(p.m.sys, home, p.n)
		p.clients[home] = c
	}
	return c
}

// Begin registers this node's own instance with the home acceptors. On
// the home node this is the coordinator's instance; on an intermediate
// node it re-registers an instance its parent already joined (idempotent
// at the acceptors).
func (p *paxosProto) Begin(tx txid.ID) error {
	return p.client(tx.Home).Join(tx, p.m.node)
}

func (p *paxosProto) Join(tx txid.ID, child string) error {
	return p.client(tx.Home).Join(tx, child)
}

// VoteSelf is the ballot-0 fast path: this node's phase-one vote IS the
// phase-2a of its consensus instance. Success means a majority of
// acceptors accepted Prepared at ballot 0 — the value is chosen, and by
// majority intersection no recovery ballot can choose differently.
func (p *paxosProto) VoteSelf(tx txid.ID) error {
	return p.client(tx.Home).Vote(tx, p.m.node, true)
}

// Decide computes the actual disposition. Proposing Committed is only
// legal after every instance voted Prepared at ballot 0 (the Monitor's
// End path guarantees it), so the outcome is already chosen and is simply
// recorded with the acceptors. Proposing Aborted runs a recovery ballot:
// instances whose votes landed are preserved (possibly flipping the
// outcome back to Committed — the caller must honor the returned value),
// free instances are driven to Aborted so the disposition is decided
// once, for every future learner.
func (p *paxosProto) Decide(tx txid.ID, proposed audit.Outcome) (audit.Outcome, error) {
	cl := p.client(tx.Home)
	if proposed == audit.OutcomeCommitted {
		cl.RecordOutcome(tx, audit.OutcomeCommitted)
		return audit.OutcomeCommitted, nil
	}
	o, _, err := cl.Resolve(tx)
	if err != nil {
		return 0, err
	}
	return o, nil
}

func (p *paxosProto) Learn(tx txid.ID) (audit.Outcome, string, error) {
	return p.client(tx.Home).Learn(tx)
}

func (p *paxosProto) Resolve(tx txid.ID) (audit.Outcome, string, error) {
	return p.client(tx.Home).Resolve(tx)
}

// --- Monitor-side protocol plumbing ---

// Protocol exposes the monitor's disposition protocol.
func (m *Monitor) Protocol() DispositionProtocol { return m.proto }

// ProtocolName returns the configured protocol's name.
func (m *Monitor) ProtocolName() string { return m.proto.Name() }

// AcceptorLogs returns the node's commit-acceptor decision logs under
// Paxos Commit, or the node's 2PC decision log under full 2PC (nil under
// the abbreviated protocol).
func (m *Monitor) AcceptorLogs() []*audit.DecisionLog {
	if m.acceptors != nil {
		return m.acceptors.Logs()
	}
	if p, ok := m.proto.(*full2pcProto); ok {
		return []*audit.DecisionLog{p.Log()}
	}
	return nil
}

// ensureProtoBegun registers the transaction with the protocol exactly
// once on this node (before its first child join).
func (m *Monitor) ensureProtoBegun(tx txid.ID) error {
	m.mu.Lock()
	t, ok := m.txs[tx]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrUnknownTx, tx, m.node)
	}
	if t.protoBegun {
		m.mu.Unlock()
		return nil
	}
	m.mu.Unlock()
	if err := m.proto.Begin(tx); err != nil {
		return err
	}
	m.mu.Lock()
	t.protoBegun = true
	m.mu.Unlock()
	return nil
}

// protoActive reports whether the transaction entered the disposition
// protocol on this node (always false under the abbreviated protocol,
// which keeps the seed paths byte-identical).
func (m *Monitor) protoActive(tx txid.ID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.txs[tx]
	return ok && t.protoBegun
}

// InDoubt lists transactions this node holds locks for without knowing
// the disposition: non-home, phase one acknowledged, no local outcome.
// The T14 experiment and the DST non-blocking checker poll it.
func (m *Monitor) InDoubt() []txid.ID {
	var ids []txid.ID
	m.mu.Lock()
	for id, t := range m.txs {
		if !t.isHome && t.phase1Acked {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	out := ids[:0]
	for _, id := range ids {
		if _, resolved := m.mat.OutcomeOf(id); resolved {
			continue
		}
		if m.State(id).Terminal() {
			continue
		}
		out = append(out, id)
	}
	return out
}

// Disposition reports a transaction's outcome as this node can currently
// determine it: the local Monitor Audit Trail first, then the protocol's
// learner path. decider names the evidence.
func (m *Monitor) Disposition(tx txid.ID) (o audit.Outcome, decider string, known bool) {
	if o, ok := m.mat.OutcomeOf(tx); ok {
		return o, "monitor audit trail on " + m.node, true
	}
	if o, d, err := m.proto.Learn(tx); err == nil {
		return o, d, true
	}
	return 0, "", false
}

// in-doubt watcher pacing: the first probe is quick (an in-doubt
// participant under a dead coordinator should release its locks in
// fractions of a second, not minutes), then backs off; read-only learns
// escalate to a recovery ballot after resolveAfter probes.
const (
	watcherBaseDelay  = 120 * time.Millisecond
	watcherMaxDelay   = 2 * time.Second
	watcherResolveAt  = 3   // probe index at which Resolve (recovery ballots) starts
	watcherMaxProbes  = 150 // give up (the operator sweep will catch it)
)

// armInDoubtWatcher starts (once per transaction) a background resolver
// for an in-doubt participant under a non-blocking protocol: it polls the
// acceptors' learner path and, failing that, runs recovery ballots, then
// applies the learned disposition locally. This is what makes takeover
// never block on a dead coordinator.
func (m *Monitor) armInDoubtWatcher(tx txid.ID) {
	if !m.proto.NonBlocking() {
		return
	}
	m.watchMu.Lock()
	if m.watchers == nil {
		m.watchers = make(map[txid.ID]bool)
	}
	if m.watchers[tx] {
		m.watchMu.Unlock()
		return
	}
	m.watchers[tx] = true
	m.watchMu.Unlock()

	go func() {
		defer func() {
			m.watchMu.Lock()
			delete(m.watchers, tx)
			m.watchMu.Unlock()
		}()
		delay := watcherBaseDelay
		for probe := 0; probe < watcherMaxProbes; probe++ {
			time.Sleep(delay)
			if delay < watcherMaxDelay {
				delay *= 2
			}
			if _, resolved := m.mat.OutcomeOf(tx); resolved {
				return
			}
			m.mu.Lock()
			t, ok := m.txs[tx]
			if !ok {
				m.mu.Unlock()
				return // forgotten: resolved and left the system
			}
			stillBound := t.phase1Acked || t.isHome
			m.mu.Unlock()
			if !stillBound || m.State(tx).Terminal() {
				return
			}
			o, decider, err := m.proto.Learn(tx)
			if err != nil && probe >= watcherResolveAt {
				o, decider, err = m.proto.Resolve(tx)
			}
			if err != nil {
				continue
			}
			m.applyLearnedDisposition(tx, o, decider)
			return
		}
	}()
}

// applyLearnedDisposition applies a disposition obtained from the
// protocol's learner path: the commit path is identical to receiving the
// home node's safe-delivery ENDED; the abort path clears the phase-one
// bond first, exactly like an inbound abort from the home node.
func (m *Monitor) applyLearnedDisposition(tx txid.ID, o audit.Outcome, decider string) {
	m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvOutcome, Node: m.node,
		CPU: m.tmpCPUOrFirstUp(), Detail: "learned " + o.String() + " via " + decider})
	if o == audit.OutcomeCommitted {
		m.applyEnded(tx)
		return
	}
	m.mu.Lock()
	if t, ok := m.txs[tx]; ok {
		t.phase1Acked = false
	}
	m.mu.Unlock()
	m.abortInternal(tx, "disposition learned from commit acceptors: aborted ("+decider+")")
}
