// Package paxoscommit implements the acceptor side of Gray & Lamport's
// Paxos Commit ("Consensus on Transaction Commit"): the transaction's
// commit/abort disposition is not a fact held by one coordinator but the
// joint outcome of one Paxos consensus instance per participant, run
// across 2F+1 acceptor processes. Any node that can reach a majority of
// acceptors can learn — or, by running a recovery ballot, force — the
// disposition, so the death of the commit coordinator blocks nobody.
//
// The fast path is ballot 0: a participant's affirmative phase-one vote
// doubles as the ballot-0 phase-2a/2b exchange for its instance, so the
// failure-free message depth matches plain two-phase commit plus the
// acceptor fan-out. Recovery proposers use ballots greater than zero; an
// instance in which no value can be discovered is proposed Aborted.
//
// Every promise, accepted value, join and outcome is appended to the
// acceptor's hash-chained DecisionLog (the PR-7 audit-trail framing)
// before it is acknowledged: an acceptor never acks what it could forget.
package paxoscommit

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"encompass/internal/audit"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// Vote values carried in accept messages: a participant instance is
// either Prepared (it voted yes in phase one) or Aborted.
const (
	VotePrepared uint8 = 1
	VoteAborted  uint8 = 2
)

// Outcome wire encoding (mapped to audit.Outcome at the edges).
const (
	outcomeCommitted uint8 = 1
	outcomeAborted   uint8 = 2
)

// Acceptor message kinds. Vote is the ballot-0 fast-path 2a; prepare and
// accept are the recovery 1a/2a; learn is the read-only learner query.
const (
	kindJoin    = "paxos.join"
	kindVote    = "paxos.vote"
	kindPrepare = "paxos.prepare"
	kindAccept  = "paxos.accept"
	kindLearn   = "paxos.learn"
	kindOutcome = "paxos.outcome"
)

// Acceptors is the acceptor count every node of a cluster runs: 2F+1 with
// F = 1, so the loss of one acceptor — or of the coordinator, or of the CPU
// they share — blocks nobody. Start and NewClient still take the count:
// this package's tests run F = 2.
const Acceptors = 3

// AcceptorName returns the registered process name of acceptor slot i.
func AcceptorName(i int) string { return fmt.Sprintf("paxos.acceptor.%d", i) }

// joinReq registers an instance (a participant node) with an acceptor.
type joinReq struct {
	Tx       txid.ID
	Instance string
}

// voteReq is the ballot-0 fast-path accept: the participant's phase-one
// vote, sent directly to the acceptors.
type voteReq struct {
	Tx       txid.ID
	Instance string
	Value    uint8
}

// prepareReq is the recovery phase-1a message.
type prepareReq struct {
	Tx       txid.ID
	Instance string
	Ballot   uint64
}

// prepareResp is the phase-1b reply: the promise (or the higher promised
// ballot on a nack) plus any previously accepted value.
type prepareResp struct {
	OK          bool
	Promised    uint64
	HasAccepted bool
	AccBallot   uint64
	AccValue    uint8
}

// acceptReq is the recovery phase-2a message.
type acceptReq struct {
	Tx       txid.ID
	Instance string
	Ballot   uint64
	Value    uint8
}

// acceptResp is the phase-2b reply.
type acceptResp struct {
	OK       bool
	Promised uint64
}

// learnReq asks one acceptor for everything it knows about a transaction.
type learnReq struct {
	Tx txid.ID
}

// instanceState is one instance's accepted state in a learn reply.
type instanceState struct {
	Name        string
	HasAccepted bool
	Ballot      uint64
	Value       uint8
}

// learnResp is one acceptor's view of a transaction.
type learnResp struct {
	Slot       int
	HasOutcome bool
	Outcome    uint8
	Instances  []instanceState
}

// outcomeReq records the final disposition with an acceptor, so later
// learners answer in one round trip.
type outcomeReq struct {
	Tx      txid.ID
	Outcome uint8
}

func init() {
	msg.RegisterPayloadName("paxoscommit.joinReq", joinReq{})
	msg.RegisterPayloadName("paxoscommit.voteReq", voteReq{})
	msg.RegisterPayloadName("paxoscommit.prepareReq", prepareReq{})
	msg.RegisterPayloadName("paxoscommit.prepareResp", prepareResp{})
	msg.RegisterPayloadName("paxoscommit.acceptReq", acceptReq{})
	msg.RegisterPayloadName("paxoscommit.acceptResp", acceptResp{})
	msg.RegisterPayloadName("paxoscommit.learnReq", learnReq{})
	msg.RegisterPayloadName("paxoscommit.learnResp", learnResp{})
	msg.RegisterPayloadName("paxoscommit.outcomeReq", outcomeReq{})
}

// instState is one consensus instance's acceptor-side state.
type instState struct {
	promised  uint64
	hasAcc    bool
	accBallot uint64
	accValue  uint8
}

// txState is everything one acceptor knows about one transaction.
type txState struct {
	instances map[string]*instState
	outcome   uint8 // 0 = undecided
}

// acceptor is one replica slot: its durable log, its in-memory state and
// the mutex serializing handler access. The state object outlives process
// incarnations — a respawned acceptor (after its CPU is reloaded) serves
// the same state, which the log can always reconstruct (replayState).
type acceptor struct {
	slot int
	cpu  int
	log  *audit.DecisionLog

	mu  sync.Mutex
	txs map[txid.ID]*txState // guarded by mu
}

// txLocked returns (creating if needed) the per-transaction state;
// the caller must hold a.mu.
func (a *acceptor) txLocked(id txid.ID) *txState {
	st, ok := a.txs[id]
	if !ok {
		st = &txState{instances: make(map[string]*instState)}
		a.txs[id] = st
	}
	return st
}

// instLocked returns (creating if needed) one instance's acceptor state;
// the caller must hold a.mu.
func (a *acceptor) instLocked(id txid.ID, name string) *instState {
	st := a.txLocked(id)
	in, ok := st.instances[name]
	if !ok {
		in = &instState{}
		st.instances[name] = in
	}
	return in
}

// replayState rebuilds the in-memory view from the durable log, the cold
// path for an acceptor handed a pre-existing log (node recovery).
func (a *acceptor) replayState() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.txs = make(map[txid.ID]*txState)
	for _, rec := range a.log.Records() {
		switch rec.Kind {
		case audit.DecisionJoin:
			a.instLocked(rec.Tx, rec.Instance)
		case audit.DecisionPromise:
			in := a.instLocked(rec.Tx, rec.Instance)
			if rec.Ballot > in.promised {
				in.promised = rec.Ballot
			}
		case audit.DecisionAccept:
			in := a.instLocked(rec.Tx, rec.Instance)
			in.hasAcc, in.accBallot, in.accValue = true, rec.Ballot, uint8(rec.Value)
			if rec.Ballot > in.promised {
				in.promised = rec.Ballot
			}
		case audit.DecisionOutcome:
			a.txLocked(rec.Tx).outcome = uint8(rec.Value)
		}
	}
}

// AcceptorSet runs the node's acceptor replicas: one process per slot,
// slot i hosted on CPU i mod NumCPUs, respawned (cold-loaded onto the new
// incarnation) when a failed CPU is reloaded.
type AcceptorSet struct {
	sys *msg.System

	mu        sync.Mutex
	acceptors []*acceptor // guarded by mu
}

// Start spawns n acceptor processes on the node. logs, when non-nil,
// supplies pre-existing decision logs (one per slot, from a recovered
// node); nil creates fresh logs with the given force delay. Slots whose
// CPU is down at start are spawned when the CPU is reloaded.
func Start(sys *msg.System, n int, logs []*audit.DecisionLog) (*AcceptorSet, error) {
	if n < 1 {
		return nil, fmt.Errorf("paxoscommit: need at least one acceptor, got %d", n)
	}
	if logs != nil && len(logs) != n {
		return nil, fmt.Errorf("paxoscommit: %d logs for %d acceptors", len(logs), n)
	}
	s := &AcceptorSet{sys: sys}
	node := sys.Node()
	for i := 0; i < n; i++ {
		log := (*audit.DecisionLog)(nil)
		if logs != nil {
			log = logs[i]
		}
		if log == nil {
			log = audit.NewDecisionLog(fmt.Sprintf("%s.paxos.%d", node.Name(), i), 0)
		}
		a := &acceptor{slot: i, cpu: i % node.NumCPUs(), log: log, txs: make(map[txid.ID]*txState)}
		if logs != nil {
			a.replayState()
		}
		s.acceptors = append(s.acceptors, a)
		_ = s.spawn(a) // a down CPU at start is handled by the reload watch
	}
	node.Watch(func(e hw.Event) {
		if e.Kind != hw.EventCPUUp {
			return
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, a := range s.acceptors {
			if a.cpu == e.CPU {
				_ = s.spawn(a)
			}
		}
	})
	return s, nil
}

// spawn starts (or restarts) one acceptor's serving process. The fresh
// registration displaces the halted incarnation's name entry.
func (s *AcceptorSet) spawn(a *acceptor) error {
	_, err := s.sys.Spawn(a.cpu, AcceptorName(a.slot), func(p *msg.Process) {
		for {
			req, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			a.handle(p, req)
		}
	})
	return err
}

// Logs returns the acceptors' decision logs in slot order.
func (s *AcceptorSet) Logs() []*audit.DecisionLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*audit.DecisionLog, len(s.acceptors))
	for i, a := range s.acceptors {
		out[i] = a.log
	}
	return out
}

// handle serves one acceptor request. Every state change is logged before
// the reply: the ack is the durability promise.
func (a *acceptor) handle(p *msg.Process, req msg.Message) {
	switch req.Kind {
	case kindJoin:
		r, ok := req.Payload.(joinReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad join payload"))
			return
		}
		a.mu.Lock()
		st := a.txLocked(r.Tx)
		if _, known := st.instances[r.Instance]; !known {
			st.instances[r.Instance] = &instState{}
			a.log.Append(audit.DecisionRecord{Tx: r.Tx, Kind: audit.DecisionJoin, Instance: r.Instance})
		}
		a.mu.Unlock()
		_ = p.Reply(req, nil)

	case kindVote:
		r, ok := req.Payload.(voteReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad vote payload"))
			return
		}
		resp := a.accept(r.Tx, r.Instance, 0, r.Value)
		_ = p.Reply(req, resp)

	case kindAccept:
		r, ok := req.Payload.(acceptReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad accept payload"))
			return
		}
		resp := a.accept(r.Tx, r.Instance, r.Ballot, r.Value)
		_ = p.Reply(req, resp)

	case kindPrepare:
		r, ok := req.Payload.(prepareReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad prepare payload"))
			return
		}
		a.mu.Lock()
		in := a.instLocked(r.Tx, r.Instance)
		resp := prepareResp{Promised: in.promised, HasAccepted: in.hasAcc, AccBallot: in.accBallot, AccValue: in.accValue}
		if r.Ballot > in.promised {
			a.log.Append(audit.DecisionRecord{Tx: r.Tx, Kind: audit.DecisionPromise, Instance: r.Instance, Ballot: r.Ballot})
			in.promised = r.Ballot
			resp.OK, resp.Promised = true, r.Ballot
		}
		a.mu.Unlock()
		_ = p.Reply(req, resp)

	case kindLearn:
		r, ok := req.Payload.(learnReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad learn payload"))
			return
		}
		a.mu.Lock()
		resp := learnResp{Slot: a.slot}
		if st, known := a.txs[r.Tx]; known {
			resp.HasOutcome = st.outcome != 0
			resp.Outcome = st.outcome
			for name, in := range st.instances {
				resp.Instances = append(resp.Instances, instanceState{
					Name: name, HasAccepted: in.hasAcc, Ballot: in.accBallot, Value: in.accValue,
				})
			}
			// The learner's view must not depend on map order: recovery
			// compares these frames across seeded replays.
			sort.Slice(resp.Instances, func(i, j int) bool { return resp.Instances[i].Name < resp.Instances[j].Name })
		}
		a.mu.Unlock()
		//lint:allow forcefirst learn is a read-only answer: it externalizes only state previous appends already made durable
		_ = p.Reply(req, resp)

	case kindOutcome:
		r, ok := req.Payload.(outcomeReq)
		if !ok {
			_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: bad outcome payload"))
			return
		}
		a.mu.Lock()
		st := a.txLocked(r.Tx)
		if st.outcome == 0 && (r.Outcome == outcomeCommitted || r.Outcome == outcomeAborted) {
			a.log.Append(audit.DecisionRecord{Tx: r.Tx, Kind: audit.DecisionOutcome, Value: r.Outcome})
			st.outcome = r.Outcome
		}
		stored := st.outcome
		a.mu.Unlock()
		_ = p.Reply(req, outcomeReq{Tx: r.Tx, Outcome: stored})

	default:
		_ = p.ReplyErr(req, fmt.Errorf("paxoscommit: unknown request %q", req.Kind))
	}
}

// accept is the phase-2b rule shared by the ballot-0 fast path and
// recovery: accept iff the ballot is at least the promise, and never
// change the value accepted at a given ballot.
func (a *acceptor) accept(tx txid.ID, instance string, ballot uint64, value uint8) acceptResp {
	if value != VotePrepared && value != VoteAborted {
		return acceptResp{OK: false}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	in := a.instLocked(tx, instance)
	if ballot < in.promised {
		return acceptResp{OK: false, Promised: in.promised}
	}
	if in.hasAcc && in.accBallot == ballot && in.accValue != value {
		// Two different values at one ballot would mean two proposers share
		// a ballot number; refuse the second rather than fork history.
		return acceptResp{OK: false, Promised: in.promised}
	}
	if !(in.hasAcc && in.accBallot == ballot && in.accValue == value) {
		a.log.Append(audit.DecisionRecord{Tx: tx, Kind: audit.DecisionAccept, Instance: instance, Ballot: ballot, Value: value})
		in.hasAcc, in.accBallot, in.accValue = true, ballot, value
	}
	in.promised = ballot
	return acceptResp{OK: true, Promised: ballot}
}
