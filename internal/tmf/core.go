package tmf

import (
	"encompass/internal/audit"
	"encompass/internal/txid"
)

// The commit protocol's core. Every decision TMF makes about a transaction
// on a node is a step: state and event in, next state and effects out —
// two-phase commit as Gray & Lamport state it, one state per resource
// manager and the conditions that enable each move. step is pure: no I/O,
// no clock, no lock, no allocation. The Monitor Audit Trail's outcome
// comes in with the event; the per-CPU state tables, replicas a reloaded
// processor may hold stale, are never read. The shell (shell.go) runs the
// effects with the existing helpers. One step serves both protocols.

// await names the completion the core is waiting for.
type await uint8

const (
	awaitNone    await = iota
	awaitPhase1        // phase one here and at the children
	awaitVote          // this node's Paxos vote
	awaitResolve       // the acceptors' resolution of a home node's abort
)

// txState is one transaction's protocol state on this node.
type txState struct {
	st     txid.State
	cause  abortCause // an abort that waits for the acceptors: its cause,
	failed bool       // and whether it answers END's failure
	home   bool       // this node began the transaction
	paxos  bool       // the node decides distributed transactions by Paxos Commit
	closed bool       // closed to new work: END, phase one or an abort began
	voted  bool       // a participant replied yes to phase one: no unilateral abort any more
	joined bool       // the transaction entered Paxos Commit on this node
	wait   await
}

// eventKind names what happened to a transaction.
type eventKind uint8

const (
	evBegin      eventKind = iota + 1 // BEGIN-TRANSACTION, or the remote begin that brought the transid
	evTransmit                        // the transid is about to go to a node that is not a child yet
	evJoined                          // this node's own Paxos Commit join succeeded
	evChild                           // a node answered our remote begin: it is a child
	evEnd                             // END-TRANSACTION
	evPhase1                          // the parent's phase-one request
	evPhase1Done                      // phase one's result, here and at the children
	evVoted                           // the Paxos vote's result
	evResolved                        // the acceptors' resolution of a home node's abort
	evOutcome                         // the disposition learned: ENDED, ABORTING, the acceptors or the operator
	evAbort                           // abort requested
)

// event is one input to step.
type event struct {
	kind     eventKind
	failed   bool          // a completion: the effect failed
	outcome  audit.Outcome // evOutcome, evResolved: the disposition
	recorded audit.Outcome // the Monitor Audit Trail's outcome for the transaction; zero for none
	cause    abortCause    // evAbort: who decided
}

// awaited maps each completion to what awaits it; a request maps to
// awaitNone.
var awaited = [...]await{evPhase1Done: awaitPhase1, evVoted: awaitVote, evResolved: awaitResolve, evAbort: awaitNone}

// effectKind names one effect; the shell runs each with the helper named.
type effectKind uint8

const (
	fxBroadcast  effectKind = iota + 1 // broadcast from → to; an abort's carries its cause
	fxPhase1                           // phase1, here and at the children → evPhase1Done
	fxJoin                             // the Paxos join of this node (self) or the destination
	fxVote                             // the Paxos vote of this node → evVoted
	fxResolve                          // the acceptors' Resolve → evResolved
	fxHook                             // home: phase one's latency, then SetPhase1Hook's hook
	fxYes                              // participant: phase one's latency, then the traced vote
	fxDecide                           // tell the acceptors the commit (RecordOutcome)
	fxRecord                           // recordOutcome
	fxRelease                          // releaseLocal
	fxSend                             // safeDeliverChildren: the outcome to the children, nowait
	fxCollect                          // the children's answers to fxSend
	fxBehind                           // safeDeliverChildren: the outcome to the children, behind the reply
	fxBackout                          // backoutLocal
	fxWatch                            // armInDoubtWatcher
	fxAbortChild                       // ABORTING to the node whose begin answered too late
)

// effect is one effect with its operands.
type effect struct {
	kind     effectKind
	from, to txid.State    // fxBroadcast
	cause    abortCause    // fxBroadcast to aborting
	msg      string        // fxSend, fxBehind: kindEnded or kindAborting
	outcome  audit.Outcome // fxRecord
	self     bool          // fxJoin: this node, not the destination
}

// effects is what one step decides: the effects to run, in order (only the
// last may be awaited), and the entry point's answer: a package error or nil.
type effects struct {
	list [7]effect // an abort has the most
	n    int
	err  error
	was  txid.State // the state the event found, for the answer's text
}

func (o *effects) all() []effect { return o.list[:o.n] }

func (o *effects) add(kind effectKind) *effect {
	o.list[o.n] = effect{kind: kind}
	o.n++
	return &o.list[o.n-1]
}

// broadcast takes s to st.
func (o *effects) broadcast(s *txState, st txid.State) *effect {
	e := o.add(fxBroadcast)
	e.from, e.to, s.st = s.st, st, st
	return e
}

// record writes the outcome to the Monitor Audit Trail: a commit record is
// forced, and is the commit point.
func (o *effects) record(out audit.Outcome) { o.add(fxRecord).outcome = out }

// deliver sends the outcome message msg to the children.
func (o *effects) deliver(kind effectKind, msg string) { o.add(kind).msg = msg }

// wait ends the step with an effect whose completion the core awaits.
func (o *effects) wait(s *txState, kind effectKind, w await) { o.add(kind); s.wait = w }

// commit takes s to ENDED. The commit record, the commit point, comes
// before any ENDED; then the locks are released and ENDED goes to the
// children, behind the reply (End) or waited for (a node applying a
// disposition it learned). Active passes through ending: Figure 3's way.
func (o *effects) commit(s *txState, behind bool) {
	s.closed = true
	if s.st == txid.StateActive {
		o.broadcast(s, txid.StateEnding)
	}
	o.record(audit.OutcomeCommitted)
	o.broadcast(s, txid.StateEnded)
	o.add(fxRelease)
	if behind {
		o.deliver(fxBehind, kindEnded)
		return
	}
	o.deliver(fxSend, kindEnded)
	o.add(fxCollect)
}

// stop aborts s for cause c; failed says it answers END's or phase one's
// failure. A home node in Paxos Commit resolves with the acceptors first:
// a recovery ballot may have chosen commit; else it fixes Aborted for all.
func (o *effects) stop(s *txState, c abortCause, failed bool) {
	if s.home && s.joined {
		s.cause, s.failed = c, failed
		o.wait(s, fxResolve, awaitResolve)
		return
	}
	o.abort(s, c, failed)
}

// abort takes s to ABORTED. ABORTING goes to the children first, and this
// node backs out while they do; the abort record is not forced (presumed
// abort), so it may follow the message.
func (o *effects) abort(s *txState, c abortCause, failed bool) {
	s.closed = true
	o.broadcast(s, txid.StateAborting).cause = c
	o.deliver(fxSend, kindAborting)
	o.add(fxBackout)
	o.record(audit.OutcomeAborted)
	o.broadcast(s, txid.StateAborted)
	o.add(fxRelease)
	o.add(fxCollect)
	if failed {
		o.err = ErrAborted
	}
}

// step is the protocol: it applies ev to s.
func step(s txState, ev event) (txState, effects) {
	o := effects{was: s.st}
	if s.st == txid.StateNone && ev.kind != evBegin {
		// Unknown here. A phase one that straggles in after the transaction
		// left the system is answered from the Monitor Audit Trail.
		switch {
		case ev.kind != evPhase1 || ev.recorded == 0:
			o.err = ErrUnknownTx
		case ev.recorded == audit.OutcomeAborted:
			o.err = ErrAborted
		}
		return s, o
	}
	switch ev.kind {
	case evTransmit:
		// The transid goes to a new node only while the transaction takes
		// new work. Under Paxos Commit this node's instance, once, and the
		// destination's are registered with the home node's acceptors
		// first, so that a recovery ballot finds every participant.
		if s.closed {
			o.err = ErrAborted
		} else if s.paxos {
			if !s.joined {
				o.add(fxJoin).self = true
			}
			o.add(fxJoin)
		}
		return s, o
	case evJoined:
		s.joined = true
		return s, o
	case evChild:
		// A begin answered after the transaction closed is too late: the
		// protocol already read the children, so that node is aborted.
		if s.closed {
			o.add(fxAbortChild)
			o.err = ErrAborted
		}
		return s, o
	}

	// Every other event holds the transaction's turn: a completion is taken
	// only while the core awaits it, and a request only while it awaits
	// nothing.
	if awaited[ev.kind] != s.wait {
		o.err = ErrBadState
		return s, o
	}
	s.wait = awaitNone
	if ev.kind == evOutcome && ev.outcome == audit.OutcomeAborted {
		ev.kind, ev.cause = evAbort, imposed
	}
	aborted := s.st == txid.StateAborting || s.st == txid.StateAborted
	switch ev.kind {
	case evBegin:
		if s.st == txid.StateNone {
			o.broadcast(&s, txid.StateActive)
		}
	case evEnd:
		switch {
		case !s.home:
			o.err = ErrNotHome
		case aborted || ev.recorded == audit.OutcomeAborted:
			// A coordinator resuming after a stall honors an abort already
			// recorded, as an abort honors a commit record.
			o.err = ErrAborted
		case s.st != txid.StateActive:
			o.err = ErrBadState
		default:
			s.closed = true
			o.broadcast(&s, txid.StateEnding)
			o.wait(&s, fxPhase1, awaitPhase1)
		}
	case evPhase1:
		switch {
		case s.home:
			o.err = ErrBadState
		case aborted:
			o.err = ErrAborted
		case s.st == txid.StateEnded || s.voted:
			// A duplicate: the first copy did the work, and the vote binds.
		default:
			s.closed = true
			if s.st == txid.StateActive {
				o.broadcast(&s, txid.StateEnding)
			}
			o.wait(&s, fxPhase1, awaitPhase1)
		}
	case evPhase1Done:
		switch {
		case ev.failed:
			o.stop(&s, unilateral, true)
		case s.paxos && (!s.home || s.joined):
			// Under Paxos Commit a yes is a vote at the home node's
			// acceptors, durable before it is answered; the home node votes
			// its own instance last.
			o.wait(&s, fxVote, awaitVote)
		case s.home:
			o.add(fxHook)
			o.commit(&s, true)
		default:
			s.voted = true
			o.add(fxYes)
		}
	case evVoted:
		switch {
		case ev.failed:
			o.stop(&s, unilateral, true)
		case s.home:
			// Every instance is chosen Prepared: the acceptors learn the
			// commit, so a learner resolves in one round trip.
			o.add(fxHook)
			o.add(fxDecide)
			o.commit(&s, true)
		default:
			s.voted, s.joined = true, true
			o.add(fxYes)
			o.add(fxWatch)
		}
	case evAbort:
		switch {
		case !s.home && s.voted && ev.cause == unilateral:
			o.err = ErrInDoubt
		case aborted || s.st == txid.StateEnded || ev.recorded == audit.OutcomeCommitted:
			// Nothing to do; and the commit record, the commit point, can
			// never be backed out.
		default:
			o.stop(&s, ev.cause, false)
		}
	case evResolved:
		c, failed := s.cause, s.failed
		s.cause, s.failed = "", false
		if !ev.failed && ev.outcome == audit.OutcomeCommitted {
			o.commit(&s, false)
		} else {
			// An unreachable quorum falls through to the local abort:
			// availability over waiting, as the paper's manual override.
			o.abort(&s, c, failed)
		}
	case evOutcome: // committed
		if aborted {
			o.err = ErrAborted
		} else if s.st != txid.StateEnded {
			o.commit(&s, false)
		}
	}
	return s, o
}
