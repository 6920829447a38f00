package tmf

import (
	"fmt"
	"testing"

	"encompass/internal/audit"
	"encompass/internal/txid"
)

// coreEvents is every event step distinguishes: each kind with every
// completion result, disposition, Monitor Audit Trail record and cause.
func coreEvents() []event {
	var evs []event
	outcomes := []audit.Outcome{0, audit.OutcomeCommitted, audit.OutcomeAborted}
	for k := evBegin; k <= evAbort; k++ {
		for _, failed := range []bool{false, true} {
			for _, o := range outcomes {
				for _, rec := range outcomes {
					for _, c := range []abortCause{unilateral, imposed} {
						evs = append(evs, event{kind: k, failed: failed, outcome: o, recorded: rec, cause: c})
					}
				}
			}
		}
	}
	return evs
}

// coreStates returns every state step can reach from a transaction in
// state none, home or not, under either protocol; the zero state, a
// transaction this node does not know, is among them.
func coreStates(evs []event) []txState {
	seen := map[txState]bool{}
	var queue []txState
	for _, home := range []bool{false, true} {
		for _, paxos := range []bool{false, true} {
			s := txState{home: home, paxos: paxos}
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, ev := range evs {
			if next, _ := step(queue[i], ev); !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return queue
}

// TestCoreExhaustive runs every reachable core state through every event
// and checks the protocol's rules on what step decides:
//   - every broadcast takes a Figure-3 edge from the state it found, and
//     the broadcasts end in the state step returns;
//   - a completion the core awaits is the last effect, and the state says
//     it awaits it;
//   - no ENDED is broadcast or sent before the commit record's effect;
//   - a participant that voted yes refuses a unilateral abort;
//   - an abort after the commit record does nothing;
//   - the same event again does nothing, except the per-destination
//     transmission events, which the shell steps once per node (their
//     joins and ABORTING are idempotent where they land).
func TestCoreExhaustive(t *testing.T) {
	evs := coreEvents()
	states := coreStates(evs)
	t.Logf("%d states × %d events", len(states), len(evs))
	for _, s := range states {
		for _, ev := range evs {
			next, out := step(s, ev)
			where := fmt.Sprintf("%+v on %+v", ev, s)

			st := s.st
			for i, e := range out.all() {
				switch e.kind {
				case fxBroadcast:
					if e.from != st || !st.CanTransition(e.to) {
						t.Fatalf("%s: broadcast %s → %s from state %s", where, e.from, e.to, st)
					}
					st = e.to
				case fxPhase1, fxVote, fxResolve:
					if i != out.n-1 || next.wait == awaitNone {
						t.Fatalf("%s: awaited effect %d of %d, state awaits %d", where, i, out.n, next.wait)
					}
				}
				ended := (e.kind == fxBroadcast && e.to == txid.StateEnded) ||
					((e.kind == fxSend || e.kind == fxBehind) && e.msg == kindEnded)
				if ended && !recordsCommit(out.list[:i]) {
					t.Fatalf("%s: ENDED (effect %d) before the commit record: %+v", where, i, out.all())
				}
			}
			if st != next.st {
				t.Fatalf("%s: broadcasts end in %s, state is %s", where, st, next.st)
			}
			side := ev.kind == evTransmit || ev.kind == evJoined || ev.kind == evChild
			taken := !side && awaited[ev.kind] == s.wait
			if taken && next.wait != awaitNone && !awaits(out.all()) {
				t.Fatalf("%s: awaits %d with nothing sent: %+v", where, next.wait, out.all())
			}

			abort := ev.kind == evAbort || (ev.kind == evOutcome && ev.outcome == audit.OutcomeAborted)
			if abort && ev.kind == evAbort && ev.cause == unilateral && !s.home && s.voted && s.wait == awaitNone {
				if out.err != ErrInDoubt || out.n != 0 {
					t.Fatalf("%s: a voted participant answered %v with %d effects to a unilateral abort", where, out.err, out.n)
				}
			}
			if abort && (s.st == txid.StateEnded || ev.recorded == audit.OutcomeCommitted) && out.n != 0 {
				t.Fatalf("%s: an abort after the commit record ran %+v", where, out.all())
			}

			if ev.kind == evTransmit || ev.kind == evChild {
				continue
			}
			if _, again := step(next, ev); again.n != 0 {
				t.Fatalf("%s: the event again ran %+v", where, again.all())
			}
		}
	}
}

// awaits reports whether the last of fx is one whose completion the core
// awaits.
func awaits(fx []effect) bool {
	if len(fx) == 0 {
		return false
	}
	k := fx[len(fx)-1].kind
	return k == fxPhase1 || k == fxVote || k == fxResolve
}

// recordsCommit reports whether fx writes the commit record.
func recordsCommit(fx []effect) bool {
	for _, e := range fx {
		if e.kind == fxRecord && e.outcome == audit.OutcomeCommitted {
			return true
		}
	}
	return false
}

// TestStepAllocatesNothing: step returns its effects in a fixed array, so
// no state × event allocates.
func TestStepAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	evs := coreEvents()
	for _, s := range coreStates(evs) {
		for _, ev := range evs {
			if n := testing.AllocsPerRun(5, func() { step(s, ev) }); n != 0 {
				t.Fatalf("step(%+v, %+v) allocates %.0f", s, ev, n)
			}
		}
	}
}
