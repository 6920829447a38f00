package tmf

import (
	"fmt"
	"time"

	"encompass/internal/audit"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// The shell around the protocol's core (core.go). An entry point takes the
// transaction's turn — the tcb's busy flag, set under the Monitor's mu,
// waited for on its turnFree — steps its event, runs the effects in order
// on its own goroutine, feeds each completion back through step, and
// releases the turn. mu covers a step and nothing else: no mutex is held
// while an effect runs, and the turn is held across TMP calls safely
// because the transmission graph is a tree and calls flow parent → child.

// run is an entry point of the protocol: it takes tx's turn, steps ev
// with the Monitor Audit Trail's outcome for tx, runs what the core
// decides and answers. A transaction unknown here steps from state none.
func (m *Monitor) run(tx txid.ID, ev event, reason string) error {
	ev.recorded, _ = m.mat.OutcomeOf(tx)
	m.mu.Lock()
	t := m.txs[tx]
	if t == nil {
		m.mu.Unlock()
		_, out := step(txState{}, ev)
		return m.answer(tx, out, nil)
	}
	for t.busy {
		m.turnFree.Wait()
	}
	t.busy = true
	var out effects
	t.s, out = step(t.s, ev)
	m.mu.Unlock()
	return m.drive(t, out, reason)
}

// drive runs out's effects in order on the caller's goroutine, steps every
// completion the core awaits and runs what that decides, then releases
// t's turn. reason is an abort's, extended by what the effects meet.
func (m *Monitor) drive(t *tcb, out effects, reason string) error {
	defer func() {
		m.mu.Lock()
		t.busy = false
		m.mu.Unlock()
		m.turnFree.Broadcast()
	}()
	tx := t.id
	var (
		failure error     // the failed phase one or vote that made the core abort
		d       *delivery // the outcome in flight to the children
		buf     [2]tmpPending
		calls   []tmpPending
		p1, p2  time.Time // the starts of phase one and phase two
	)
	for {
		var next event
		for _, e := range out.all() {
			switch e.kind {
			case fxBroadcast:
				var detail string
				if e.to == txid.StateAborting && m.tracer != nil {
					detail = string(e.cause) + ": " + reason
				}
				m.broadcast(tx, e.from, e.to, detail)
				if e.to == txid.StateEnded {
					m.hBeginToEnded.Observe(time.Since(t.beginAt))
				}
			case fxPhase1:
				p1 = time.Now()
				next = event{kind: evPhase1Done}
				if err := m.phase1(t); err != nil {
					failure, next.failed = fmt.Errorf("phase one failed: %v", err), true
				}
			case fxVote:
				next = event{kind: evVoted}
				if err := m.paxos.client(tx.Home).Vote(tx, m.node, true); err != nil {
					failure, next.failed = fmt.Errorf("disposition vote failed: %v", err), true
				}
			case fxResolve:
				o, _, err := m.paxos.client(tx.Home).Resolve(tx)
				if err != nil {
					reason = fmt.Sprintf("%s (decision quorum unavailable: %v)", reason, err)
				}
				next = event{kind: evResolved, outcome: o, failed: err != nil}
			case fxHook:
				m.hPhase1.Observe(time.Since(p1))
				if hp := m.phase1Hook.Load(); hp != nil {
					(*hp)(tx)
				}
			case fxYes:
				m.hPhase1.Observe(time.Since(p1))
				m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvVote, Node: m.node, CPU: m.tmpCPUOrFirstUp()})
			case fxDecide:
				m.paxos.client(tx.Home).RecordOutcome(tx, audit.OutcomeCommitted)
			case fxRecord:
				m.recordOutcome(tx, e.outcome)
			case fxRelease:
				p2 = time.Now()
				m.releaseLocal(t)
			case fxSend:
				d = m.safeDeliverChildren(t, e.msg, p2)
				calls = d.start(buf[:0])
			case fxCollect:
				d.collect(calls)
				d.Done()
			case fxBehind:
				if behind := m.safeDeliverChildren(t, e.msg, p2); behind != nil {
					go behind.send()
				}
			case fxBackout:
				if err := m.backoutLocal(t); err != nil {
					reason = fmt.Sprintf("%s; backout incomplete: %v", reason, err)
				}
				m.mu.Lock()
				t.abortReason = reason
				m.mu.Unlock()
			case fxWatch:
				m.armInDoubtWatcher(tx)
			}
		}
		if next.kind == 0 {
			return m.answer(tx, out, failure)
		}
		m.mu.Lock()
		t.s, out = step(t.s, next)
		m.mu.Unlock()
	}
}

// answer wraps a step's answer in the entry point's error; failure is the
// failed phase one or vote behind an abort.
func (m *Monitor) answer(tx txid.ID, out effects, failure error) error {
	switch {
	case out.err == nil:
		return nil
	case failure != nil:
		return fmt.Errorf("%w: %s on %s: %v", out.err, tx, m.node, failure)
	}
	return fmt.Errorf("%w: %s in state %s on %s", out.err, tx, out.was, m.node)
}
