package obs

import (
	"fmt"
	"strings"
	"sync"

	"encompass/internal/txid"
)

// Violation records one illegal Figure 3 transition observed at runtime.
type Violation struct {
	Tx       txid.ID
	Node     string
	From, To txid.State
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s on %s: illegal transition %s → %s", v.Tx, v.Node, v.From, v.To)
}

// StateMachineChecker validates transaction state transitions against the
// legal relation of the paper's Figure 3. It serves two roles:
//
//   - runtime assertion: the monitor feeds every state-change broadcast
//     through Observe; violations are counted and retained;
//   - test oracle: CheckTrace statically validates a captured trace,
//     including the terminal-state requirement (every transaction must
//     finish in ENDED or ABORTED).
//
// A nil *StateMachineChecker ignores observations.
type StateMachineChecker struct {
	mu         sync.Mutex
	violations []Violation
}

// NewStateMachineChecker creates a checker.
func NewStateMachineChecker() *StateMachineChecker { return &StateMachineChecker{} }

// Observe validates one state-change broadcast. It returns the violation
// error (and records it) when the transition is illegal, nil otherwise.
func (c *StateMachineChecker) Observe(node string, tx txid.ID, from, to txid.State) error {
	if c == nil {
		return nil
	}
	if from.CanTransition(to) {
		return nil
	}
	v := Violation{Tx: tx, Node: node, From: from, To: to}
	c.mu.Lock()
	c.violations = append(c.violations, v)
	c.mu.Unlock()
	return fmt.Errorf("obs: %s", v)
}

// Violations returns the recorded violations (expected empty).
func (c *StateMachineChecker) Violations() []Violation {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// CheckTrace validates a captured transaction trace against Figure 3:
//
//   - the EvState events on each node must chain (every transition's From
//     equals that node's previous To) and each step must be legal per
//     txid.State.CanTransition;
//   - each node's first observed transition must start from StateNone (the
//     transid is installed by BEGIN-TRANSACTION or remote begin);
//   - each node that saw any state event must finish in a terminal state
//     (ENDED or ABORTED) — the paper's requirement that every transaction
//     leaves the system with a disposition;
//   - event timestamps must be non-decreasing;
//   - a node that voted yes (EvVote) backs out only on an imposed abort:
//     its later → aborting transition must carry CauseImposed.
//
// The trace may interleave events from several nodes of a distributed
// transaction; state chains are validated per node. Phase events (forces,
// releases, undo sends, ...) are ignored here — they carry latency data,
// not state.
func CheckTrace(events []Event) error {
	if len(events) == 0 {
		return fmt.Errorf("obs: empty trace")
	}
	tx := events[0].Tx
	last := make(map[string]txid.State)
	voted := make(map[string]bool)
	var prevAt = events[0].At
	for i, ev := range events {
		if ev.Tx != tx {
			return fmt.Errorf("obs: trace mixes transactions %s and %s", tx, ev.Tx)
		}
		if ev.At < prevAt {
			return fmt.Errorf("obs: event %d (%s) timestamp went backwards: %s < %s", i, ev.Kind, ev.At, prevAt)
		}
		prevAt = ev.At
		if ev.Kind == EvVote {
			voted[ev.Node] = true
		}
		if ev.Kind != EvState {
			continue
		}
		if ev.To == txid.StateAborting && voted[ev.Node] && !strings.HasPrefix(ev.Detail, CauseImposed) {
			return fmt.Errorf("obs: %s on %s: voted yes, then backed out on its own (%s)", tx, ev.Node, ev.Detail)
		}
		cur, seen := last[ev.Node]
		if !seen {
			if ev.From != txid.StateNone {
				return fmt.Errorf("obs: %s on %s: first transition starts at %s, want %s",
					tx, ev.Node, ev.From, txid.StateNone)
			}
		} else if ev.From != cur {
			return fmt.Errorf("obs: %s on %s: transition %s → %s does not chain from %s",
				tx, ev.Node, ev.From, ev.To, cur)
		}
		if !ev.From.CanTransition(ev.To) {
			return fmt.Errorf("obs: %s", Violation{Tx: tx, Node: ev.Node, From: ev.From, To: ev.To})
		}
		last[ev.Node] = ev.To
	}
	if len(last) == 0 {
		return fmt.Errorf("obs: trace of %s has no state transitions", tx)
	}
	for node, st := range last {
		if !st.Terminal() {
			return fmt.Errorf("obs: %s on %s finished in non-terminal state %s", tx, node, st)
		}
	}
	return nil
}
