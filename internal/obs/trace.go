// Package obs is the observability subsystem: a per-transaction lifecycle
// tracer, a metrics registry (counters and fixed-bucket latency
// histograms), and a state-machine checker that validates captured traces
// against the legal transition relation of the paper's Figure 3.
//
// The tracer records every state-change broadcast plus the protocol's
// phase events (begin, phase-one force, participant vote, child TMP
// request/reply, phase-two release, undo send, backout scan) with
// monotonic timestamps and the emitting node/CPU. Traces double as a
// debugging aid (`tmfctl trace`) and as a correctness oracle: the chaos
// tests feed every captured trace through CheckTrace, asserting that each
// transaction reached ENDED or ABORTED through legal transitions only.
//
// All types are safe for concurrent use, and the entry points tolerate nil
// receivers so instrumented code never needs enablement guards.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"encompass/internal/txid"
)

// EventKind classifies one trace event.
type EventKind int

// Trace event kinds. EvState is the Figure 3 state-change broadcast; the
// rest are protocol phase events.
const (
	// EvBegin records BEGIN-TRANSACTION (home) or a remote transaction
	// begin (non-home; Detail names the transmitting node).
	EvBegin EventKind = iota
	// EvState records one replicated state-change broadcast (From → To).
	EvState
	// EvForce records a phase-one audit-trail write-force of one
	// participating volume (Detail = volume name).
	EvForce
	// EvChildRequest records the start of a critical-response or
	// safe-delivery TMP call to a child node (Detail = node/kind).
	EvChildRequest
	// EvChildReply records the child's reply (Dur = round-trip time).
	EvChildReply
	// EvPhase2Release records the phase-two lock release sent to one
	// participating volume (Detail = volume name).
	EvPhase2Release
	// EvUndoSend records a batch of before-images sent to a volume during
	// backout (Detail = volume name and image count).
	EvUndoSend
	// EvBackoutScan records a BACKOUTPROCESS scan of one audit trail
	// (Detail = trail name).
	EvBackoutScan
	// EvOutcome records the completion record written to the Monitor Audit
	// Trail (Detail = "committed" or "aborted"): the commit point.
	EvOutcome
	// EvFlushServed records the DISCPROCESS side of a phase-one flush
	// completing (its reply is asynchronous; Dur = time the force took).
	EvFlushServed
	// EvUndoApplied records the DISCPROCESS side of an undo batch applied.
	EvUndoApplied
	// EvVote records a participant's affirmative reply to phase one: from
	// here on only an imposed abort may back the transaction out there.
	EvVote
)

// CauseImposed opens the Detail of an → aborting EvState whose abort the
// node did not decide itself (its parent's ABORTING, the acceptors'
// decision, the operator); a unilateral one opens with "unilateral".
const CauseImposed = "imposed"

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvBegin:
		return "begin"
	case EvState:
		return "state"
	case EvForce:
		return "force"
	case EvChildRequest:
		return "child-request"
	case EvChildReply:
		return "child-reply"
	case EvPhase2Release:
		return "release"
	case EvUndoSend:
		return "undo-send"
	case EvBackoutScan:
		return "backout-scan"
	case EvOutcome:
		return "outcome"
	case EvFlushServed:
		return "flush-served"
	case EvUndoApplied:
		return "undo-applied"
	case EvVote:
		return "vote"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one recorded trace point.
type Event struct {
	Tx   txid.ID
	Kind EventKind
	// From/To are set for EvState only: the broadcast transition.
	From, To txid.State
	// Node and CPU identify the emitting monitor and processor.
	Node string
	CPU  int
	// At is the monotonic offset from the tracer's start.
	At time.Duration
	// Dur is the elapsed time of the call the event describes (zero for
	// instantaneous events).
	Dur time.Duration
	// Detail carries the event-specific operand (volume, trail, node).
	Detail string
	// Err is non-empty when the call the event describes failed.
	Err string
}

// String renders one event as a trace line.
func (e Event) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%12s  %-13s", e.At.Round(time.Microsecond), e.Kind)
	if e.Kind == EvState {
		fmt.Fprintf(&sb, " %s → %s", e.From, e.To)
	}
	if e.Detail != "" {
		fmt.Fprintf(&sb, " %s", e.Detail)
	}
	fmt.Fprintf(&sb, "  [%s cpu%d]", e.Node, e.CPU)
	if e.Dur > 0 {
		fmt.Fprintf(&sb, " dur=%s", e.Dur.Round(time.Microsecond))
	}
	if e.Err != "" {
		fmt.Fprintf(&sb, " err=%q", e.Err)
	}
	return sb.String()
}

// DefaultTraceCapacity bounds how many distinct transactions a tracer
// retains before evicting the oldest.
const DefaultTraceCapacity = 1024

// Tracer captures per-transaction event traces. It retains at most its
// configured number of distinct transactions, evicting the
// least-recently-begun when full (the eviction count is reported so tests
// can size the tracer to lose nothing). A nil *Tracer discards records.
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	traces  map[txid.ID][]Event
	order   []txid.ID // insertion order, for eviction
	cap     int
	evicted uint64
}

// NewTracer creates a tracer retaining up to capacity distinct transaction
// traces (<= 0 selects DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		start:  time.Now(),
		traces: make(map[txid.ID][]Event, capacity),
		cap:    capacity,
	}
}

// Record appends one event to its transaction's trace. The timestamp is
// assigned here (monotonic, relative to the tracer's start) and under the
// lock, so two goroutines recording at once cannot append out of timestamp
// order. Safe on a nil tracer.
func (t *Tracer) Record(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.At = time.Since(t.start)
	if _, ok := t.traces[ev.Tx]; !ok {
		if len(t.order) >= t.cap {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, oldest)
			t.evicted++
		}
		t.order = append(t.order, ev.Tx)
	}
	t.traces[ev.Tx] = append(t.traces[ev.Tx], ev)
	t.mu.Unlock()
}

// Trace returns a copy of the transaction's event trace in record order
// (nil if the transaction is unknown or the tracer is nil).
func (t *Tracer) Trace(tx txid.ID) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.traces[tx]...)
}

// Transactions returns every traced transaction in first-seen order.
func (t *Tracer) Transactions() []txid.ID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]txid.ID(nil), t.order...)
}

// Evicted reports how many transaction traces were dropped to capacity.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Dump renders the transaction's trace as a human-readable block, one line
// per event.
func (t *Tracer) Dump(tx txid.ID) string {
	events := t.Trace(tx)
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace of %s (%d events)\n", tx, len(events))
	if len(events) == 0 {
		sb.WriteString("  (no events captured)\n")
		return sb.String()
	}
	for _, ev := range events {
		fmt.Fprintf(&sb, "  %s\n", ev)
	}
	return sb.String()
}
