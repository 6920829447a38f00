package audit

import (
	"sync"
	"time"

	"encompass/internal/txid"
)

// Outcome is a transaction completion status recorded in the Monitor Audit
// Trail.
type Outcome int

// Completion outcomes.
const (
	OutcomeCommitted Outcome = iota + 1
	OutcomeAborted
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// Completion is one record of the Monitor Audit Trail.
type Completion struct {
	Seq     uint64
	Tx      txid.ID
	Outcome Outcome
}

// MonitorTrail is the per-node history of transaction completion statuses.
// Writing a commit record here IS the commit point, so Append forces.
type MonitorTrail struct {
	forceDelay time.Duration

	mu       sync.Mutex
	records  []Completion        // guarded by mu
	bySeq    map[txid.ID]Outcome // guarded by mu
	nextSeq  uint64              // guarded by mu
	restarts uint64              // guarded by mu
}

// NewMonitorTrail creates an empty monitor trail with the given simulated
// force latency.
func NewMonitorTrail(forceDelay time.Duration) *MonitorTrail {
	return &MonitorTrail{forceDelay: forceDelay, bySeq: make(map[txid.ID]Outcome), nextSeq: 1}
}

// Append durably records a completion, reporting the winning outcome and
// whether this call recorded it. Re-recording the same outcome is
// idempotent; the first recorded outcome wins (a transaction never changes
// disposition once written).
func (m *MonitorTrail) Append(tx txid.ID, o Outcome) (Outcome, bool) {
	m.mu.Lock()
	if prev, ok := m.bySeq[tx]; ok {
		m.mu.Unlock()
		return prev, false
	}
	m.records = append(m.records, Completion{Seq: m.nextSeq, Tx: tx, Outcome: o})
	m.bySeq[tx] = o
	m.nextSeq++
	m.mu.Unlock()
	// The caller blocks for the force latency: the record is the commit
	// point and must be on disc before the commit call completes.
	if m.forceDelay > 0 {
		time.Sleep(m.forceDelay)
	}
	return o, true
}

// NoteRestart durably counts one more start of a TMF monitor over a trail
// that survived total node failure, and returns the count: the incarnation
// number the monitor qualifies its transids with.
func (m *MonitorTrail) NoteRestart() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.restarts++
	return m.restarts
}

// OutcomeOf returns a transaction's recorded completion, if any.
func (m *MonitorTrail) OutcomeOf(tx txid.ID) (Outcome, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.bySeq[tx]
	return o, ok
}

// Committed returns the set of committed transactions, in commit order.
func (m *MonitorTrail) Committed() []txid.ID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []txid.ID
	for _, r := range m.records {
		if r.Outcome == OutcomeCommitted {
			out = append(out, r.Tx)
		}
	}
	return out
}

// Records returns a copy of all completion records in order.
func (m *MonitorTrail) Records() []Completion {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Completion, len(m.records))
	copy(out, m.records)
	return out
}

// Len returns the number of completion records.
func (m *MonitorTrail) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.records)
}
