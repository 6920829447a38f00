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
// Only a commit record, the commit point, is forced, and a force makes all
// earlier records durable. A crash may lose the aborts after it: recovery
// presumes abort without a commit record.
type MonitorTrail struct {
	forceDelay time.Duration

	mu       sync.Mutex
	records  []Completion        // guarded by mu
	forced   int                 // guarded by mu; records[:forced] are durable
	bySeq    map[txid.ID]Outcome // guarded by mu
	nextSeq  uint64              // guarded by mu
	restarts uint64              // guarded by mu
}

// NewMonitorTrail creates an empty monitor trail with the given simulated
// force latency.
func NewMonitorTrail(forceDelay time.Duration) *MonitorTrail {
	return &MonitorTrail{forceDelay: forceDelay, bySeq: make(map[txid.ID]Outcome), nextSeq: 1}
}

// Append records a completion, reporting the winning outcome and whether
// this call recorded it: the first recorded outcome wins.
func (m *MonitorTrail) Append(tx txid.ID, o Outcome) (Outcome, bool) {
	m.mu.Lock()
	if prev, ok := m.bySeq[tx]; ok {
		m.mu.Unlock()
		return prev, false
	}
	m.records = append(m.records, Completion{Seq: m.nextSeq, Tx: tx, Outcome: o})
	m.bySeq[tx] = o
	m.nextSeq++
	if o != OutcomeCommitted {
		m.mu.Unlock()
		return o, true
	}
	m.forced = len(m.records)
	m.mu.Unlock()
	if m.forceDelay > 0 {
		time.Sleep(m.forceDelay)
	}
	return o, true
}

// CrashLoseUnforced simulates total node failure: the records appended
// after the last force, all of them aborts, are lost. It returns how many.
func (m *MonitorTrail) CrashLoseUnforced() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	lost := m.records[m.forced:]
	for _, c := range lost {
		delete(m.bySeq, c.Tx)
	}
	m.nextSeq -= uint64(len(lost))
	m.records = m.records[:m.forced]
	return len(lost)
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
