package audit

import (
	"fmt"
	"sync"
	"time"

	"encompass/internal/txid"
)

// DecisionKind classifies the records of a DecisionLog: the durable
// disposition-protocol history a Paxos Commit acceptor must survive a
// processor reload with. The kinds mirror the protocol messages: an
// instance joining the transaction's participant set, an acceptor's
// ballot promise (1b), an accepted ballot/value (2b) and the final
// disposition.
type DecisionKind uint8

// The decision-log record kinds.
const (
	DecisionJoin DecisionKind = iota + 1
	DecisionPromise
	DecisionAccept
	DecisionOutcome
)

// String names the kind for logs and the tmfctl disposition view.
func (k DecisionKind) String() string {
	switch k {
	case DecisionJoin:
		return "join"
	case DecisionPromise:
		return "promise"
	case DecisionAccept:
		return "accept"
	case DecisionOutcome:
		return "outcome"
	default:
		return fmt.Sprintf("decision(%d)", int(k))
	}
}

// DecisionRecord is one appended protocol fact. Value carries an Outcome
// for DecisionOutcome records and a vote value (the paxoscommit package's
// vote encoding) for DecisionAccept records; Ballot is meaningful for
// Promise and Accept.
type DecisionRecord struct {
	LSN      uint64
	Tx       txid.ID
	Kind     DecisionKind
	Instance string
	Ballot   uint64
	Value    uint8
}

// DecisionLog is an append-only, hash-chained, checksummed log of
// DecisionRecords, framed by the audit trail's own record codec (u32
// length | u64 LSN | body | SHA-256 chain | CRC-32C; openFrame,
// closeFrame and readFrame), so the acceptor's durable state carries the
// integrity properties the trail format established: a reload replays
// only records whose CRC and chain verify, and VerifyChain can audit the
// whole history at any time.
type DecisionLog struct {
	name       string
	forceDelay time.Duration

	mu     sync.Mutex
	buf    []byte           // guarded by mu
	starts []int            // guarded by mu; byte offset of each framed record in buf
	recs   []DecisionRecord // guarded by mu
	chain  [chainLen]byte   // guarded by mu
}

// NewDecisionLog creates an empty log. forceDelay simulates the disc
// force each append pays before it is acknowledged (an acceptor must not
// ack a promise or an accept it could forget).
func NewDecisionLog(name string, forceDelay time.Duration) *DecisionLog {
	return &DecisionLog{name: name, forceDelay: forceDelay}
}

// Name returns the log's name.
func (l *DecisionLog) Name() string { return l.name }

// appendDecisionBody appends the record fields after the framed LSN to b.
func appendDecisionBody(b []byte, r *DecisionRecord) []byte {
	b = append(b, byte(r.Kind))
	b = putStr(b, r.Tx.Home)
	b = putU32(b, uint32(r.Tx.CPU))
	b = putU64(b, r.Tx.Seq)
	b = putStr(b, r.Instance)
	b = putU64(b, r.Ballot)
	return append(b, r.Value)
}

// decodeDecisionBody parses what appendDecisionBody produced.
func decodeDecisionBody(b []byte) (DecisionRecord, error) {
	var r DecisionRecord
	if len(b) < 1 {
		return r, fmt.Errorf("audit: decision record: empty body")
	}
	r.Kind = DecisionKind(b[0])
	br := &blobReader{b: b, off: 1}
	r.Tx.Home = br.str(nil)
	r.Tx.CPU = int(br.u32())
	r.Tx.Seq = br.u64()
	r.Instance = br.str(nil)
	r.Ballot = br.u64()
	if br.err == nil && br.off+1 > len(b) {
		br.fail("short value byte")
	}
	if br.err != nil {
		return r, br.err
	}
	r.Value = b[br.off]
	return r, nil
}

// Append assigns the next LSN, frames the record onto the chained log,
// pays the simulated force, and returns the LSN. The record is durable
// (for the simulation's purposes) when Append returns — callers ack
// protocol messages only after it does.
func (l *DecisionLog) Append(r DecisionRecord) uint64 {
	l.mu.Lock()
	r.LSN = uint64(len(l.recs)) + 1
	buf, start := openFrame(l.buf, r.LSN)
	l.starts = append(l.starts, start)
	l.buf, l.chain = closeFrame(appendDecisionBody(buf, &r), start, l.chain)
	l.recs = append(l.recs, r)
	delay := l.forceDelay
	l.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return r.LSN
}

// Records returns a copy of the log's records in LSN order — the replay
// input for an acceptor reloading after its processor failed.
func (l *DecisionLog) Records() []DecisionRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]DecisionRecord(nil), l.recs...)
}

// Len reports the number of appended records.
func (l *DecisionLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// VerifyChain re-decodes every framed record, checking CRC, hash-chain
// continuity and LSN sequence, and compares the decoded records against
// the in-memory view. It returns the number of verified records.
func (l *DecisionLog) VerifyChain() (int, error) {
	l.mu.Lock()
	buf := append([]byte(nil), l.buf...)
	want := append([]DecisionRecord(nil), l.recs...)
	l.mu.Unlock()

	var prev [chainLen]byte
	off := 0
	for i := range want {
		lsn, body, chain, n, err := readFrame(buf[off:], prev, uint64(i)+1)
		var rec DecisionRecord
		if err == nil {
			rec, err = decodeDecisionBody(body)
		}
		if err != nil {
			return i, fmt.Errorf("%s: record %d: %w", l.name, i+1, err)
		}
		if rec.LSN = lsn; rec != want[i] {
			return i, fmt.Errorf("%s: record %d decoded %+v, memory holds %+v", l.name, i+1, rec, want[i])
		}
		prev, off = chain, off+n
	}
	if off != len(buf) {
		return len(want), fmt.Errorf("%s: %d trailing bytes after last record", l.name, len(buf)-off)
	}
	return len(want), nil
}

// Corrupt flips one bit in the body of the record holding the given LSN,
// for integrity-check tests. It reports whether the LSN exists.
func (l *DecisionLog) Corrupt(lsn uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(lsn) - 1
	if i < 0 || i >= len(l.starts) {
		return false
	}
	l.buf[l.starts[i]+4+8] ^= 0x40 // first body byte, past length prefix and LSN
	return true
}
