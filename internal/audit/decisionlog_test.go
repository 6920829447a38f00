package audit

import (
	"strings"
	"testing"

	"encompass/internal/txid"
)

func decisionFixture() []DecisionRecord {
	tx := txid.ID{Home: "alpha", CPU: 2, Seq: 7}
	return []DecisionRecord{
		{Tx: tx, Kind: DecisionJoin, Instance: "alpha"},
		{Tx: tx, Kind: DecisionJoin, Instance: "beta"},
		{Tx: tx, Kind: DecisionPromise, Instance: "beta", Ballot: 257},
		{Tx: tx, Kind: DecisionAccept, Instance: "beta", Ballot: 257, Value: 1},
		{Tx: tx, Kind: DecisionOutcome, Value: 2},
	}
}

func TestDecisionLogAppendAndVerify(t *testing.T) {
	l := NewDecisionLog("test.decisions", 0)
	for i, r := range decisionFixture() {
		if lsn := l.Append(r); lsn != uint64(i)+1 {
			t.Fatalf("record %d assigned LSN %d", i, lsn)
		}
	}
	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	recs := l.Records()
	for i, want := range decisionFixture() {
		want.LSN = uint64(i) + 1
		if recs[i] != want {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want)
		}
	}
	n, err := l.VerifyChain()
	if err != nil || n != 5 {
		t.Fatalf("VerifyChain = %d, %v", n, err)
	}
}

func TestDecisionLogCorruptionDetected(t *testing.T) {
	l := NewDecisionLog("test.decisions", 0)
	for _, r := range decisionFixture() {
		l.Append(r)
	}
	if l.Corrupt(99) {
		t.Error("Corrupt of a missing LSN reported success")
	}
	if !l.Corrupt(3) {
		t.Fatal("Corrupt(3) failed")
	}
	n, err := l.VerifyChain()
	if err == nil {
		t.Fatal("VerifyChain accepted a corrupted record")
	}
	if n != 2 {
		t.Errorf("verified %d records before the corruption, want 2", n)
	}
}

func TestDecisionRecordRoundTrip(t *testing.T) {
	// Exercise the codec directly, including empty strings and extreme
	// field values.
	cases := []DecisionRecord{
		{LSN: 1, Kind: DecisionJoin},
		{LSN: 2, Tx: txid.ID{Home: "a-long-node-name", CPU: 15, Seq: 1 << 60}, Kind: DecisionAccept, Instance: "x", Ballot: ^uint64(0), Value: 255},
	}
	for i, r := range cases {
		body := appendDecisionBody(nil, &r)
		got, err := decodeDecisionBody(body)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		got.LSN = r.LSN // LSN lives in the frame, not the body
		if got != r {
			t.Errorf("case %d: round trip %+v -> %+v", i, r, got)
		}
	}
	if _, err := decodeDecisionBody(nil); err == nil {
		t.Error("empty body decoded without error")
	}
}

func TestDecisionKindStrings(t *testing.T) {
	for k, want := range map[DecisionKind]string{
		DecisionJoin: "join", DecisionPromise: "promise", DecisionAccept: "accept",
		DecisionOutcome: "outcome",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if s := DecisionKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind string = %q", s)
	}
}
