package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"encompass/internal/txid"
)

func tx(seq uint64) txid.ID { return txid.ID{Home: "alpha", CPU: 0, Seq: seq} }

// stateEv builds one EvState event; At is filled by the helpers below.
func stateEv(id txid.ID, node string, from, to txid.State) Event {
	return Event{Tx: id, Kind: EvState, From: from, To: to, Node: node}
}

// at stamps explicit timestamps onto a hand-built trace (CheckTrace
// requires non-decreasing At values, which Tracer.Record normally assigns).
func at(events []Event) []Event {
	for i := range events {
		events[i].At = time.Duration(i) * time.Millisecond
	}
	return events
}

func TestCheckTraceAcceptsCommitPath(t *testing.T) {
	trace := at([]Event{
		{Tx: tx(1), Kind: EvBegin, Node: "alpha"},
		stateEv(tx(1), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(1), "alpha", txid.StateActive, txid.StateEnding),
		{Tx: tx(1), Kind: EvForce, Node: "alpha", Detail: "data1"},
		{Tx: tx(1), Kind: EvOutcome, Node: "alpha", Detail: "committed"},
		stateEv(tx(1), "alpha", txid.StateEnding, txid.StateEnded),
		{Tx: tx(1), Kind: EvPhase2Release, Node: "alpha", Detail: "data1"},
	})
	if err := CheckTrace(trace); err != nil {
		t.Fatalf("legal commit trace rejected: %v", err)
	}
}

func TestCheckTraceAcceptsAbortPath(t *testing.T) {
	trace := at([]Event{
		stateEv(tx(2), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(2), "alpha", txid.StateActive, txid.StateAborting),
		{Tx: tx(2), Kind: EvBackoutScan, Node: "alpha", Detail: "audit-g"},
		{Tx: tx(2), Kind: EvUndoSend, Node: "alpha", Detail: "data1 (2 images)"},
		stateEv(tx(2), "alpha", txid.StateAborting, txid.StateAborted),
	})
	if err := CheckTrace(trace); err != nil {
		t.Fatalf("legal abort trace rejected: %v", err)
	}
}

// The acceptance-criteria case: a hand-built illegal trace (ENDED →
// ABORTING) must be rejected.
func TestCheckTraceRejectsEndedToAborting(t *testing.T) {
	trace := at([]Event{
		stateEv(tx(3), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(3), "alpha", txid.StateActive, txid.StateEnding),
		stateEv(tx(3), "alpha", txid.StateEnding, txid.StateEnded),
		stateEv(tx(3), "alpha", txid.StateEnded, txid.StateAborting),
		stateEv(tx(3), "alpha", txid.StateAborting, txid.StateAborted),
	})
	err := CheckTrace(trace)
	if err == nil {
		t.Fatal("ENDED → ABORTING trace accepted")
	}
	if !strings.Contains(err.Error(), "illegal transition") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckTraceRejectsNonTerminalEnd(t *testing.T) {
	trace := at([]Event{
		stateEv(tx(4), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(4), "alpha", txid.StateActive, txid.StateEnding),
	})
	if err := CheckTrace(trace); err == nil {
		t.Fatal("trace stuck in ENDING accepted")
	}
}

func TestCheckTraceRejectsBrokenChain(t *testing.T) {
	// Second transition's From does not match the previous To.
	trace := at([]Event{
		stateEv(tx(5), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(5), "alpha", txid.StateEnding, txid.StateEnded),
	})
	if err := CheckTrace(trace); err == nil {
		t.Fatal("non-chaining trace accepted")
	}
}

func TestCheckTraceRejectsFirstNotFromNone(t *testing.T) {
	trace := at([]Event{
		stateEv(tx(6), "alpha", txid.StateActive, txid.StateEnding),
		stateEv(tx(6), "alpha", txid.StateEnding, txid.StateEnded),
	})
	if err := CheckTrace(trace); err == nil {
		t.Fatal("trace starting mid-machine accepted")
	}
}

func TestCheckTraceRejectsMixedAndEmpty(t *testing.T) {
	if err := CheckTrace(nil); err == nil {
		t.Fatal("empty trace accepted")
	}
	mixed := at([]Event{
		stateEv(tx(7), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(8), "alpha", txid.StateNone, txid.StateActive),
	})
	if err := CheckTrace(mixed); err == nil {
		t.Fatal("trace mixing two transactions accepted")
	}
	noState := at([]Event{{Tx: tx(9), Kind: EvBegin, Node: "alpha"}})
	if err := CheckTrace(noState); err == nil {
		t.Fatal("trace with no state transitions accepted")
	}
}

func TestCheckTraceValidatesPerNode(t *testing.T) {
	// A distributed trace interleaves two nodes; each chain is legal on its
	// own node even though the interleaved From/To sequence is not.
	trace := at([]Event{
		stateEv(tx(10), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(10), "beta", txid.StateNone, txid.StateActive),
		stateEv(tx(10), "alpha", txid.StateActive, txid.StateEnding),
		stateEv(tx(10), "beta", txid.StateActive, txid.StateEnding),
		stateEv(tx(10), "beta", txid.StateEnding, txid.StateEnded),
		stateEv(tx(10), "alpha", txid.StateEnding, txid.StateEnded),
	})
	if err := CheckTrace(trace); err != nil {
		t.Fatalf("legal distributed trace rejected: %v", err)
	}
	// One node finishing non-terminal fails the whole trace.
	stuck := at([]Event{
		stateEv(tx(11), "alpha", txid.StateNone, txid.StateActive),
		stateEv(tx(11), "beta", txid.StateNone, txid.StateActive),
		stateEv(tx(11), "alpha", txid.StateActive, txid.StateEnding),
		stateEv(tx(11), "alpha", txid.StateEnding, txid.StateEnded),
	})
	if err := CheckTrace(stuck); err == nil {
		t.Fatal("distributed trace with a non-terminal node accepted")
	}
}

// TestCheckTraceVoteBindsParticipant: once a node voted yes at phase one
// it may back out only on an imposed abort; a node that has not voted, and
// the home, may still abort on their own.
func TestCheckTraceVoteBindsParticipant(t *testing.T) {
	abort := func(node, detail string) []Event {
		ev := stateEv(tx(13), node, txid.StateEnding, txid.StateAborting)
		ev.Detail = detail
		return []Event{ev, stateEv(tx(13), node, txid.StateAborting, txid.StateAborted)}
	}
	vote := []Event{{Tx: tx(13), Kind: EvVote, Node: "beta"}}
	for _, tc := range []struct {
		name  string
		steps [][]Event
		legal bool
	}{
		{"imposed after the vote", [][]Event{vote, abort("alpha", "unilateral: phase one failed"), abort("beta", "imposed: aborted by home node")}, true},
		{"unilateral before the vote", [][]Event{abort("beta", "unilateral: lost communication with source alpha"), abort("alpha", "unilateral: phase one failed")}, true},
		{"unilateral after the vote", [][]Event{vote, abort("beta", "unilateral: lost communication with source alpha"), abort("alpha", "unilateral: lost communication with participant beta")}, false},
		{"no cause after the vote", [][]Event{vote, abort("beta", ""), abort("alpha", "unilateral: phase one failed")}, false},
	} {
		trace := []Event{
			stateEv(tx(13), "alpha", txid.StateNone, txid.StateActive),
			stateEv(tx(13), "beta", txid.StateNone, txid.StateActive),
			stateEv(tx(13), "alpha", txid.StateActive, txid.StateEnding),
			stateEv(tx(13), "beta", txid.StateActive, txid.StateEnding),
		}
		for _, s := range tc.steps {
			trace = append(trace, s...)
		}
		err := CheckTrace(at(trace))
		if tc.legal && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.legal && (err == nil || !strings.Contains(err.Error(), "voted yes")) {
			t.Errorf("%s: got %v, want a voted-yes violation", tc.name, err)
		}
	}
}

func TestCheckTraceRejectsBackwardsTime(t *testing.T) {
	trace := []Event{
		{Tx: tx(12), Kind: EvState, From: txid.StateNone, To: txid.StateActive, Node: "alpha", At: 2 * time.Millisecond},
		{Tx: tx(12), Kind: EvState, From: txid.StateActive, To: txid.StateAborting, Node: "alpha", At: time.Millisecond},
		{Tx: tx(12), Kind: EvState, From: txid.StateAborting, To: txid.StateAborted, Node: "alpha", At: 3 * time.Millisecond},
	}
	if err := CheckTrace(trace); err == nil {
		t.Fatal("trace with backwards timestamps accepted")
	}
}

func TestStateMachineChecker(t *testing.T) {
	c := NewStateMachineChecker()
	if err := c.Observe("alpha", tx(1), txid.StateActive, txid.StateEnding); err != nil {
		t.Fatalf("legal transition flagged: %v", err)
	}
	if err := c.Observe("alpha", tx(1), txid.StateEnded, txid.StateAborting); err == nil {
		t.Fatal("illegal transition not flagged")
	}
	vs := c.Violations()
	if len(vs) != 1 || vs[0].From != txid.StateEnded || vs[0].To != txid.StateAborting {
		t.Fatalf("violations = %v, want one ENDED→ABORTING", vs)
	}
	if !strings.Contains(vs[0].String(), "illegal transition") {
		t.Fatalf("violation string: %q", vs[0])
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Record(Event{Tx: tx(1)})
	if tr.Trace(tx(1)) != nil || tr.Transactions() != nil || tr.Evicted() != 0 {
		t.Fatal("nil tracer not inert")
	}
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter not inert")
	}
	var g *Gauge
	g.Add(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram not inert")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.CounterNames() != nil {
		t.Fatal("nil registry handed out live handles")
	}
	var ck *StateMachineChecker
	if err := ck.Observe("n", tx(1), txid.StateEnded, txid.StateAborting); err != nil {
		t.Fatal("nil checker flagged a transition")
	}
}

func TestTracerRecordsAndEvicts(t *testing.T) {
	tr := NewTracer(2)
	tr.Record(Event{Tx: tx(1), Kind: EvBegin, Node: "alpha"})
	tr.Record(Event{Tx: tx(1), Kind: EvState, From: txid.StateNone, To: txid.StateActive, Node: "alpha"})
	tr.Record(Event{Tx: tx(2), Kind: EvBegin, Node: "alpha"})
	if got := len(tr.Trace(tx(1))); got != 2 {
		t.Fatalf("trace len = %d, want 2", got)
	}
	// Timestamps must be non-decreasing in record order.
	evs := tr.Trace(tx(1))
	if evs[1].At < evs[0].At {
		t.Fatalf("timestamps decreased: %v then %v", evs[0].At, evs[1].At)
	}
	// Third distinct transaction evicts the oldest (tx 1).
	tr.Record(Event{Tx: tx(3), Kind: EvBegin, Node: "alpha"})
	if tr.Trace(tx(1)) != nil {
		t.Fatal("oldest trace not evicted at capacity")
	}
	if tr.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", tr.Evicted())
	}
	ids := tr.Transactions()
	if len(ids) != 2 || ids[0] != tx(2) || ids[1] != tx(3) {
		t.Fatalf("transactions = %v", ids)
	}
	if !strings.Contains(tr.Dump(tx(2)), "begin") {
		t.Fatalf("dump missing begin event:\n%s", tr.Dump(tx(2)))
	}
	if !strings.Contains(tr.Dump(tx(99)), "no events") {
		t.Fatal("dump of unknown tx should say so")
	}
}

// within16 reports whether got overestimates want by at most 1/16, the
// histogram's stated quantile error.
func within16(got, want time.Duration) bool {
	return got >= want && got-want <= want/16
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Observe(d)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); !within16(q, 2*time.Millisecond) {
		t.Errorf("p50 of {1,2,3ms} = %v, want within 1/16 of 2ms (nearest rank rounds up)", q)
	}
	h.Observe(-time.Second) // clamped to zero
	s = h.Snapshot()
	if s.Count != 4 || s.Sum != 6*time.Millisecond || s.Min != 0 || s.Max != 3*time.Millisecond {
		t.Errorf("count/sum/min/max = %d/%v/%v/%v, want 4/6ms/0/3ms", s.Count, s.Sum, s.Min, s.Max)
	}
	if q := s.Quantile(1.0); q != s.Max {
		t.Errorf("p100 = %v, want the max %v", q, s.Max)
	}
	if !strings.Contains(s.Summary(), "n=4") || !strings.Contains(s.String(), "#") {
		t.Errorf("rendering:\n%s", s.String())
	}

	// A constant stream reads back as itself, not as a bucket edge.
	c := NewHistogram()
	for i := 0; i < 1000; i++ {
		c.Observe(300 * time.Microsecond)
	}
	cs := c.Snapshot()
	for _, q := range []float64{0.5, 0.99} {
		if got := cs.Quantile(q); !within16(got, 300*time.Microsecond) {
			t.Errorf("constant 300µs: q%.2f = %v", q, got)
		}
	}
	if cs.Min != 300*time.Microsecond || cs.Max != cs.Min || len(cs.Buckets) != 1 {
		t.Errorf("constant 300µs: min %v max %v buckets %v", cs.Min, cs.Max, cs.Buckets)
	}

	empty := NewHistogram().Snapshot()
	if empty.Summary() != "n=0" || empty.String() != "n=0" || empty.Mean() != 0 || empty.Quantile(0.9) != 0 || empty.Min != 0 {
		t.Error("empty histogram rendering wrong")
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); n != 0 {
		t.Errorf("Observe allocates %.0f times", n)
	}
}

// TestHistogramRelativeError checks every quantile of a seeded log-uniform
// sample from 100ns to 10s against the sorted sample itself, and that the
// rendered table has at most one row per power of two.
func TestHistogramRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	h := NewHistogram()
	sample := make([]time.Duration, 20000)
	var sum time.Duration
	for i := range sample {
		sample[i] = time.Duration(100 * math.Pow(1e8, rng.Float64()))
		sum += sample[i]
		h.Observe(sample[i])
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i] < sample[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(sample)) || s.Sum != sum || s.Min != sample[0] || s.Max != sample[len(sample)-1] {
		t.Errorf("count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
			s.Count, s.Sum, s.Min, s.Max, len(sample), sum, sample[0], sample[len(sample)-1])
	}
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1} {
		want := sample[int(math.Ceil(q*float64(len(sample))))-1]
		if got := s.Quantile(q); !within16(got, want) {
			t.Errorf("q%v = %v, exact %v: off by more than 1/16", q, got, want)
		}
	}
	for i, b := range s.Buckets {
		if b.N == 0 || b.Hi < b.Lo || b.Hi-b.Lo > b.Lo/16 || (i > 0 && b.Lo <= s.Buckets[i-1].Hi) {
			t.Fatalf("bucket %d = %+v (previous %+v)", i, b, s.Buckets[max(i-1, 0)])
		}
	}
	// 100ns..10s spans 27 powers of two.
	if rows := strings.Count(s.String(), "\n"); rows > 28 {
		t.Errorf("%d table rows for 27 powers of two:\n%s", rows, s.String())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter(MBegun).Add(3)
	if r.Counter(MBegun).Value() != 3 {
		t.Fatal("counter handle not stable")
	}
	r.Histogram(MPhaseOne).Observe(time.Millisecond)
	if got := r.Histogram(MPhaseOne).Snapshot().Count; got != 1 {
		t.Fatalf("histogram count = %d", got)
	}
	r.Gauge(MPhase2Outstanding).Add(2)
	r.Gauge(MPhase2Outstanding).Add(-1)
	if got := r.Gauge(MPhase2Outstanding).Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	names := r.CounterNames()
	if len(names) != 1 || names[0] != MBegun {
		t.Fatalf("counter names = %v", names)
	}
	out := r.String()
	if !strings.Contains(out, MBegun) || !strings.Contains(out, MPhase2Outstanding+"       1") || !strings.Contains(out, MPhaseOne) {
		t.Fatalf("registry render missing metrics:\n%s", out)
	}
}

// The tracer and registry are written from protocol goroutines and read by
// tests concurrently; exercise that under -race.
func TestConcurrentUse(t *testing.T) {
	tr := NewTracer(8)
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				id := tx(uint64(g*1000 + i))
				tr.Record(Event{Tx: id, Kind: EvBegin, Node: "alpha"})
				c.Inc()
				h.Observe(time.Duration(i) * time.Microsecond)
				_ = tr.Trace(id)
				_ = h.Snapshot()
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Value() != 800 || h.Snapshot().Count != 800 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Snapshot().Count)
	}
}
