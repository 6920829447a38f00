package tmf

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"encompass/internal/obs"
	"encompass/internal/txid"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_traces.txt from this run")

// TestGoldenProtocolTraces pins, for six small shapes, every node's
// sequence of trace events: kind, from → to and detail, without the
// durations and offsets that vary from run to run. A change to the order
// in which the protocol broadcasts, forces, sends or records shows here
// as a diff of testdata/golden_traces.txt; `go test ./internal/tmf -run
// GoldenProtocolTraces -update` rewrites it after an intended change.
func TestGoldenProtocolTraces(t *testing.T) {
	shapes := []struct {
		name  string
		proto string
		nodes []string
		run   func(t *testing.T, nodes map[string]*testNode, tx txid.ID)
	}{
		{"single-node commit", "", []string{"a"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			nodes["a"].insert(t, "a", tx, "k", "v")
			mustNil(t, nodes["a"].mon.End(tx))
		}},
		{"single-node abort", "", []string{"a"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			nodes["a"].insert(t, "a", tx, "k", "v")
			mustNil(t, nodes["a"].mon.Abort(tx, "test"))
		}},
		{"two-node commit", "", []string{"a", "b"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			a := nodes["a"]
			mustNil(t, a.mon.NoteRemoteSend(tx, "b"))
			a.insert(t, "a", tx, "k", "v")
			a.insert(t, "b", tx, "k", "v")
			mustNil(t, a.mon.End(tx))
		}},
		{"two-node abort", "", []string{"a", "b"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			a := nodes["a"]
			mustNil(t, a.mon.NoteRemoteSend(tx, "b"))
			a.insert(t, "a", tx, "k", "v")
			a.insert(t, "b", tx, "k", "v")
			mustNil(t, a.mon.Abort(tx, "test"))
		}},
		{"three-node chain commit", "", []string{"a", "b", "c"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			a := nodes["a"]
			mustNil(t, a.mon.NoteRemoteSend(tx, "b"))
			mustNil(t, nodes["b"].mon.NoteRemoteSend(tx, "c"))
			for _, n := range []string{"a", "b", "c"} {
				a.insert(t, n, tx, "k", "v")
			}
			mustNil(t, a.mon.End(tx))
		}},
		{"two-node paxos commit", ProtoPaxos, []string{"a", "b"}, func(t *testing.T, nodes map[string]*testNode, tx txid.ID) {
			a := nodes["a"]
			mustNil(t, a.mon.NoteRemoteSend(tx, "b"))
			a.insert(t, "a", tx, "k", "v")
			a.insert(t, "b", tx, "k", "v")
			mustNil(t, a.mon.End(tx))
		}},
	}
	var got strings.Builder
	for _, s := range shapes {
		nodes, _ := testClusterProto(t, s.proto, s.nodes...)
		for _, n := range nodes {
			n.mon.tracer = obs.NewTracer(16) // the cluster is idle: nothing reads the field yet
		}
		tx, err := nodes["a"].mon.Begin(0)
		mustNil(t, err)
		s.run(t, nodes, tx)
		for _, name := range s.nodes {
			nodes[name].drain(t)
		}
		for _, name := range s.nodes {
			fmt.Fprintf(&got, "== %s: %s\n", s.name, name)
			for _, ev := range nodes[name].mon.Tracer().Trace(tx) {
				got.WriteString(goldenLine(ev))
			}
		}
	}
	path := filepath.Join("testdata", "golden_traces.txt")
	if *updateGolden {
		mustNil(t, os.MkdirAll("testdata", 0o755))
		mustNil(t, os.WriteFile(path, []byte(got.String()), 0o644))
	}
	want, err := os.ReadFile(path)
	mustNil(t, err)
	if got.String() != string(want) {
		t.Errorf("protocol traces differ from %s\n--- got\n%s--- want\n%s", path, got.String(), want)
	}
}

// goldenLine renders the run-independent part of one event.
func goldenLine(ev obs.Event) string {
	s := ev.Kind.String()
	if ev.Kind == obs.EvState {
		s += fmt.Sprintf(" %s → %s", ev.From, ev.To)
	}
	if ev.Detail != "" {
		s += " " + ev.Detail
	}
	if ev.Err != "" {
		s += " err"
	}
	return s + "\n"
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
