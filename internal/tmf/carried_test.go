package tmf

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/discproc"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// callDisc sends one record request of tx from this node to destNode's
// DISCPROCESS through Monitor.Call, waiting up to d.
func (tn *testNode) callDisc(destNode, kind string, req *discproc.RecReq, d time.Duration) (msg.Message, error) {
	return tn.mon.Call(3, req.Tx, msg.Addr{Node: destNode, Name: "disc"}, kind, req, d)
}

// children is tx's child set on this node.
func (tn *testNode) children(t *testing.T, tx txid.ID) []string {
	t.Helper()
	tn.mon.mu.Lock()
	tb, ok := tn.mon.txs[tx]
	tn.mon.mu.Unlock()
	if !ok {
		t.Fatalf("%s does not know %s", tn.name, tx)
	}
	return tn.mon.childrenOf(tb)
}

// begins counts the remote begins this node's monitor sent for tx to
// destNode, as its tracer saw them.
func (tn *testNode) begins(tx txid.ID, destNode string) int {
	n := 0
	for _, ev := range tn.mon.tracer.Trace(tx) {
		if ev.Kind == obs.EvChildRequest && ev.Detail == destNode+" "+kindRemoteBegin {
			n++
		}
	}
	return n
}

// spawnProbe registers a stand-in server under name on tn that hands
// every request it gets to serve and answers with serve's error.
func (tn *testNode) spawnProbe(t *testing.T, name string, serve func(msg.Message) error) {
	t.Helper()
	if _, err := tn.sys.Spawn(2, name, func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if err := serve(m); err != nil {
				p.ReplyErr(m, err)
			} else {
				p.Reply(m, nil)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFirstRequestRidesTheBegin: the first request of a transaction to a
// node costs one round trip, the begin and the request in one, and makes
// the node a child; the next request there goes directly.
func TestFirstRequestRidesTheBegin(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	a.mon.tracer = obs.NewTracer(64)
	tx, _ := a.mon.Begin(0)
	for i, key := range []string{"k1", "k2"} {
		f0 := net.Stats().Frames
		if _, err := a.callDisc("b", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: key, Val: []byte("v")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if frames := net.Stats().Frames - f0; frames != 2 {
			t.Errorf("request %d took %d frames, want one round trip (2)", i, frames)
		}
	}
	if got := a.begins(tx, "b"); got != 1 {
		t.Errorf("%d remote begins sent to b, want 1", got)
	}
	if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
		t.Errorf("children of a = %v, want [b]", got)
	}
	if st := b.mon.State(tx); st != txid.StateActive {
		t.Errorf("state on b = %v, want active", st)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	if o, ok := b.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
		t.Errorf("outcome on b = %v, %v", o, ok)
	}
}

// TestCarriedBeginNonTree: a transmits tx to b, b to c, then a to c. c
// already has tx from b and answers "already known", so a's request goes
// to c directly and is still served, c does not become a's child, and the
// commit stays Figure-3 clean on every node.
func TestCarriedBeginNonTree(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b", "c")
	a, b, c := nodes["a"], nodes["b"], nodes["c"]
	tx, _ := a.mon.Begin(0)
	for _, step := range []struct {
		from *testNode
		to   string
		key  string
	}{{a, "b", "kb"}, {b, "c", "kc1"}, {a, "c", "kc2"}} {
		if _, err := step.from.callDisc(step.to, discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: step.key, Val: []byte("v")}, 5*time.Second); err != nil {
			t.Fatalf("%s→%s: %v", step.from.name, step.to, err)
		}
	}
	if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
		t.Errorf("children of a = %v, want [b]", got)
	}
	if got := b.children(t, tx); !slices.Equal(got, []string{"c"}) {
		t.Errorf("children of b = %v, want [c]", got)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	b.drain(t)
	for _, n := range []*testNode{a, b, c} {
		if o, ok := n.mon.Outcome(tx); !ok || o != audit.OutcomeCommitted {
			t.Errorf("outcome on %s = %v, %v", n.name, o, ok)
		}
		if v := n.mon.Checker().Violations(); len(v) != 0 {
			t.Errorf("Figure-3 violations on %s: %v", n.name, v)
		}
	}
	for _, key := range []string{"kc1", "kc2"} {
		if v, err := c.read(t, "c", key); err != nil || v != "v" {
			t.Errorf("c %s = %q, %v after commit", key, v, err)
		}
	}
}

// TestCarriedBeginLostAnswer: the answer to a's first request to b is
// lost — the request waits on a lock past the caller's timeout, and the
// message system drops the late reply. a settles b's membership with a
// begin that carries nothing, so when the request later takes its lock,
// a's abort still reaches b and releases it. If the settling begin fails
// too (the line is down), a counts b a child all the same.
func TestCarriedBeginLostAnswer(t *testing.T) {
	for _, cut := range []bool{false, true} {
		name := "settled"
		if cut {
			name = "line down"
		}
		t.Run(name, func(t *testing.T) {
			nodes, net := testCluster(t, "a", "b")
			a, b := nodes["a"], nodes["b"]
			seed, _ := b.mon.Begin(0)
			b.insert(t, "b", seed, "k", "orig")
			if err := b.mon.End(seed); err != nil {
				t.Fatal(err)
			}
			holder, _ := b.mon.Begin(1)
			if _, err := b.lockedRead(t, "b", holder, "k"); err != nil {
				t.Fatal(err)
			}

			tx, _ := a.mon.Begin(0)
			done := make(chan error, 1)
			go func() {
				_, err := a.callDisc("b", discproc.KindRead, &discproc.RecReq{Tx: tx, File: "data", Key: "k", WithLock: true, LockTimeout: 5 * time.Second}, 300*time.Millisecond)
				done <- err
			}()
			waitFor(t, func() bool { return b.mon.State(tx) == txid.StateActive })
			if cut {
				net.FailLink("a", "b")
			}
			if err := <-done; !errors.Is(err, msg.ErrCallTimeout) {
				t.Fatalf("request = %v, want a timeout", err)
			}
			if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
				t.Fatalf("children of a after the lost answer = %v, want [b]", got)
			}
			if cut {
				net.HealLink("a", "b")
			}
			// The holder lets go; the request b still has takes the lock.
			if err := b.mon.Abort(holder, "release"); err != nil {
				t.Fatal(err)
			}
			if err := a.mon.Abort(tx, "lost answer"); err != nil && !cut {
				t.Fatal(err)
			}
			a.drain(t)
			waitFor(t, func() bool { return b.mon.State(tx).Terminal() })
			probe, _ := b.mon.Begin(2)
			if _, err := b.lockedRead(t, "b", probe, "k"); err != nil {
				t.Errorf("lock on b after a's abort: %v", err)
			}
			b.mon.Abort(probe, "cleanup")
		})
	}
}

// TestCarriedBeginUnregisteredTarget: during a takeover window the
// carried request's server is not registered. The caller gets the error a
// direct call gets — so the File System retries it, or not, the same way
// — the begin still made the node a child, and the next call there
// carries no begin.
func TestCarriedBeginUnregisteredTarget(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	a.mon.tracer = obs.NewTracer(64)
	to := msg.Addr{Node: "b", Name: "late"}
	_, direct := a.sys.CallTimeout(3, to, "probe", nil, 2*time.Second)
	tx, _ := a.mon.Begin(0)
	_, carried := a.mon.Call(3, tx, to, "probe", nil, 2*time.Second)
	if direct == nil || carried == nil || carried.Error() != direct.Error() {
		t.Fatalf("carried call error %v, direct call error %v: want the same error", carried, direct)
	}
	if errors.Is(carried, msg.ErrNoSuchName) != errors.Is(direct, msg.ErrNoSuchName) ||
		errors.Is(carried, msg.ErrCallTimeout) != errors.Is(direct, msg.ErrCallTimeout) {
		t.Errorf("carried error %v classifies differently from direct %v", carried, direct)
	}
	if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
		t.Errorf("children of a = %v, want [b]", got)
	}
	b.spawnProbe(t, "late", func(msg.Message) error { return nil })
	if _, err := a.mon.Call(3, tx, to, "probe", nil, 2*time.Second); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := a.begins(tx, "b"); got != 1 {
		t.Errorf("%d remote begins sent to b, want 1: the retry must go directly", got)
	}
	a.mon.Abort(tx, "cleanup")
}

// TestCarriedBeginForResolvedTxIsNotForwarded: a begin for a transaction
// this node has already resolved and forgotten is answered "already
// known"; the request it carries never reaches its server.
func TestCarriedBeginForResolvedTxIsNotForwarded(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	if _, err := a.callDisc("b", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k", Val: []byte("v")}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	b.mon.Forget(tx)
	served := make(chan msg.Message, 1)
	b.spawnProbe(t, "probe", func(m msg.Message) error { served <- m; return nil })
	r, err := a.sys.CallTimeout(3, msg.Addr{Node: "b", Name: tmpName}, kindRemoteBegin,
		tmpReq{Tx: tx, Source: "a", To: "probe", Kind: "probe"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if br, ok := r.Payload.(beginResp); !ok || !br.AlreadyKnown {
		t.Fatalf("answer = %#v, want already known", r.Payload)
	}
	select {
	case m := <-served:
		t.Fatalf("the request for resolved %s reached its server: %+v", tx, m)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCarriedBeginJoinsFirstUnderPaxos: under Paxos Commit the acceptor
// Join of the destination is durable before the request reaches it: the
// server finds it in a majority of the home node's decision logs.
func TestCarriedBeginJoinsFirstUnderPaxos(t *testing.T) {
	nodes, _ := testClusterProto(t, ProtoPaxos, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	b.spawnProbe(t, "probe", func(msg.Message) error {
		logs := a.mon.AcceptorLogs()
		joined := 0
		for _, l := range logs {
			if slices.ContainsFunc(l.Records(), func(r audit.DecisionRecord) bool {
				return r.Tx == tx && r.Kind == audit.DecisionJoin && r.Instance == "b"
			}) {
				joined++
			}
		}
		if joined <= len(logs)/2 {
			return errors.New("request arrived before b joined at a majority of acceptors")
		}
		return nil
	})
	if _, err := a.mon.Call(3, tx, msg.Addr{Node: "b", Name: "probe"}, "probe", nil, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
		t.Errorf("children of a = %v, want [b]", got)
	}
	a.mon.Abort(tx, "cleanup")
}

// TestNoBeginToHome: a request from a child node to the transaction's
// home costs one round trip and changes no child set: the home would
// answer a begin "already known".
func TestNoBeginToHome(t *testing.T) {
	nodes, net := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	b.mon.tracer = obs.NewTracer(64)
	tx, _ := a.mon.Begin(0)
	if _, err := a.callDisc("b", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "kb", Val: []byte("v")}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	f0 := net.Stats().Frames
	if _, err := b.callDisc("a", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "ka", Val: []byte("v")}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if frames := net.Stats().Frames - f0; frames != 2 {
		t.Errorf("b's request to home a took %d frames, want 2", frames)
	}
	if got := b.begins(tx, "a"); got != 0 {
		t.Errorf("b sent %d remote begins to the home", got)
	}
	if got := b.children(t, tx); len(got) != 0 {
		t.Errorf("children of b = %v, want none", got)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
}

// twoNodeCommitAllocs is what an untraced two-node commit costs, all
// goroutines of both nodes counted: the insert on b that carries the
// remote begin, End with its phase one to b, and the ENDED delivery
// (measured: 56.3-57.6 over twelve runs of 200). Building the trace
// detail of its three TMP calls without a tracer costs 6 more.
const twoNodeCommitAllocs = 57

// TestTwoNodeCommitAllocs pins twoNodeCommitAllocs: with no tracer, a TMP
// call builds no trace event detail.
func TestTwoNodeCommitAllocs(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	commit := func(i int) {
		tx, err := a.mon.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.callDisc("b", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: fmt.Sprintf("k%d", i), Val: []byte("v")}, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := a.mon.End(tx); err != nil {
			t.Fatal(err)
		}
		a.drain(t)
		a.mon.Forget(tx)
		b.mon.Forget(tx)
	}
	for i := 0; i < 50; i++ {
		commit(i)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		commit(100 + i)
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("two-node commit = %.2f allocs", per)
	if !raceEnabled && per > twoNodeCommitAllocs+1.5 {
		t.Errorf("two-node commit = %.1f allocs, want %d", per, twoNodeCommitAllocs)
	}
}

// TestConcurrentFirstRequests: several requests of one transaction reach a
// new node at once, each carrying a begin. Every one is served, the node
// becomes a child once, and the transaction commits there.
func TestConcurrentFirstRequests(t *testing.T) {
	nodes, _ := testCluster(t, "a", "b")
	a, b := nodes["a"], nodes["b"]
	tx, _ := a.mon.Begin(0)
	const n = 8
	errs := make(chan error, n)
	for i := range n {
		go func() {
			_, err := a.callDisc("b", discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: fmt.Sprintf("k%d", i), Val: []byte("v")}, 5*time.Second)
			errs <- err
		}()
	}
	for range n {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := a.children(t, tx); !slices.Equal(got, []string{"b"}) {
		t.Errorf("children of a = %v, want [b]", got)
	}
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	a.drain(t)
	for i := range n {
		if v, err := b.read(t, "b", fmt.Sprintf("k%d", i)); err != nil || v != "v" {
			t.Errorf("b k%d = %q, %v after commit", i, v, err)
		}
	}
}
