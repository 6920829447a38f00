package tmf

import (
	"testing"
	"time"

	"encompass/internal/expand"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// Tests of a heal delivering what a partition swallowed: a safe-delivery
// message whose frame the partition dropped goes again when the line comes
// back, so the child learns its outcome one hop after the heal, not a call
// timeout later.

// healLatency is the per-hop delay: long enough to partition the line
// while a frame is on it.
const healLatency = 100 * time.Millisecond

// healPair builds a and b with healLatency per hop and a transaction of
// a's with an insert on each node.
func healPair(t *testing.T) (a, b *testNode, net *expand.Network, tx txid.ID) {
	t.Helper()
	nodes, net := buildCluster(t, "", healLatency, nil, nil, "a", "b")
	a, b = nodes["a"], nodes["b"]
	a.mon.tracer = obs.NewTracer(16) // the cluster is idle: nothing reads the field yet
	tx, _ = a.mon.Begin(0)
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	a.insert(t, "a", tx, "k", "v")
	a.insert(t, "b", tx, "k", "v")
	return a, b, net, tx
}

// swallowAndHeal waits until a's tracer holds the request of kind to b,
// partitions b while the frame is on its way, waits until the network has
// dropped a frame and heals. It returns the time of the heal.
func swallowAndHeal(t *testing.T, a *testNode, net *expand.Network, tx txid.ID, kind string) time.Time {
	t.Helper()
	sent := func() bool {
		for _, ev := range a.mon.Tracer().Trace(tx) {
			if ev.Kind == obs.EvChildRequest && ev.Detail == "b "+kind {
				return true
			}
		}
		return false
	}
	waitWithin(t, "the request of "+kind+" to b", 5*time.Second, sent)
	drops := net.Stats().LinkDownDrops
	net.Partition("b")
	waitWithin(t, "the partition to drop the frame", 2*healLatency,
		func() bool { return net.Stats().LinkDownDrops > drops })
	net.HealAll()
	return time.Now()
}

// TestHealResendsSwallowedEnded: the ENDED frame to b is lost to a
// partition; after the heal b must reach ended within one hop and 100 ms.
func TestHealResendsSwallowedEnded(t *testing.T) {
	a, b, net, tx := healPair(t)
	if err := a.mon.End(tx); err != nil {
		t.Fatal(err)
	}
	healed := swallowAndHeal(t, a, net, tx, kindEnded)
	waitWithin(t, "b to reach ended after the heal", time.Until(healed.Add(healLatency+100*time.Millisecond)),
		func() bool { return b.mon.State(tx) == txid.StateEnded })
	a.drain(t)
}

// TestHealResendsSwallowedAborting: the same for the ABORTING frame. Abort
// must have returned, and b must have backed out, within one hop and 100
// ms of the heal.
func TestHealResendsSwallowedAborting(t *testing.T) {
	a, b, net, tx := healPair(t)
	done := make(chan error, 1)
	go func() { done <- a.mon.Abort(tx, "test abort") }()
	healed := swallowAndHeal(t, a, net, tx, kindAborting)
	bound := healed.Add(healLatency + 100*time.Millisecond)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Until(bound)):
		t.Fatal("Abort had not returned one hop after the heal")
	}
	waitWithin(t, "b to back out after the heal", time.Until(bound),
		func() bool { return b.mon.State(tx) == txid.StateAborted })
	a.drain(t)
}
