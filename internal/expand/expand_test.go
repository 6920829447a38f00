package expand

import (
	"context"
	"errors"
	"testing"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
)

type testPayload struct {
	N int
	S string
}

func init() { msg.RegisterPayload(testPayload{}) }

func newNet(t *testing.T, names ...string) (*Network, map[string]*msg.System) {
	t.Helper()
	net := NewNetwork(0)
	systems := make(map[string]*msg.System)
	for _, name := range names {
		node, err := hw.NewNode(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		sys := msg.NewSystem(node)
		net.Attach(sys)
		systems[name] = sys
	}
	return net, systems
}

func spawnEcho(t *testing.T, s *msg.System, name string) {
	t.Helper()
	_, err := s.Spawn(0, name, func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			p.Reply(m, m.Payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrossNodeRequestReply(t *testing.T) {
	net, sys := newNet(t, "a", "b")
	if err := net.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	spawnEcho(t, sys["b"], "echo")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	r, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "b", Name: "echo"}, "echo", testPayload{N: 7, S: "hi"})
	if err != nil {
		t.Fatalf("cross-node call: %v", err)
	}
	got, ok := r.Payload.(testPayload)
	if !ok || got.N != 7 || got.S != "hi" {
		t.Errorf("payload = %#v", r.Payload)
	}
}

func TestValueSemanticsAcrossNodes(t *testing.T) {
	// Mutating the payload after sending must not affect what the remote
	// node received: frames are encoded copies.
	net, sys := newNet(t, "a", "b")
	net.AddLink("a", "b")
	recv := make(chan testPayload, 1)
	_, err := sys["b"].Spawn(0, "sink", func(p *msg.Process) {
		m, err := p.Recv(context.Background())
		if err != nil {
			return
		}
		recv <- m.Payload.(testPayload)
		p.Reply(m, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload{N: 1, S: "orig"}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "b", Name: "sink"}, "put", payload); err != nil {
		t.Fatal(err)
	}
	got := <-recv
	if got != payload {
		t.Errorf("received %+v, want %+v", got, payload)
	}
}

func TestMultiHopRouting(t *testing.T) {
	net, sys := newNet(t, "a", "b", "c")
	net.AddLink("a", "b")
	net.AddLink("b", "c")
	spawnEcho(t, sys["c"], "echo")
	hops, err := net.Hops("a", "c")
	if err != nil || hops != 2 {
		t.Fatalf("Hops = %d, %v; want 2, nil", hops, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "c", Name: "echo"}, "echo", testPayload{}); err != nil {
		t.Fatalf("multi-hop call: %v", err)
	}
}

func TestRerouteOnLinkFailure(t *testing.T) {
	// Triangle a-b, b-c, a-c: failing a-c must re-route a→c via b.
	net, sys := newNet(t, "a", "b", "c")
	net.AddLink("a", "b")
	net.AddLink("b", "c")
	net.AddLink("a", "c")
	spawnEcho(t, sys["c"], "echo")
	net.FailLink("a", "c")
	hops, err := net.Hops("a", "c")
	if err != nil || hops != 2 {
		t.Fatalf("after failure Hops = %d, %v; want 2, nil", hops, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "c", Name: "echo"}, "echo", testPayload{}); err != nil {
		t.Fatalf("re-routed call: %v", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	net, sys := newNet(t, "a", "b", "c", "d")
	net.AddLink("a", "b")
	net.AddLink("b", "c")
	net.AddLink("c", "d")
	spawnEcho(t, sys["d"], "echo")

	topoChanges := 0
	net.WatchTopology("a", func() { topoChanges++ })

	net.Partition("c", "d")
	if net.Reachable("a", "d") {
		t.Error("a should not reach d after partition")
	}
	if !net.Reachable("c", "d") {
		t.Error("c and d are in the same partition and should reach each other")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "d", Name: "echo"}, "echo", testPayload{})
	if !errors.Is(err, ErrNoPath) {
		t.Errorf("call across partition: err = %v, want ErrNoPath", err)
	}
	st := net.Stats()
	if st.NoPath == 0 {
		t.Error("NoPath counter not incremented")
	}

	net.HealAll()
	if !net.Reachable("a", "d") {
		t.Error("a should reach d after heal")
	}
	if _, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "d", Name: "echo"}, "echo", testPayload{}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
	if topoChanges != 2 {
		t.Errorf("topology callbacks = %d, want 2 (partition + heal)", topoChanges)
	}
}

func TestUnknownDestination(t *testing.T) {
	net, sys := newNet(t, "a")
	_ = net
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "zz", Name: "echo"}, "echo", nil)
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("err = %v, want ErrUnknownNode", err)
	}
}

func TestRemoteNameNotFoundFailsFast(t *testing.T) {
	net, sys := newNet(t, "a", "b")
	net.AddLink("a", "b")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "b", Name: "ghost"}, "echo", nil)
	var re *msg.RemoteError
	if !errors.As(err, &re) {
		t.Errorf("err = %v, want RemoteError about missing name", err)
	}
}

func TestLatencyDelivery(t *testing.T) {
	net := NewNetwork(time.Millisecond)
	nodeA, _ := hw.NewNode("a", 2)
	nodeB, _ := hw.NewNode("b", 2)
	sysA, sysB := msg.NewSystem(nodeA), msg.NewSystem(nodeB)
	net.Attach(sysA)
	net.Attach(sysB)
	net.AddLink("a", "b")
	spawnEcho(t, sysB, "echo")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := sysA.ClientCall(ctx, 0, msg.Addr{Node: "b", Name: "echo"}, "echo", testPayload{}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Errorf("round trip took %v, want >= 2ms (1ms each way)", elapsed)
	}
}

func TestFrameStats(t *testing.T) {
	net, sys := newNet(t, "a", "b")
	net.AddLink("a", "b")
	spawnEcho(t, sys["b"], "echo")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys["a"].ClientCall(ctx, 0, msg.Addr{Node: "b", Name: "echo"}, "echo", testPayload{}); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Frames != 2 { // request + reply
		t.Errorf("Frames = %d, want 2", st.Frames)
	}
	if st.Bytes == 0 {
		t.Error("Bytes = 0, want > 0")
	}
}

func TestDuplicateLink(t *testing.T) {
	net, _ := newNet(t, "a", "b")
	if err := net.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("b", "a"); !errors.Is(err, ErrLinkExists) {
		t.Errorf("err = %v, want ErrLinkExists", err)
	}
}
