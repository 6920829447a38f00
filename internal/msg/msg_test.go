package msg

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"encompass/internal/hw"
)

func newSys(t *testing.T, cpus int) *System {
	t.Helper()
	n, err := hw.NewNode("alpha", cpus)
	if err != nil {
		t.Fatal(err)
	}
	return NewSystem(n)
}

// spawnEcho starts a server that replies to "echo" with its payload and to
// "fail" with an error.
func spawnEcho(t *testing.T, s *System, cpu int, name string) *Process {
	t.Helper()
	p, err := s.Spawn(cpu, name, func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			switch m.Kind {
			case "echo":
				p.Reply(m, m.Payload)
			case "fail":
				p.ReplyErr(m, errors.New("boom"))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// spawnRelay starts a process that forwards every request it receives to
// to, which answers the original caller.
func spawnRelay(t *testing.T, s *System, cpu int, name string, to Addr) {
	t.Helper()
	_, err := s.Spawn(cpu, name, func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if err := p.Forward(to, &m); err != nil {
				p.ReplyErr(m, err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForwardRepliesToRequester: a forwarded request keeps its requester,
// so the server's reply — payload or error — reaches the caller, not the
// relay.
func TestForwardRepliesToRequester(t *testing.T) {
	s := newSys(t, 2)
	spawnEcho(t, s, 0, "echo")
	spawnRelay(t, s, 1, "relay", Addr{Name: "echo"})
	relay := Addr{Name: "relay"}
	r, err := s.CallTimeout(0, relay, "echo", "hello", time.Second)
	if err != nil || r.Payload != "hello" {
		t.Fatalf("forwarded echo = %v, %v; want hello", r.Payload, err)
	}
	var re *RemoteError
	if _, err := s.CallTimeout(1, relay, "fail", nil, time.Second); !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("forwarded fail = %v, want the server's error", err)
	}
}

func TestRequestReply(t *testing.T) {
	s := newSys(t, 2)
	spawnEcho(t, s, 1, "echo")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	r, err := s.ClientCall(ctx, 0, Addr{Name: "echo"}, "echo", "hello")
	if err != nil {
		t.Fatalf("ClientCall: %v", err)
	}
	if r.Payload != "hello" {
		t.Errorf("payload = %v, want hello", r.Payload)
	}
}

func TestErrorReply(t *testing.T) {
	s := newSys(t, 2)
	spawnEcho(t, s, 1, "echo")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := s.ClientCall(ctx, 0, Addr{Name: "echo"}, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Errorf("err = %v, want RemoteError{boom}", err)
	}
}

func TestUnknownName(t *testing.T) {
	s := newSys(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := s.ClientCall(ctx, 0, Addr{Name: "ghost"}, "echo", nil)
	if !errors.Is(err, ErrNoSuchName) {
		t.Errorf("err = %v, want ErrNoSuchName", err)
	}
}

func TestCallToDownCPUFails(t *testing.T) {
	s := newSys(t, 3)
	// A server that never returns stays registered after its CPU fails,
	// so the call reaches the transfer rather than a missing name.
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	if _, err := s.Spawn(2, "echo", func(*Process) { <-stop }); err != nil {
		t.Fatal(err)
	}
	s.Node().FailCPU(2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := s.ClientCall(ctx, 0, Addr{Name: "echo"}, "echo", "x")
	if !errors.Is(err, hw.ErrCPUDown) {
		t.Errorf("err = %v, want ErrCPUDown", err)
	}
}

func TestProcessStopsOnCPUFailure(t *testing.T) {
	s := newSys(t, 2)
	stopped := make(chan struct{})
	_, err := s.Spawn(1, "victim", func(p *Process) {
		defer close(stopped)
		for {
			if _, err := p.Recv(context.Background()); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Node().FailCPU(1)
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("process did not stop after its CPU failed")
	}
}

func TestTakeoverReregistration(t *testing.T) {
	// Simulates the essence of process-pair takeover: the name moves to a
	// process on another CPU and callers transparently reach the new one.
	s := newSys(t, 2)
	spawnEcho(t, s, 0, "svc")
	backup, err := s.Spawn(1, "", func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			p.Reply(m, "from-backup")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Node().FailCPU(0)
	s.Register("svc", backup)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	r, err := s.ClientCall(ctx, 1, Addr{Name: "svc"}, "echo", "x")
	if err != nil {
		t.Fatalf("call after takeover: %v", err)
	}
	if r.Payload != "from-backup" {
		t.Errorf("payload = %v, want from-backup", r.Payload)
	}
}

func TestSpawnOnDownCPU(t *testing.T) {
	s := newSys(t, 2)
	s.Node().FailCPU(1)
	if _, err := s.Spawn(1, "x", func(p *Process) {}); !errors.Is(err, hw.ErrCPUDown) {
		t.Errorf("err = %v, want ErrCPUDown", err)
	}
}

func TestOneWaySend(t *testing.T) {
	s := newSys(t, 2)
	got := make(chan any, 1)
	_, err := s.Spawn(1, "sink", func(p *Process) {
		m, err := p.Recv(context.Background())
		if err != nil {
			return
		}
		got <- m.Payload
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := s.Spawn(0, "sender", func(p *Process) {
		if err := p.Send(Addr{Name: "sink"}, "note", 42); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sender
	select {
	case v := <-got:
		if v != 42 {
			t.Errorf("payload = %v, want 42", v)
		}
	case <-time.After(time.Second):
		t.Fatal("one-way message not delivered")
	}
}

func TestConcurrentCalls(t *testing.T) {
	s := newSys(t, 4)
	spawnEcho(t, s, 3, "echo")
	const n = 200
	var wg atomic.Int64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Add(-1)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			r, err := s.ClientCall(ctx, i%3, Addr{Name: "echo"}, "echo", i)
			if err != nil {
				errs <- err
				return
			}
			if r.Payload != i {
				errs <- fmt.Errorf("got %v want %d", r.Payload, i)
			}
		}(i)
	}
	deadline := time.After(5 * time.Second)
	for wg.Load() != 0 {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("timed out")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestCallWithoutNetworkToRemoteNode(t *testing.T) {
	s := newSys(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_, err := s.ClientCall(ctx, 0, Addr{Node: "omega", Name: "x"}, "k", nil)
	if !errors.Is(err, ErrNoRemote) {
		t.Errorf("err = %v, want ErrNoRemote", err)
	}
}

func TestAddrString(t *testing.T) {
	a := Addr{Node: "alpha", Name: "disc-v1"}
	if got := a.String(); got != `\alpha.$disc-v1` {
		t.Errorf("String = %q", got)
	}
}

func TestExitUnregisters(t *testing.T) {
	s := newSys(t, 2)
	done := make(chan struct{})
	p, err := s.Spawn(0, "temp", func(p *Process) { <-done })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup("temp"); err != nil {
		t.Fatalf("Lookup before exit: %v", err)
	}
	close(done)
	p.Exit()
	// Exit is synchronous for registry purposes.
	if _, err := s.Lookup("temp"); !errors.Is(err, ErrNoSuchName) {
		t.Errorf("Lookup after exit: err = %v, want ErrNoSuchName", err)
	}
}

func TestReplyToOneWayMessageIsNoop(t *testing.T) {
	s := newSys(t, 2)
	done := make(chan error, 1)
	_, err := s.Spawn(1, "sink", func(p *Process) {
		m, err := p.Recv(context.Background())
		if err != nil {
			done <- err
			return
		}
		// Replying to a one-way send (Corr == 0) must be harmless.
		done <- p.Reply(m, "ignored")
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := s.Spawn(0, "src", func(p *Process) {
		p.Send(Addr{Name: "sink"}, "note", nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sender
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("reply to one-way: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("sink never ran")
	}
}

func TestLateReplyAfterCallerTimedOut(t *testing.T) {
	// The server replies after the caller gave up; the late reply must be
	// dropped without disturbing later calls.
	s := newSys(t, 2)
	release := make(chan struct{})
	_, err := s.Spawn(1, "slow", func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if m.Kind == "slow" {
				<-release
			}
			p.Reply(m, "late")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	_, err = s.ClientCall(ctx, 0, Addr{Name: "slow"}, "slow", nil)
	cancel()
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	close(release) // late reply goes to a deregistered waiter
	// A subsequent call works and receives ITS OWN reply.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	r, err := s.ClientCall(ctx2, 0, Addr{Name: "slow"}, "fast", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Payload != "late" {
		t.Errorf("payload = %v", r.Payload)
	}
}

func TestRecvDropsQueuedMessagesAfterCPUFailure(t *testing.T) {
	// A dead processor does no work: messages queued before the failure
	// must never be processed afterwards.
	s := newSys(t, 2)
	processed := make(chan string, 16)
	started := make(chan struct{})
	block := make(chan struct{})
	_, err := s.Spawn(1, "victim", func(p *Process) {
		close(started)
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			processed <- m.Kind
			if m.Kind == "first" {
				<-block
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	sender, _ := s.Spawn(0, "src", func(p *Process) {
		p.Send(Addr{Name: "victim"}, "first", nil)
		p.Send(Addr{Name: "victim"}, "second", nil)
		p.Send(Addr{Name: "victim"}, "third", nil)
	})
	_ = sender
	// Wait for the first message to be mid-processing, then fail the CPU.
	select {
	case <-processed:
	case <-time.After(time.Second):
		t.Fatal("first message never processed")
	}
	s.Node().FailCPU(1)
	close(block)
	select {
	case kind := <-processed:
		t.Errorf("message %q processed after CPU failure", kind)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestLateReplyNeverReachesReusedSlot holds each request until its
// CallTimeout has expired and only then replies, so every late reply is
// completed after its caller gave the reply slot back. The next call, which
// draws a slot from the same pool, must receive its own reply and never
// the stale one.
func TestLateReplyNeverReachesReusedSlot(t *testing.T) {
	s := newSys(t, 2)
	release := make(chan struct{})
	replied := make(chan struct{})
	_, err := s.Spawn(1, "slow", func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if m.Kind == "slow" {
				<-release
				p.Reply(m, "stale")
				replied <- struct{}{}
				continue
			}
			p.Reply(m, m.Payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		_, err := s.CallTimeout(0, Addr{Name: "slow"}, "slow", nil, 5*time.Millisecond)
		if !errors.Is(err, ErrCallTimeout) || !strings.Contains(err.Error(), "context deadline exceeded") {
			t.Fatalf("round %d: err = %v, want ErrCallTimeout ... context deadline exceeded", i, err)
		}
		release <- struct{}{}
		<-replied // the late reply has been completed (and dropped)
		r, err := s.CallTimeout(0, Addr{Name: "slow"}, "fast", i, time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if r.Payload != i {
			t.Fatalf("round %d: payload = %v, want %d", i, r.Payload, i)
		}
	}
	s.waitMu.Lock()
	left := len(s.waiters)
	s.waitMu.Unlock()
	if left != 0 {
		t.Errorf("%d waiters left behind", left)
	}
}

// TestLateReplyAfterAwaitNeverReachesReusedSlot is the nowait twin of
// TestLateReplyNeverReachesReusedSlot: two requests are started before
// either is awaited, the slow one's Await times out, and its reply lands
// only afterwards. The calls that reuse the slots must each receive their
// own reply.
func TestLateReplyAfterAwaitNeverReachesReusedSlot(t *testing.T) {
	s := newSys(t, 2)
	release := make(chan struct{})
	replied := make(chan struct{})
	_, err := s.Spawn(1, "slow", func(p *Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if m.Kind == "slow" {
				<-release
				p.Reply(m, "stale")
				replied <- struct{}{}
				continue
			}
			p.Reply(m, m.Payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	spawnEcho(t, s, 0, "echo")
	for i := 0; i < 20; i++ {
		slow, err := s.Start(0, Addr{Name: "slow"}, "slow", nil)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := s.Start(0, Addr{Name: "echo"}, "echo", -i)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := slow.Await(5 * time.Millisecond); !errors.Is(err, ErrCallTimeout) ||
			!strings.Contains(err.Error(), `\.$slow slow: context deadline exceeded`) {
			t.Fatalf("round %d: err = %v, want ErrCallTimeout naming the call", i, err)
		}
		if r, err := fast.Await(time.Second); err != nil || r.Payload != -i {
			t.Fatalf("round %d: started beside the slow call: %v, %v", i, r.Payload, err)
		}
		release <- struct{}{}
		<-replied // the late reply has been completed (and dropped)
		p, err := s.Start(0, Addr{Name: "slow"}, "fast", i)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Await(time.Second)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if r.Payload != i {
			t.Fatalf("round %d: payload = %v, want %d", i, r.Payload, i)
		}
	}
	s.waitMu.Lock()
	left := len(s.waiters)
	s.waitMu.Unlock()
	if left != 0 {
		t.Errorf("%d waiters left behind", left)
	}
}

// TestStartToUnknownNameLeavesNoWaiter: a Start that cannot send returns
// the error at once and nothing to await, and takes its reply slot back.
func TestStartToUnknownNameLeavesNoWaiter(t *testing.T) {
	s := newSys(t, 2)
	p, err := s.Start(0, Addr{Name: "ghost"}, "echo", nil)
	if !errors.Is(err, ErrNoSuchName) {
		t.Fatalf("err = %v, want ErrNoSuchName", err)
	}
	if p != (Pending{}) {
		t.Errorf("failed Start returned %+v, want the zero Pending", p)
	}
	s.waitMu.Lock()
	left := len(s.waiters)
	s.waitMu.Unlock()
	if left != 0 {
		t.Errorf("%d waiters left behind", left)
	}
}

// TestHaltedProcessCannotReply: once its CPU failed, a process that
// already took a request can answer it neither way, and the caller's
// waiter stays pending until its own timeout.
func TestHaltedProcessCannotReply(t *testing.T) {
	s := newSys(t, 2)
	got := make(chan Message, 1)
	p, err := s.Spawn(1, "doomed", func(p *Process) {
		if m, err := p.Recv(context.Background()); err == nil {
			got <- m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pend, err := s.Start(0, Addr{Name: "doomed"}, "echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	m := <-got
	s.Node().FailCPU(1)
	if err := p.Reply(m, "late"); !errors.Is(err, ErrProcessDead) {
		t.Errorf("Reply: err = %v, want ErrProcessDead", err)
	}
	if err := p.ReplyErr(m, errors.New("late")); !errors.Is(err, ErrProcessDead) {
		t.Errorf("ReplyErr: err = %v, want ErrProcessDead", err)
	}
	s.waitMu.Lock()
	waiting := len(s.waiters)
	s.waitMu.Unlock()
	if waiting != 1 {
		t.Errorf("%d waiters pending, want the caller's 1", waiting)
	}
	if r, err := pend.Await(20 * time.Millisecond); !errors.Is(err, ErrCallTimeout) {
		t.Errorf("Await = %v, %v; want ErrCallTimeout", r.Payload, err)
	}
}

// TestCancelledClientCallTimesOut: cancelling the caller's context ends
// the call with ErrCallTimeout, as a deadline does.
func TestCancelledClientCallTimesOut(t *testing.T) {
	s := newSys(t, 2)
	held := make(chan struct{})
	_, err := s.Spawn(1, "hold", func(p *Process) {
		if _, err := p.Recv(context.Background()); err == nil {
			close(held)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-held
		cancel()
	}()
	_, err = s.ClientCall(ctx, 0, Addr{Name: "hold"}, "k", nil)
	if !errors.Is(err, ErrCallTimeout) || !strings.Contains(err.Error(), "context canceled") {
		t.Errorf("err = %v, want ErrCallTimeout ... context canceled", err)
	}
}

// counter counts Inc calls, standing in for an obs counter.
type counter struct{ n atomic.Int64 }

func (c *counter) Inc() { c.n.Add(1) }

// TestFullInboxDropIsCounted: a process that stops receiving fills its
// inbox; the next message waits inboxFullTimeout, is dropped, the send
// fails "completed: no" with ErrInboxBlocked, and the drop shows in the
// counter SetObs installed.
func TestFullInboxDropIsCounted(t *testing.T) {
	t.Parallel() // the dropped send waits out inboxFullTimeout
	s := newSys(t, 2)
	drops := &counter{}
	s.SetObs(drops)
	stuck := make(chan struct{})
	defer close(stuck)
	if _, err := s.Spawn(1, "stuck", func(p *Process) { <-stuck }); err != nil {
		t.Fatal(err)
	}
	send := func() error {
		return s.send(Message{From: PID{Node: "alpha", CPU: 0}, FromSys: "alpha", To: Addr{Name: "stuck"}, Kind: "x"})
	}
	for i := range inboxDepth {
		if err := send(); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if n := drops.n.Load(); n != 0 {
		t.Fatalf("%d drops while the inbox still had room", n)
	}
	start := time.Now()
	if err := send(); !errors.Is(err, ErrInboxBlocked) || !Undelivered(err) {
		t.Fatalf("send to the full inbox: err = %v, want undelivered ErrInboxBlocked", err)
	}
	if waited := time.Since(start); waited < inboxFullTimeout {
		t.Errorf("the send to a full inbox returned after %v, before inboxFullTimeout", waited)
	}
	if n := drops.n.Load(); n != 1 {
		t.Errorf("drops = %d, want 1", n)
	}
}
