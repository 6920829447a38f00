package msg_test

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"testing"
	"time"

	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/tmf"
)

// TestErrorCodesArePinned: a code is part of the wire format, like a
// payload tag, so renumbering or dropping one fails here.
func TestErrorCodesArePinned(t *testing.T) {
	want := map[uint16]error{
		1:  discproc.ErrFileExists,
		2:  discproc.ErrNoSuchFile,
		3:  discproc.ErrTxEnded,
		4:  dbfile.ErrNotFound,
		5:  dbfile.ErrDuplicateKey,
		16: msg.ErrNoSuchName,
		17: msg.ErrProcessDead,
		18: msg.ErrInboxBlocked,
		19: msg.ErrCallTimeout,
		20: hw.ErrCPUDown,
		24: tmf.ErrAborted,
		25: tmf.ErrInDoubt,
		26: tmf.ErrNodeUnreachable,
		32: lock.ErrTimeout,
		33: lock.ErrReleased,
	}
	codes, errs := msg.ErrorCodes()
	if len(codes) != len(want) {
		t.Errorf("%d codes registered, want %d", len(codes), len(want))
	}
	for i, code := range codes {
		if want[code] != errs[i] {
			t.Errorf("code %d is %v, want %v", code, errs[i], want[code])
		}
	}
}

// twoNodes is nodes a and b, two CPUs each, joined by one EXPAND line.
func twoNodes(t *testing.T) (a, b *msg.System) {
	t.Helper()
	net := expand.NewNetwork(0)
	for _, name := range []string{"a", "b"} {
		node, err := hw.NewNode(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		s := msg.NewSystem(node)
		net.Attach(s)
		if name == "a" {
			a = s
		} else {
			b = s
		}
	}
	if err := net.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// serve spawns a process on s's CPU cpu that answers every request with
// handle's error, or not at all when it is nil, until the CPU fails.
func serve(t *testing.T, s *msg.System, cpu int, name string, handle func(p *msg.Process, m msg.Message) error) {
	t.Helper()
	if _, err := s.Spawn(cpu, name, func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if err := handle(p, m); err != nil {
				p.ReplyErr(m, err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Node().FailCPU(cpu) })
}

// TestRegisteredErrorsKeepIdentity: a server that answers with a wrapped
// registered sentinel gives its caller an error that errors.Is the
// sentinel and no other, with the same text, whether the caller is on the
// server's CPU, on another node, or reaches it through a relay that
// forwards the request. A server that relays an error it was answered
// with keeps its identity too. The request's kind names the sentinel's
// code.
func TestRegisteredErrorsKeepIdentity(t *testing.T) {
	a, b := twoNodes(t)
	codes, sentinels := msg.ErrorCodes()
	byCode := map[string]error{}
	for i, c := range codes {
		byCode[strconv.Itoa(int(c))] = sentinels[i]
	}
	serve(t, b, 1, "server", func(_ *msg.Process, m msg.Message) error {
		return fmt.Errorf("server: %w (kind %s)", byCode[m.Kind], m.Kind)
	})
	serve(t, b, 1, "relay", func(p *msg.Process, m msg.Message) error {
		return p.Forward(msg.Addr{Name: "server"}, &m)
	})
	serve(t, b, 1, "proxy", func(p *msg.Process, m msg.Message) error {
		_, err := p.System().CallTimeout(0, msg.Addr{Name: "server"}, m.Kind, nil, time.Second)
		return fmt.Errorf("proxy: %w", err)
	})
	for i, code := range codes {
		kind := strconv.Itoa(int(code))
		var text string
		for _, c := range []struct {
			path string
			from *msg.System
			cpu  int
			to   msg.Addr
		}{
			{"same-CPU", b, 1, msg.Addr{Name: "server"}},
			{"two-node", a, 0, msg.Addr{Node: "b", Name: "server"}},
			{"relay hop", a, 0, msg.Addr{Node: "b", Name: "relay"}},
			{"relayed answer", a, 0, msg.Addr{Node: "b", Name: "proxy"}},
		} {
			_, err := c.from.CallTimeout(c.cpu, c.to, kind, nil, time.Second)
			for j, s := range sentinels {
				if got := errors.Is(err, s); got != (i == j) {
					t.Errorf("%s call answered with code %d: errors.Is(%q, %v) = %v", c.path, code, err, s, got)
				}
			}
			if msg.Undelivered(err) {
				t.Errorf("%s call answered with code %d is undelivered: %v", c.path, code, err)
			}
			switch {
			case c.path == "relayed answer":
			case text == "":
				text = err.Error()
			case err.Error() != text:
				t.Errorf("%s call answered with code %d: text %q, want %q", c.path, code, err, text)
			}
		}
	}
}

// TestUndeliveredIsCompletedNo: a request that reaches no process fails
// with "completed: no" and its cause's identity, whether the send fails
// on the caller's node or the destination's message system answers it in
// the server's place; a timed-out call is not undelivered.
func TestUndeliveredIsCompletedNo(t *testing.T) {
	a, b := twoNodes(t)
	// A process that stops receiving stays registered when its CPU fails.
	stuck := make(chan struct{})
	t.Cleanup(func() { close(stuck) })
	if _, err := b.Spawn(1, "down", func(*msg.Process) { <-stuck }); err != nil {
		t.Fatal(err)
	}
	serve(t, b, 0, "mute", func(*msg.Process, msg.Message) error { return nil })
	if err := b.Node().FailCPU(1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		from  *msg.System
		to    msg.Addr
		cause error
	}{
		{b, msg.Addr{Name: "ghost"}, msg.ErrNoSuchName},
		{a, msg.Addr{Node: "b", Name: "ghost"}, msg.ErrNoSuchName},
		{b, msg.Addr{Name: "down"}, hw.ErrCPUDown},
		{a, msg.Addr{Node: "b", Name: "down"}, hw.ErrCPUDown},
	} {
		start := time.Now()
		_, err := c.from.CallTimeout(0, c.to, "k", nil, 5*time.Second)
		if !msg.Undelivered(err) || !errors.Is(err, c.cause) {
			t.Errorf("call to %v = %v, want undelivered %v", c.to, err, c.cause)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("call to %v took %v, want an answer, not a timeout", c.to, d)
		}
	}
	_, err := a.CallTimeout(0, msg.Addr{Node: "b", Name: "mute"}, "k", nil, 10*time.Millisecond)
	if !errors.Is(err, msg.ErrCallTimeout) || msg.Undelivered(err) {
		t.Errorf("timed-out call = %v, want ErrCallTimeout and not undelivered", err)
	}
}
