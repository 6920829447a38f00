//go:build !race

// The race detector makes sync.Pool drop a share of what is put back, so
// reply slots are reallocated and these pins hold only without it.

package msg

import (
	"context"
	"testing"
	"time"
)

// TestCallAllocatesNothing pins the steady-state cost of a call with a nil
// payload, server side included, at zero allocations. A call through a
// relay that forwards it to the server costs nothing more.
func TestCallAllocatesNothing(t *testing.T) {
	s := newSys(t, 2)
	spawnEcho(t, s, 0, "echo")
	echo := Addr{Name: "echo"}
	spawnRelay(t, s, 1, "relay", echo)
	calls := map[string]func() error{
		"Forward": func() error {
			_, err := s.CallTimeout(0, Addr{Name: "relay"}, "echo", nil, time.Second)
			return err
		},
		"CallTimeout same cpu": func() error {
			_, err := s.CallTimeout(0, echo, "echo", nil, time.Second)
			return err
		},
		"CallTimeout cross cpu": func() error {
			_, err := s.CallTimeout(1, echo, "echo", nil, time.Second)
			return err
		},
		"ClientCall(Background)": func() error {
			_, err := s.ClientCall(context.Background(), 0, echo, "echo", nil)
			return err
		},
		"Start+Await": func() error {
			p, err := s.Start(1, echo, "echo", nil)
			if err != nil {
				return err
			}
			_, err = p.Await(time.Second)
			return err
		},
	}
	for name, call := range calls {
		var err error
		n := testing.AllocsPerRun(1000, func() {
			if e := call(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, n)
		}
	}
}

// TestHeaderOnlyFrameAllocs pins the frame codec's cost for a reply
// without a payload, the commonest frame on the wire: Marshal allocates
// the frame and nothing else, and Unmarshal at most two objects (it takes
// one, a single copy of the header's strings). These counts, like expand's
// TestWarmRouteAllocatesNothing, are inputs to the per-transaction cost
// table ROADMAP [cost] plans, not constants to keep pinning on their own.
func TestHeaderOnlyFrameAllocs(t *testing.T) {
	reply := Message{FromSys: "east", To: Addr{Node: "west"}, Kind: "tmp.phase1", Corr: 1 << 40, IsReply: true}
	var frame []byte
	if n := testing.AllocsPerRun(1000, func() {
		var err error
		if frame, err = Marshal(reply); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("Marshal: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if m, err := Unmarshal(frame); err != nil || m != reply {
			t.Fatalf("Unmarshal = %+v, %v; want %+v", m, err, reply)
		}
	}); n > 2 {
		t.Errorf("Unmarshal: %v allocs, want <= 2", n)
	}
}
