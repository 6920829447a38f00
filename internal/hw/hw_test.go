package hw

import (
	"errors"
	"sync"
	"testing"
)

func newTestNode(t *testing.T, cpus int) *Node {
	t.Helper()
	n, err := NewNode("test", cpus)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	return n
}

func TestNewNodeCPULimits(t *testing.T) {
	for _, bad := range []int{0, 1, 17, -3} {
		if _, err := NewNode("n", bad); err == nil {
			t.Errorf("NewNode with %d cpus: want error, got nil", bad)
		}
	}
	for _, ok := range []int{2, 4, 16} {
		n, err := NewNode("n", ok)
		if err != nil {
			t.Errorf("NewNode with %d cpus: %v", ok, err)
			continue
		}
		if n.NumCPUs() != ok {
			t.Errorf("NumCPUs = %d, want %d", n.NumCPUs(), ok)
		}
	}
}

func TestCPUFailRevive(t *testing.T) {
	n := newTestNode(t, 4)
	c, err := n.CPU(2)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Up() {
		t.Fatal("fresh cpu should be up")
	}
	ctx := c.Context()
	if err := n.FailCPU(2); err != nil {
		t.Fatal(err)
	}
	if c.Up() {
		t.Error("cpu should be down after FailCPU")
	}
	select {
	case <-ctx.Done():
	default:
		t.Error("cpu context should be cancelled on failure")
	}
	inc0 := c.Incarnation()
	if err := n.ReviveCPU(2); err != nil {
		t.Fatal(err)
	}
	if !c.Up() {
		t.Error("cpu should be up after ReviveCPU")
	}
	if c.Incarnation() != inc0+1 {
		t.Errorf("incarnation = %d, want %d", c.Incarnation(), inc0+1)
	}
	select {
	case <-c.Context().Done():
		t.Error("revived cpu context should be live")
	default:
	}
}

func TestFailCPUIdempotent(t *testing.T) {
	n := newTestNode(t, 2)
	var events []Event
	var mu sync.Mutex
	n.Watch(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})
	if err := n.FailCPU(1); err != nil {
		t.Fatal(err)
	}
	if err := n.FailCPU(1); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Errorf("got %d events for double failure, want 1", len(events))
	}
}

func TestUpCPUs(t *testing.T) {
	n := newTestNode(t, 4)
	if got := n.UpCPUs(); len(got) != 4 {
		t.Fatalf("UpCPUs = %v, want 4 entries", got)
	}
	n.FailCPU(0)
	n.FailCPU(3)
	got := n.UpCPUs()
	want := []int{1, 2}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("UpCPUs = %v, want %v", got, want)
	}
}

// TestFirstAndNthUpCPU: both agree with UpCPUs without building a slice.
func TestFirstAndNthUpCPU(t *testing.T) {
	n := newTestNode(t, 4)
	n.FailCPU(0)
	n.FailCPU(2)
	if cpu, ok := n.FirstUpCPU(); !ok || cpu != 1 {
		t.Errorf("FirstUpCPU = %d, %v, want 1, true", cpu, ok)
	}
	for k, want := range []int{1, 3, 1, 3} {
		if cpu, ok := n.NthUpCPU(uint64(k)); !ok || cpu != want {
			t.Errorf("NthUpCPU(%d) = %d, %v, want %d, true", k, cpu, ok, want)
		}
	}
	n.FailCPU(1)
	n.FailCPU(3)
	if _, ok := n.FirstUpCPU(); ok {
		t.Error("FirstUpCPU found an up CPU on a dead node")
	}
	if _, ok := n.NthUpCPU(5); ok {
		t.Error("NthUpCPU found an up CPU on a dead node")
	}
}

func TestTransferBusFailover(t *testing.T) {
	n := newTestNode(t, 2)
	delivered := 0
	send := func() error { return n.Transfer(0, 1, func() { delivered++ }) }

	if err := send(); err != nil {
		t.Fatalf("transfer on healthy node: %v", err)
	}
	// Single bus failure must not disable communication (Figure 1 claim).
	n.FailBus(BusX)
	if err := send(); err != nil {
		t.Fatalf("transfer with bus X down: %v", err)
	}
	x, y := n.BusTraffic()
	if x != 1 || y != 1 {
		t.Errorf("bus traffic = (%d,%d), want (1,1): failover should use Y", x, y)
	}
	// Both buses down severs communication.
	n.FailBus(BusY)
	if err := send(); !errors.Is(err, ErrBusesDown) {
		t.Errorf("transfer with both buses down: err = %v, want ErrBusesDown", err)
	}
	n.ReviveBus(BusX)
	if err := send(); err != nil {
		t.Fatalf("transfer after reviving bus X: %v", err)
	}
	if delivered != 3 {
		t.Errorf("delivered = %d, want 3", delivered)
	}
}

func TestTransferDownCPU(t *testing.T) {
	n := newTestNode(t, 3)
	n.FailCPU(1)
	if err := n.Transfer(0, 1, func() { t.Error("must not deliver to down cpu") }); !errors.Is(err, ErrCPUDown) {
		t.Errorf("err = %v, want ErrCPUDown", err)
	}
	if err := n.Transfer(1, 0, func() { t.Error("must not deliver from down cpu") }); !errors.Is(err, ErrCPUDown) {
		t.Errorf("err = %v, want ErrCPUDown", err)
	}
	if err := n.Transfer(0, 5, nil); !errors.Is(err, ErrBadCPU) {
		t.Errorf("err = %v, want ErrBadCPU", err)
	}
}

func TestIntraCPUTransferNeedsNoBus(t *testing.T) {
	n := newTestNode(t, 2)
	n.FailBus(BusX)
	n.FailBus(BusY)
	ok := false
	if err := n.Transfer(0, 0, func() { ok = true }); err != nil {
		t.Fatalf("same-cpu transfer should not need a bus: %v", err)
	}
	if !ok {
		t.Error("same-cpu transfer did not deliver")
	}
}

func TestWatcherSeesBusEvents(t *testing.T) {
	n := newTestNode(t, 2)
	var got []Event
	n.Watch(func(e Event) { got = append(got, e) })
	n.FailBus(BusY)
	n.ReviveBus(BusY)
	if len(got) != 2 || got[0].Kind != EventBusDown || got[1].Kind != EventBusUp {
		t.Errorf("events = %v, want [bus-down bus-up]", got)
	}
	if got[0].Bus != BusY {
		t.Errorf("event bus = %v, want Y", got[0].Bus)
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: EventCPUDown, CPU: 3}
	if e.String() != "cpu-down(3)" {
		t.Errorf("String = %q", e.String())
	}
	b := Event{Kind: EventBusUp, Bus: BusX}
	if b.String() != "bus-up(X)" {
		t.Errorf("String = %q", b.String())
	}
}
