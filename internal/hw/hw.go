// Package hw simulates the Tandem NonStop hardware architecture described in
// Figure 1 of Borr's "Transaction Monitoring in ENCOMPASS" (Tandem TR 81.2):
// a node of 2 to 16 independent processor modules interconnected by dual
// high-speed interprocessor buses.
//
// Each CPU is a container for simulated processes (goroutines). Failing a
// CPU cancels its context, which stops every process running on it; the
// surviving CPUs observe the failure through the event fabric, the analogue
// of the NonStop "I'm alive" regroup protocol. The two buses fail
// independently; intra-node traffic transparently fails over from one bus to
// the other, and only the loss of both severs CPU-to-CPU communication.
package hw

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Limits from the paper: "from 2 to 16 processor modules".
const (
	MinCPUs = 2
	MaxCPUs = 16
)

// Errors reported by the hardware layer.
var (
	ErrCPUDown   = errors.New("hw: cpu down")
	ErrBusesDown = errors.New("hw: both interprocessor buses down")
	ErrBadCPU    = errors.New("hw: no such cpu")
)

// BusID names one of the two interprocessor buses. The Tandem literature
// calls them the X and Y Dynabus.
type BusID int

// The two buses of a node.
const (
	BusX BusID = iota
	BusY
	numBuses
)

// String names the bus (X or Y).
func (b BusID) String() string {
	switch b {
	case BusX:
		return "X"
	case BusY:
		return "Y"
	default:
		return fmt.Sprintf("bus(%d)", int(b))
	}
}

// EventKind classifies hardware events observed on a node.
type EventKind int

// Hardware event kinds.
const (
	EventCPUDown EventKind = iota
	EventCPUUp
	EventBusDown
	EventBusUp
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventCPUDown:
		return "cpu-down"
	case EventCPUUp:
		return "cpu-up"
	case EventBusDown:
		return "bus-down"
	case EventBusUp:
		return "bus-up"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is a hardware state change delivered to watchers, the simulation's
// stand-in for the regroup protocol every NonStop CPU participates in.
type Event struct {
	Kind EventKind
	CPU  int   // valid for EventCPUDown / EventCPUUp
	Bus  BusID // valid for EventBusDown / EventBusUp
}

// String renders the event with its subject.
func (e Event) String() string {
	switch e.Kind {
	case EventCPUDown, EventCPUUp:
		return fmt.Sprintf("%s(%d)", e.Kind, e.CPU)
	default:
		return fmt.Sprintf("%s(%s)", e.Kind, e.Bus)
	}
}

// CPU is one processor module: its own context tree, up/down state, and a
// monotonically increasing incarnation number so that a revived CPU is
// distinguishable from its previous life.
type CPU struct {
	node *Node
	id   int

	mu          sync.Mutex
	up          bool
	incarnation uint64
	ctx         context.Context
	cancel      context.CancelFunc
}

// ID returns the CPU's index within its node.
func (c *CPU) ID() int { return c.id }

// Node returns the node that contains this CPU.
func (c *CPU) Node() *Node { return c.node }

// Up reports whether the CPU is currently running.
func (c *CPU) Up() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.up
}

// Incarnation returns the CPU's current incarnation number. It increases
// each time the CPU is revived after a failure.
func (c *CPU) Incarnation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.incarnation
}

// Context returns a context that is cancelled when the CPU fails. Processes
// hosted on the CPU derive their lifetime from it.
func (c *CPU) Context() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctx
}

func (c *CPU) fail() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.up {
		return false
	}
	c.up = false
	c.cancel()
	return true
}

func (c *CPU) revive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.up {
		return false
	}
	c.up = true
	c.incarnation++
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return true
}

// Node is a single Tandem system: 2-16 CPUs joined by dual buses. A network
// (package expand) connects multiple Nodes.
type Node struct {
	name string
	cpus []*CPU

	mu       sync.Mutex
	busUp    [numBuses]bool
	watchers []func(Event)

	// busTraffic counts messages carried per bus, for the broadcast-cost
	// experiment (T6 in DESIGN.md).
	busTraffic [numBuses]atomic.Uint64
}

// NewNode creates a node with the given name and CPU count. The CPU count
// must lie in [MinCPUs, MaxCPUs], per the paper's hardware description.
func NewNode(name string, cpus int) (*Node, error) {
	if cpus < MinCPUs || cpus > MaxCPUs {
		return nil, fmt.Errorf("hw: node %q: cpu count %d outside [%d,%d]", name, cpus, MinCPUs, MaxCPUs)
	}
	n := &Node{name: name}
	n.busUp[BusX] = true
	n.busUp[BusY] = true
	for i := 0; i < cpus; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		n.cpus = append(n.cpus, &CPU{node: n, id: i, up: true, ctx: ctx, cancel: cancel})
	}
	return n, nil
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// NumCPUs returns the number of processor modules in the node.
func (n *Node) NumCPUs() int { return len(n.cpus) }

// CPU returns the CPU with the given index, or an error if out of range.
func (n *Node) CPU(i int) (*CPU, error) {
	if i < 0 || i >= len(n.cpus) {
		return nil, fmt.Errorf("%w: %d on node %s", ErrBadCPU, i, n.name)
	}
	return n.cpus[i], nil
}

// CPUs returns all CPUs of the node in index order.
func (n *Node) CPUs() []*CPU {
	out := make([]*CPU, len(n.cpus))
	copy(out, n.cpus)
	return out
}

// UpCPUs returns the indices of the CPUs that are currently up.
func (n *Node) UpCPUs() []int {
	var up []int
	for _, c := range n.cpus {
		if c.Up() {
			up = append(up, c.id)
		}
	}
	return up
}

// FirstUpCPU returns the lowest-numbered up CPU; false when every CPU is
// down. Unlike UpCPUs it allocates nothing.
func (n *Node) FirstUpCPU() (int, bool) {
	for _, c := range n.cpus {
		if c.Up() {
			return c.id, true
		}
	}
	return 0, false
}

// NthUpCPU returns the up CPU at position k modulo the number of up CPUs,
// counting in index order, so successive k rotate over the up CPUs; false
// when every CPU is down. Unlike UpCPUs it allocates nothing.
func (n *Node) NthUpCPU(k uint64) (int, bool) {
	var up uint64
	for _, c := range n.cpus {
		if c.Up() {
			up++
		}
	}
	if up == 0 {
		return 0, false
	}
	k %= up
	for _, c := range n.cpus {
		if c.Up() {
			if k == 0 {
				return c.id, true
			}
			k--
		}
	}
	// Every CPU counted above went down meanwhile.
	return 0, false
}

// Watch registers a callback invoked (synchronously, in failure-injection
// order) for every hardware event on the node.
func (n *Node) Watch(fn func(Event)) {
	n.mu.Lock()
	n.watchers = append(n.watchers, fn)
	n.mu.Unlock()
}

// Unwatch drops every registered watcher. Total node failure leaves no
// process for an event to reach; the software that restarts the node
// registers its own.
func (n *Node) Unwatch() {
	n.mu.Lock()
	n.watchers = nil
	n.mu.Unlock()
}

func (n *Node) notify(e Event) {
	n.mu.Lock()
	ws := make([]func(Event), len(n.watchers))
	copy(ws, n.watchers)
	n.mu.Unlock()
	for _, w := range ws {
		w(e)
	}
}

// FailCPU simulates the failure of a single processor module. Every process
// on the CPU is stopped via context cancellation and a cpu-down event is
// broadcast. Failing an already-down CPU is a no-op.
func (n *Node) FailCPU(i int) error {
	c, err := n.CPU(i)
	if err != nil {
		return err
	}
	if c.fail() {
		n.notify(Event{Kind: EventCPUDown, CPU: i})
	}
	return nil
}

// ReviveCPU brings a failed CPU back with a fresh incarnation. In the
// paper's world this is "reload": the CPU returns empty and services are
// re-balanced onto it.
func (n *Node) ReviveCPU(i int) error {
	c, err := n.CPU(i)
	if err != nil {
		return err
	}
	if c.revive() {
		n.notify(Event{Kind: EventCPUUp, CPU: i})
	}
	return nil
}

// FailBus takes one interprocessor bus down. Traffic fails over to the
// surviving bus.
func (n *Node) FailBus(b BusID) {
	n.mu.Lock()
	changed := n.busUp[b]
	n.busUp[b] = false
	n.mu.Unlock()
	if changed {
		n.notify(Event{Kind: EventBusDown, Bus: b})
	}
}

// ReviveBus restores a failed bus.
func (n *Node) ReviveBus(b BusID) {
	n.mu.Lock()
	changed := !n.busUp[b]
	n.busUp[b] = true
	n.mu.Unlock()
	if changed {
		n.notify(Event{Kind: EventBusUp, Bus: b})
	}
}

// BusTraffic returns the number of messages carried by each bus since the
// node was created. Used by the broadcast-cost experiment.
func (n *Node) BusTraffic() (x, y uint64) {
	return n.busTraffic[BusX].Load(), n.busTraffic[BusY].Load()
}

// Transfer carries one interprocessor message between two CPUs of the node.
// It validates that both endpoints are up and that at least one bus is
// available (failing over from X to Y transparently), then invokes deliver.
// It returns ErrCPUDown if either endpoint is down and ErrBusesDown if both
// buses have failed.
func (n *Node) Transfer(from, to int, deliver func()) error {
	cf, err := n.CPU(from)
	if err != nil {
		return err
	}
	ct, err := n.CPU(to)
	if err != nil {
		return err
	}
	if !cf.Up() {
		return fmt.Errorf("%w: cpu %d (sender)", ErrCPUDown, from)
	}
	if !ct.Up() {
		return fmt.Errorf("%w: cpu %d (receiver)", ErrCPUDown, to)
	}
	if from != to {
		n.mu.Lock()
		var bus BusID
		switch {
		case n.busUp[BusX]:
			bus = BusX
		case n.busUp[BusY]:
			bus = BusY
		default:
			n.mu.Unlock()
			return ErrBusesDown
		}
		n.mu.Unlock()
		n.busTraffic[bus].Add(1)
	}
	deliver()
	return nil
}
