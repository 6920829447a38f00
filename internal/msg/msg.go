// Package msg implements the message system of the simulated Tandem
// operating system. As in the paper, "all communications between processes
// is via messages" and the message system "makes the physical distribution
// of hardware components transparent to processes".
//
// A Process is a goroutine hosted on a hw.CPU with an inbox. Processes are
// addressed logically by Addr{Node, Name}; the name registry on each node
// resolves a name to the PID of the process currently serving it, which is
// how process-pair takeover stays transparent to requesters: the backup
// re-registers the service name and subsequent calls reach it.
//
// Intra-node traffic rides the dual interprocessor buses (hw.Node.Transfer);
// inter-node traffic is handed to a RemoteSender installed by the network
// layer (package expand), which moves each message between nodes as one
// flat, self-contained frame (wire.go): a fixed header, then a payload tag
// from the table RegisterPayload fills and the payload's own encoding.
package msg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/hw"
)

// Errors reported by the message system.
var (
	ErrNoSuchName   = errors.New("msg: no process registered under name")
	ErrProcessDead  = errors.New("msg: destination process has exited")
	ErrNoRemote     = errors.New("msg: node is not attached to a network")
	ErrCallTimeout  = errors.New("msg: call timed out")
	ErrInboxBlocked = errors.New("msg: destination inbox blocked")
)

// PID identifies a process instance: the node it runs on, the CPU hosting
// it, and a node-unique sequence number.
type PID struct {
	Node string
	CPU  int
	Seq  uint64
}

// IsZero reports whether the PID is the zero value.
func (p PID) IsZero() bool { return p == PID{} }

// String renders the PID as node/cpu:seq.
func (p PID) String() string { return fmt.Sprintf("%s/%d:%d", p.Node, p.CPU, p.Seq) }

// Addr is the logical address of a service: a node name plus a registered
// process name, the simulation's analogue of Guardian's \node.$process.
type Addr struct {
	Node string
	Name string
}

// String renders the address in Guardian \node.$name style.
func (a Addr) String() string { return `\` + a.Node + ".$" + a.Name }

// Message is the unit of interprocess communication.
type Message struct {
	From    PID
	FromSys string // node name of the caller, used to route replies
	To      Addr
	Kind    string
	Corr    uint64 // correlation id for request/reply matching
	IsReply bool
	Err     string // non-empty on an error reply
	Payload any
}

// RemoteError is returned by Call when the remote server replied with an
// application-level error.
type RemoteError struct{ Msg string }

// Error implements the error interface.
func (e *RemoteError) Error() string { return "msg: remote error: " + e.Msg }

// RemoteSender moves a message to another node. Implemented by the network
// layer.
type RemoteSender interface {
	SendRemote(dest string, m Message) error
}

const inboxDepth = 1024

// inboxFullTimeout bounds how long a sender waits on a full inbox before
// dropping the message (the destination is stuck; the caller's timeout
// fires).
const inboxFullTimeout = 5 * time.Second

// Process is a simulated Guardian process: a goroutine with an inbox,
// hosted on one CPU incarnation. A CPU failure halts every process it
// hosts permanently: reviving the CPU is a cold load, and only freshly
// spawned processes run on the new incarnation.
type Process struct {
	sys  *System
	pid  PID
	cpu  *hw.CPU
	name string
	// ctx is the hosting CPU incarnation's context, captured at spawn.
	// It stays cancelled after the CPU is revived, so a process that was
	// on a failed CPU can never serve, reply, or send again.
	ctx context.Context

	inbox chan Message
	done  chan struct{}
	dead  atomic.Bool
}

// PID returns the process identifier.
func (p *Process) PID() PID { return p.pid }

// CPU returns the hosting CPU.
func (p *Process) CPU() *hw.CPU { return p.cpu }

// System returns the message system of the process's node.
func (p *Process) System() *System { return p.sys }

// Name returns the registered name the process was spawned under.
func (p *Process) Name() string { return p.name }

// Context returns a context cancelled when the hosting CPU incarnation
// fails or the process exits. It does NOT recover when the CPU is
// revived: revival is a cold load that only fresh processes survive.
func (p *Process) Context() context.Context { return p.ctx }

// halted reports whether the process's CPU incarnation has failed: the
// process must do no further work of any kind. A halted process that
// was mid-handler when its CPU died (a "zombie") must be unable to
// acknowledge clients or mutate shared state through messages, or its
// effects would fork from the state its promoted backup serves.
func (p *Process) halted() bool { return p.ctx.Err() != nil }

// Recv blocks until a message arrives, the hosting CPU fails, or ctx is
// done. It returns a non-nil error when the process should stop serving.
// A process on a failed CPU never receives another message, even one that
// was queued before the failure: a dead processor does no work.
func (p *Process) Recv(ctx context.Context) (Message, error) {
	if p.halted() {
		return Message{}, ErrProcessDead
	}
	select {
	case m := <-p.inbox:
		if p.halted() {
			return Message{}, ErrProcessDead
		}
		return m, nil
	case <-p.ctx.Done():
		return Message{}, ErrProcessDead
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Call issues a request from this process and waits for the reply.
func (p *Process) Call(ctx context.Context, to Addr, kind string, payload any) (Message, error) {
	if p.halted() {
		return Message{}, fmt.Errorf("%w: %s (cpu halted)", ErrProcessDead, p.pid)
	}
	pend, err := p.sys.start(p.pid, to, kind, payload)
	if err != nil {
		return Message{}, err
	}
	return pend.await(ctx, 0)
}

// Send delivers a one-way message (no reply expected).
func (p *Process) Send(to Addr, kind string, payload any) error {
	if p.halted() {
		return fmt.Errorf("%w: %s (cpu halted)", ErrProcessDead, p.pid)
	}
	return p.sys.send(Message{From: p.pid, FromSys: p.sys.node.Name(), To: to, Kind: kind, Payload: payload})
}

// Forward relays a request this process received to another process,
// unchanged but for its destination: From, FromSys and Corr still name the
// original requester, so the new destination's reply goes straight to it.
// The relay crosses the bus from this process's CPU.
func (p *Process) Forward(to Addr, m *Message) error {
	if p.halted() {
		return fmt.Errorf("%w: %s (cpu halted)", ErrProcessDead, p.pid)
	}
	m.To = to
	return p.sys.sendFrom(p.pid.CPU, m)
}

// Reply answers a request with a payload. A halted process cannot reply:
// the acknowledgment is what makes an operation's effects visible to the
// requester, and a dead processor must not acknowledge anything.
func (p *Process) Reply(req Message, payload any) error {
	if p.halted() {
		return fmt.Errorf("%w: %s (cpu halted)", ErrProcessDead, p.pid)
	}
	return p.sys.reply(&req, payload, "")
}

// ReplyErr answers a request with an application error.
func (p *Process) ReplyErr(req Message, err error) error {
	if p.halted() {
		return fmt.Errorf("%w: %s (cpu halted)", ErrProcessDead, p.pid)
	}
	if err == nil {
		err = errors.New("unknown error")
	}
	return p.sys.reply(&req, nil, err.Error())
}

// Exit marks the process dead and unregisters its name if it still owns it.
func (p *Process) Exit() {
	if p.dead.Swap(true) {
		return
	}
	close(p.done)
	p.sys.unregisterPID(p)
}

// System is the per-node message system: process table, name registry and
// correlation-id waiter table.
type System struct {
	node *hw.Node

	mu      sync.Mutex
	nextPID uint64              // guarded by mu
	procs   map[uint64]*Process // guarded by mu
	names   map[string]*Process // guarded by mu

	nextCorr atomic.Uint64
	waitMu   sync.Mutex
	waiters  map[uint64]*waiter // guarded by waitMu

	remote RemoteSender
}

// NewSystem creates the message system for a node.
func NewSystem(node *hw.Node) *System {
	s := &System{
		node:    node,
		procs:   make(map[uint64]*Process),
		names:   make(map[string]*Process),
		waiters: make(map[uint64]*waiter),
	}
	return s
}

// Node returns the underlying hardware node.
func (s *System) Node() *hw.Node { return s.node }

// AttachNetwork installs the inter-node transport.
func (s *System) AttachNetwork(r RemoteSender) {
	s.mu.Lock()
	s.remote = r
	s.mu.Unlock()
}

// Spawn creates a process on the given CPU, registers it under name (if
// non-empty) and runs fn in a new goroutine. When fn returns the process
// exits. Spawning on a down CPU fails.
func (s *System) Spawn(cpu int, name string, fn func(p *Process)) (*Process, error) {
	c, err := s.node.CPU(cpu)
	if err != nil {
		return nil, err
	}
	if !c.Up() {
		return nil, fmt.Errorf("%w: cpu %d", hw.ErrCPUDown, cpu)
	}
	s.mu.Lock()
	s.nextPID++
	p := &Process{
		sys:   s,
		pid:   PID{Node: s.node.Name(), CPU: cpu, Seq: s.nextPID},
		cpu:   c,
		name:  name,
		ctx:   c.Context(), // this incarnation's context, permanently
		inbox: make(chan Message, inboxDepth),
		done:  make(chan struct{}),
	}
	s.procs[p.pid.Seq] = p
	if name != "" {
		s.names[name] = p
	}
	s.mu.Unlock()
	go func() {
		defer p.Exit()
		fn(p)
	}()
	return p, nil
}

// Register points a service name at the given process, displacing any
// previous registration. Used by process pairs at takeover. A process may
// be registered under several names; all are cleaned up when it exits.
func (s *System) Register(name string, p *Process) {
	s.mu.Lock()
	s.names[name] = p
	s.mu.Unlock()
}

// Lookup resolves a registered name to a live process.
func (s *System) Lookup(name string) (*Process, error) {
	s.mu.Lock()
	p, ok := s.names[name]
	s.mu.Unlock()
	if !ok || p.dead.Load() {
		return nil, fmt.Errorf("%w: %q on %s", ErrNoSuchName, name, s.node.Name())
	}
	return p, nil
}

func (s *System) unregisterPID(p *Process) {
	s.mu.Lock()
	delete(s.procs, p.pid.Seq)
	for name, cur := range s.names {
		if cur == p {
			delete(s.names, name)
		}
	}
	s.mu.Unlock()
}

// ClientCall issues a request on behalf of external code (for example a
// simulated terminal user or a test driver) from the given CPU and waits
// until the reply arrives or ctx is done. The call fails if that CPU is
// down: a request cannot be submitted through a dead processor.
func (s *System) ClientCall(ctx context.Context, fromCPU int, to Addr, kind string, payload any) (Message, error) {
	p, err := s.Start(fromCPU, to, kind, payload)
	if err != nil {
		return Message{}, err
	}
	return p.await(ctx, 0)
}

// CallTimeout is ClientCall bounded by a duration instead of a context: the
// wait is armed on the reply slot's reusable timer, so a call whose reply
// arrives in time allocates nothing.
func (s *System) CallTimeout(fromCPU int, to Addr, kind string, payload any, d time.Duration) (Message, error) {
	p, err := s.Start(fromCPU, to, kind, payload)
	if err != nil {
		return Message{}, err
	}
	return p.Await(d)
}

// Start is the nowait half of a call: it sends a request from the given
// CPU and returns without waiting for the reply, which Await collects. A
// caller that starts several requests before awaiting any has them all on
// their way at once, served concurrently, from one goroutine. Every
// Pending a successful Start returns must be awaited exactly once. A
// failed Start leaves nothing to await.
func (s *System) Start(fromCPU int, to Addr, kind string, payload any) (Pending, error) {
	if c, err := s.node.CPU(fromCPU); err != nil {
		return Pending{}, err
	} else if !c.Up() {
		return Pending{}, fmt.Errorf("%w: cpu %d (caller)", hw.ErrCPUDown, fromCPU)
	}
	return s.start(PID{Node: s.node.Name(), CPU: fromCPU}, to, kind, payload)
}

// waiter is a reply slot: the channel a call's reply lands in and the
// timer that bounds the wait, both reused across calls, plus the request's
// address and kind for a timeout's error. A slot goes back to waiterPool
// only when its reply was received or when its caller removed its own
// waiters entry under waitMu; either way no reply can still be on its way
// into the channel.
type waiter struct {
	ch   chan Message
	t    *time.Timer
	to   Addr
	kind string
}

var waiterPool = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ch: make(chan Message, 1), t: t}
}}

// put returns an empty, unreachable slot to the pool.
func (w *waiter) put() {
	w.to, w.kind = Addr{}, ""
	waiterPool.Put(w)
}

// Pending is a request Start sent whose reply has not been collected: its
// reply slot and correlation id.
type Pending struct {
	s    *System
	w    *waiter
	corr uint64
}

// start takes a reply slot, registers it as the waiter for a fresh
// correlation id and sends the request.
func (s *System) start(from PID, to Addr, kind string, payload any) (Pending, error) {
	corr := s.nextCorr.Add(1)
	w := waiterPool.Get().(*waiter)
	w.to, w.kind = to, kind
	s.waitMu.Lock()
	s.waiters[corr] = w
	s.waitMu.Unlock()

	m := Message{From: from, FromSys: s.node.Name(), To: to, Kind: kind, Corr: corr, Payload: payload}
	if err := s.send(m); err != nil {
		s.withdraw(corr, w)
		return Pending{}, err
	}
	return Pending{s: s, w: w, corr: corr}, nil
}

// Await waits up to d for the reply (with no bound when d <= 0). Running
// out of time is ErrCallTimeout, and a reply that arrives after it is
// dropped.
func (p Pending) Await(d time.Duration) (Message, error) {
	return p.await(context.Background(), d)
}

// await waits for the reply until ctx is done or, when d > 0, until d has
// passed. Either ending is ErrCallTimeout.
func (p Pending) await(ctx context.Context, d time.Duration) (Message, error) {
	w := p.w
	var deadline <-chan time.Time
	if d > 0 {
		w.t.Reset(d)
		deadline = w.t.C
	}
	var (
		r     Message
		cause error
	)
	select {
	case r = <-w.ch:
	case <-deadline:
		cause = context.DeadlineExceeded
	case <-ctx.Done():
		cause = ctx.Err()
	}
	if d > 0 {
		// Stop guarantees the timer delivers nothing stale to the slot's
		// next call (Go 1.23 timer semantics, required by go.mod).
		w.t.Stop()
	}
	if cause != nil {
		err := fmt.Errorf("%w: %s %s: %v", ErrCallTimeout, w.to, w.kind, cause)
		p.s.withdraw(p.corr, w)
		return Message{}, err
	}
	w.put()
	if r.Err != "" {
		return r, &RemoteError{Msg: r.Err}
	}
	return r, nil
}

// withdraw ends a call that will not read its reply. If the caller still
// owns its waiters entry, removing it proves no reply can land in the
// slot; otherwise completeCall has claimed the entry and is about to fill
// the channel, so the reply is drained and dropped. Either way the slot is
// empty and unreachable and goes back to the pool.
func (s *System) withdraw(corr uint64, w *waiter) {
	s.waitMu.Lock()
	_, owned := s.waiters[corr]
	delete(s.waiters, corr)
	s.waitMu.Unlock()
	if !owned {
		<-w.ch
	}
	w.put()
}

// send routes a message locally or hands it to the network.
func (s *System) send(m Message) error { return s.sendFrom(m.From.CPU, &m) }

// sendFrom is send with the CPU the bus transfer starts from given apart
// from the sender, for a relay.
func (s *System) sendFrom(fromCPU int, m *Message) error {
	if m.To.Node != "" && m.To.Node != s.node.Name() {
		return s.sendRemote(m.To.Node, m)
	}
	p, err := s.Lookup(m.To.Name)
	if err != nil {
		return err
	}
	return s.deliverLocal(fromCPU, p, *m)
}

func (s *System) deliverLocal(fromCPU int, p *Process, m Message) error {
	if p.halted() && p.cpu.Up() {
		// The process died with an earlier CPU incarnation; the CPU was
		// since revived (cold load), but the old process never serves
		// again. With the CPU still down, Transfer reports ErrCPUDown.
		return fmt.Errorf("%w: %s", ErrProcessDead, p.pid)
	}
	return s.node.Transfer(fromCPU, p.pid.CPU, func() {
		// The inbox almost always has room: try a plain send first so the
		// common delivery does not arm the full-inbox timer below. A
		// message queued to a halted process is never served — Recv
		// re-checks halted() after every dequeue.
		select {
		case p.inbox <- m:
			return
		default:
		}
		select {
		case p.inbox <- m:
		case <-p.ctx.Done():
		case <-p.done:
		case <-time.After(inboxFullTimeout):
			// A full inbox for this long indicates a stuck server; the
			// message is dropped and the caller's timeout fires.
		}
	})
}

// DeliverFromNetwork injects a message that arrived from another node. The
// network layer calls it on the destination node's system. Replies are
// routed to local waiters; requests are resolved by name locally.
func (s *System) DeliverFromNetwork(m Message) error {
	if m.IsReply {
		s.completeCall(&m)
		return nil
	}
	p, err := s.Lookup(m.To.Name)
	if err != nil {
		// Send an error reply home so the caller fails fast rather than
		// timing out.
		if m.Corr != 0 {
			s.routeReply(&m, nil, err.Error())
		}
		return err
	}
	// Deliver on behalf of a CPU-less network entity: use the receiver's
	// own CPU as the transfer source so only receiver liveness matters.
	return s.deliverLocal(p.pid.CPU, p, m)
}

// reply and the functions it calls take the request and the reply by
// pointer: every answer passes through them, and copying the 144-byte
// Message at each step would cost every served request time and stack.
func (s *System) reply(req *Message, payload any, errStr string) error {
	if req.Corr == 0 {
		return nil // one-way message, nothing to answer
	}
	return s.routeReply(req, payload, errStr)
}

func (s *System) routeReply(req *Message, payload any, errStr string) error {
	r := Message{
		FromSys: s.node.Name(),
		To:      Addr{Node: req.FromSys},
		Kind:    req.Kind,
		Corr:    req.Corr,
		IsReply: true,
		Err:     errStr,
		Payload: payload,
	}
	if req.FromSys != "" && req.FromSys != s.node.Name() {
		return s.sendRemote(req.FromSys, &r)
	}
	s.completeCall(&r)
	return nil
}

// sendRemote hands m to the network for node dest.
func (s *System) sendRemote(dest string, m *Message) error {
	s.mu.Lock()
	r := s.remote
	s.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: %s", ErrNoRemote, s.node.Name())
	}
	return r.SendRemote(dest, *m)
}

func (s *System) completeCall(r *Message) {
	s.waitMu.Lock()
	w, ok := s.waiters[r.Corr]
	if ok {
		delete(s.waiters, r.Corr)
	}
	s.waitMu.Unlock()
	if ok {
		w.ch <- *r
	}
}
