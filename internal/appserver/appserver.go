// Package appserver implements ENCOMPASS application control: classes of
// context-free application "server" programs with "dynamic creation and
// deletion of application server processes to ensure good response time
// and utilization of resources as the workload on the system changes."
//
// A server program is "simple and single-threaded: (1) read the
// transaction request message; (2) perform the data base function
// requested; (3) reply", retaining no memory between requests. The Handler
// signature enforces that shape.
//
// Each class runs a dispatcher process (the link manager) registered under
// "svc-<class>". It relays requests to instance processes round-robin,
// spawning instances up to MaxInstances when all are busy and retiring
// idle ones down to MinInstances.
package appserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// KindRequest is the message kind carrying application requests.
const KindRequest = "server.request"

// internal kinds
const (
	kindDone = "server.done"
)

// Req is a transaction request message: the current transid (appended by
// the File System on every SEND while the terminal is in transaction
// mode) plus named fields. It travels by pointer and belongs to the
// caller, who may reuse it once the reply has arrived; until then the
// server may still read it.
type Req struct {
	Tx     txid.ID
	Fields map[string]string
}

// Resp carries the server's reply fields.
type Resp struct {
	Fields map[string]string
}

// A server class may run on another node, so requests and replies have
// wire tags in appserver's block (48-55).
func init() {
	msg.RegisterPayload(48,
		func(b []byte, r *Req) []byte { return appendFields(txid.AppendID(b, r.Tx), r.Fields) },
		func(r *msg.Reader) *Req { return &Req{Tx: txid.ReadID(r), Fields: readFields(r)} })
	msg.RegisterPayload(49,
		func(b []byte, r Resp) []byte { return appendFields(b, r.Fields) },
		func(r *msg.Reader) Resp { return Resp{Fields: readFields(r)} })
}

// appendFields appends a field map in key order, so one map has one
// encoding.
func appendFields(b []byte, fields map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(fields)))
	for _, k := range slices.Sorted(maps.Keys(fields)) {
		b = msg.AppendBytes(b, k)
		b = msg.AppendBytes(b, fields[k])
	}
	return b
}

// readFields reads a map appendFields wrote; keys out of order are an
// error, and an empty map decodes as nil.
func readFields(r *msg.Reader) map[string]string {
	n := r.Len()
	if n == 0 {
		return nil
	}
	fields := make(map[string]string, n)
	prev := ""
	for i := range n {
		k := r.Str()
		if i > 0 && k <= prev {
			r.Fail(errFieldOrder)
			return nil
		}
		fields[k], prev = r.Str(), k
	}
	return fields
}

var errFieldOrder = errors.New("appserver: request fields out of order")

// Handler is the application function of a server class. It must be
// context-free: everything it needs arrives in the request, everything it
// produces leaves in the reply.
type Handler func(tx txid.ID, fields map[string]string) (map[string]string, error)

// Config describes a server class.
type Config struct {
	Class        string
	Handler      Handler
	MinInstances int
	MaxInstances int
	// CPUs lists processors to spread instances over; defaults to all.
	CPUs []int
}

// Stats counts class activity.
type Stats struct {
	Dispatched uint64
	Created    uint64
	Retired    uint64
	Instances  int
	QueuedPeak uint64
}

// ClassName returns the registered dispatcher name for a class.
func ClassName(class string) string { return "svc-" + class }

type instance struct {
	name string
	pid  msg.PID
	busy bool
}

// Class is a running server class.
type Class struct {
	sys  *msg.System
	cfg  Config
	name string // the dispatcher's registered name, ClassName(cfg.Class)

	dispatched    atomic.Uint64
	dispatcherCPU atomic.Int64
	created       atomic.Uint64
	retired       atomic.Uint64
	queuedPeak    atomic.Uint64
	instCount     atomic.Int64
}

// Start launches the class: its dispatcher and MinInstances servers. The
// application-control monitor restarts the dispatcher on another CPU if
// its processor fails; in-flight requests surface as errors to their
// requesters, whose transactions TMF backs out and restarts — the paper's
// point that transaction backout makes process-pair application coding
// unnecessary.
func Start(sys *msg.System, cfg Config) (*Class, error) {
	if cfg.Class == "" || cfg.Handler == nil {
		return nil, errors.New("appserver: class needs a name and a handler")
	}
	if cfg.MinInstances <= 0 {
		cfg.MinInstances = 1
	}
	if cfg.MaxInstances < cfg.MinInstances {
		cfg.MaxInstances = cfg.MinInstances
	}
	if len(cfg.CPUs) == 0 {
		cfg.CPUs = sys.Node().UpCPUs()
	}
	c := &Class{sys: sys, cfg: cfg, name: ClassName(cfg.Class)}
	namesMu.Lock()
	dispatcherNames[cfg.Class] = c.name
	namesMu.Unlock()
	if err := c.startDispatcher(cfg.CPUs[0]); err != nil {
		return nil, err
	}
	sys.Node().Watch(c.onHWEvent)
	return c, nil
}

func (c *Class) startDispatcher(cpu int) error {
	p, err := c.sys.Spawn(cpu, c.name, c.dispatcherLoop)
	if err != nil {
		return err
	}
	c.dispatcherCPU.Store(int64(p.PID().CPU))
	return nil
}

// onHWEvent restarts the dispatcher (application-control monitoring) when
// its processor fails. The instances died with their dispatcher's
// bookkeeping; the respawned dispatcher rebuilds its minimum pool.
func (c *Class) onHWEvent(e hw.Event) {
	if e.Kind != hw.EventCPUDown || int64(e.CPU) != c.dispatcherCPU.Load() {
		return
	}
	for _, cpu := range c.sys.Node().UpCPUs() {
		if c.startDispatcher(cpu) == nil {
			return
		}
	}
}

// Stats returns activity counters.
func (c *Class) Stats() Stats {
	return Stats{
		Dispatched: c.dispatched.Load(),
		Created:    c.created.Load(),
		Retired:    c.retired.Load(),
		Instances:  int(c.instCount.Load()),
		QueuedPeak: c.queuedPeak.Load(),
	}
}

// dispatcherLoop is the link manager: it queues requests and relays each
// to an idle instance, growing and shrinking the instance pool. A relayed
// request still names its requester, so the instance answers it directly;
// the instance's done notice names the instance by its sender PID.
func (c *Class) dispatcherLoop(p *msg.Process) {
	var instances []*instance
	var queue []msg.Message
	nextCPU := 0
	seq := 0

	spawn := func() *instance {
		// Prefer the configured processors; when every one of them is down
		// (the dispatcher itself was respawned elsewhere after a CPU
		// failure) fall back to any up CPU rather than queueing forever.
		cpu := -1
		for range c.cfg.CPUs {
			cand := c.cfg.CPUs[nextCPU%len(c.cfg.CPUs)]
			nextCPU++
			if up, err := c.sys.Node().CPU(cand); err == nil && up.Up() {
				cpu = cand
				break
			}
		}
		if cpu < 0 {
			if ups := c.sys.Node().UpCPUs(); len(ups) > 0 {
				cpu = ups[0]
			} else {
				return nil
			}
		}
		seq++
		name := fmt.Sprintf("%s#%d", c.name, seq)
		ip, err := c.sys.Spawn(cpu, name, c.instanceLoop)
		if err != nil {
			return nil
		}
		c.created.Add(1)
		c.instCount.Add(1)
		return &instance{name: name, pid: ip.PID()}
	}
	for i := 0; i < c.cfg.MinInstances; i++ {
		if inst := spawn(); inst != nil {
			instances = append(instances, inst)
		}
	}

	dispatch := func() {
		for len(queue) > 0 {
			var idle *instance
			for _, in := range instances {
				if !in.busy {
					idle = in
					break
				}
			}
			if idle == nil {
				if len(instances) < c.cfg.MaxInstances {
					if inst := spawn(); inst != nil {
						instances = append(instances, inst)
						idle = inst
					}
				}
				if idle == nil {
					return // all busy at max: leave queued
				}
			}
			// Relay the message unchanged: the instance replies directly
			// to the original requester via its correlation id.
			if err := p.Forward(msg.Addr{Name: idle.name}, &queue[0]); err != nil {
				// Instance unreachable (its CPU died): drop it and retry.
				instances = removeInst(instances, idle)
				c.instCount.Add(-1)
				continue
			}
			// Shift the queue down in place, so its backing array is
			// reused instead of regrown behind a moving head.
			n := copy(queue, queue[1:])
			queue[n] = msg.Message{}
			queue = queue[:n]
			idle.busy = true
			c.dispatched.Add(1)
		}
	}

	for {
		m, err := p.Recv(context.Background())
		if err != nil {
			return
		}
		switch m.Kind {
		case KindRequest:
			queue = append(queue, m)
			if q := uint64(len(queue)); q > c.queuedPeak.Load() {
				c.queuedPeak.Store(q)
			}
			dispatch()
		case kindDone:
			var done *instance
			for _, in := range instances {
				if in.pid == m.From {
					in.busy, done = false, in
					break
				}
			}
			// Shrink: retire an idle instance when over the minimum and
			// nothing is waiting.
			if len(queue) == 0 && len(instances) > c.cfg.MinInstances {
				for i, in := range instances {
					if in == done {
						if err := p.Send(msg.Addr{Name: in.name}, "server.retire", nil); err != nil {
							// Retire notice undeliverable: keep the instance
							// listed rather than orphaning a live process.
							break
						}
						instances = append(instances[:i], instances[i+1:]...)
						c.retired.Add(1)
						c.instCount.Add(-1)
						break
					}
				}
			}
			dispatch()
		}
	}
}

func removeInst(list []*instance, in *instance) []*instance {
	for i, x := range list {
		if x == in {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// instanceLoop is one server process: read request, perform the data base
// function, reply — context-free.
func (c *Class) instanceLoop(p *msg.Process) {
	for {
		m, err := p.Recv(context.Background())
		if err != nil {
			return
		}
		switch m.Kind {
		case "server.retire":
			return
		case KindRequest:
			// The dispatcher forwarded the requester's own message.
			req, ok := m.Payload.(*Req)
			if !ok {
				p.ReplyErr(m, errors.New("appserver: malformed request"))
			} else {
				fields, err := c.cfg.Handler(req.Tx, req.Fields)
				if err != nil {
					p.ReplyErr(m, err)
				} else {
					p.Reply(m, Resp{Fields: fields})
				}
			}
			if err := p.Send(msg.Addr{Name: c.name}, kindDone, nil); err != nil {
				// The dispatcher never learns this instance is free, so no
				// further work can reach it: exit instead of leaking a
				// permanently-busy server.
				return
			}
		}
	}
}

// reqs recycles CallTimeout's request frames. A frame goes back only once
// its reply has arrived, success or application error; a call that timed
// out leaves its frame to the garbage collector, because a late server may
// still read it.
var reqs = sync.Pool{New: func() any { return new(Req) }}

// CallTimeout sends a transaction request to a server class (node may be
// empty for the local node) and returns the reply fields, waiting up to d.
// A request of a transaction to another node goes through the node's
// monitor mon, whose first one there carries the remote transaction
// begin; mon may be nil on a node without TMF.
func CallTimeout(sys *msg.System, mon *tmf.Monitor, fromCPU int, node, class string, tx txid.ID, fields map[string]string, d time.Duration) (map[string]string, error) {
	req := reqs.Get().(*Req)
	req.Tx, req.Fields = tx, fields
	var (
		r   msg.Message
		err error
	)
	if to := classAddr(sys, node, class); to.Node != "" && !tx.IsZero() && mon != nil {
		r, err = mon.Call(fromCPU, tx, to, KindRequest, req, d)
	} else {
		r, err = sys.CallTimeout(fromCPU, to, KindRequest, req, d)
	}
	if !errors.Is(err, msg.ErrCallTimeout) {
		*req = Req{}
		reqs.Put(req)
	}
	return replyFields(r, err)
}

// dispatcherNames registers, at Start, each class's dispatcher name, so a
// call to a started class does not build the name each time.
var (
	namesMu         sync.RWMutex
	dispatcherNames = map[string]string{} // guarded by namesMu
)

// classAddr addresses a server class's dispatcher; node may be empty for
// the local node.
func classAddr(sys *msg.System, node, class string) msg.Addr {
	namesMu.RLock()
	name, ok := dispatcherNames[class]
	namesMu.RUnlock()
	if !ok {
		name = ClassName(class)
	}
	addr := msg.Addr{Name: name}
	if node != "" && node != sys.Node().Name() {
		addr.Node = node
	}
	return addr
}

func replyFields(r msg.Message, err error) (map[string]string, error) {
	if err != nil {
		return nil, err
	}
	resp, ok := r.Payload.(Resp)
	if !ok {
		return nil, errors.New("appserver: malformed reply")
	}
	return resp.Fields, nil
}
