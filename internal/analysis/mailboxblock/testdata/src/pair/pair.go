// Test fixture for the mailboxblock analyzer: blocking mailbox calls
// (IPC sends, nowait starts and their awaits, checkpoints, audit calls)
// made while a mutex is held.
package pair

import "sync"

type Process struct{}

func (*Process) Send(addr, kind, payload any) error { return nil }
func (*Process) Forward(addr, m any) error          { return nil }

type System struct{}

func (*System) CallTimeout(cpu int, to, kind, payload any, d int) (any, error) { return nil, nil }
func (*System) Start(cpu int, to, kind, payload any) (Pending, error)          { return Pending{}, nil }

// Pending is a value, as the message system's is.
type Pending struct{}

func (Pending) Await(d int) (any, error) { return nil, nil }

// Ctx has value receivers, as the pair package's does: a call through a
// value and a call through a pointer must both be seen.
type Ctx struct{}

func (Ctx) Checkpoint(rec any) error { return nil }

type Client struct{}

type AppendReq struct{ Images []byte }

func (*Client) Append(fromCPU int, req *AppendReq) error { return nil }
func (*Client) Force(cpu int, upTo uint64) error         { return nil }

type server struct {
	mu   sync.Mutex
	proc *Process
	n    int
}

func (s *server) badCheckpoint(ctx *Ctx) {
	s.mu.Lock()
	_ = ctx.Checkpoint(nil) // want "blocking Ctx.Checkpoint while holding mutex s.mu"
	s.mu.Unlock()
}

func (s *server) badCheckpointValue(ctx Ctx) {
	s.mu.Lock()
	_ = ctx.Checkpoint(nil) // want "blocking Ctx.Checkpoint while holding mutex s.mu"
	s.mu.Unlock()
}

func (s *server) badSend() {
	s.mu.Lock()
	_ = s.proc.Send(nil, nil, nil) // want "blocking Process.Send while holding mutex s.mu"
	s.mu.Unlock()
}

func (s *server) badForward() {
	s.mu.Lock()
	_ = s.proc.Forward(nil, nil) // want "blocking Process.Forward while holding mutex s.mu"
	s.mu.Unlock()
}

func (s *server) badCallTimeout(sys *System) {
	s.mu.Lock()
	_, _ = sys.CallTimeout(0, nil, nil, nil, 0) // want "blocking System.CallTimeout while holding mutex s.mu"
	s.mu.Unlock()
}

func (s *server) badStart(sys *System) {
	s.mu.Lock()
	p, _ := sys.Start(0, nil, nil, nil) // want "blocking System.Start while holding mutex s.mu"
	s.mu.Unlock()
	_, _ = p.Await(0)
}

// badAwait: the request went out unlocked, but its reply is waited for
// under the lock.
func (s *server) badAwait(sys *System) {
	p, _ := sys.Start(0, nil, nil, nil)
	s.mu.Lock()
	_, _ = p.Await(0) // want "blocking Pending.Await while holding mutex s.mu"
	s.mu.Unlock()
}

// badDefer: a deferred unlock keeps the mutex held for the whole body.
func (s *server) badDefer(cl *Client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cl.Force(0, 1) // want "blocking Client.Force while holding mutex s.mu"
}

func (s *server) badAppend(cl *Client, req *AppendReq) {
	s.mu.Lock()
	_ = cl.Append(0, req) // want "blocking Client.Append while holding mutex s.mu"
	s.mu.Unlock()
}

// goodAfterUnlock: snapshot under the lock, send outside it.
func (s *server) goodAfterUnlock(ctx Ctx) error {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	_ = n
	return ctx.Checkpoint(nil)
}

// goodStartAwait: every start goes out, and every reply is collected,
// with no lock held.
func (s *server) goodStartAwait(sys *System) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	ps := make([]Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := sys.Start(i, nil, nil, nil)
		if err == nil {
			ps = append(ps, p)
		}
	}
	for _, p := range ps {
		_, _ = p.Await(0)
	}
}

// goodFuncLit: the literal runs later (on another goroutine), outside the
// lock section.
func (s *server) goodFuncLit() {
	s.mu.Lock()
	go func() {
		_ = s.proc.Send(nil, nil, nil)
	}()
	s.mu.Unlock()
}
