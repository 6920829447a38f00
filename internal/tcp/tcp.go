// Package tcp implements the ENCOMPASS Terminal Control Process: a
// process-pair that interprets Screen COBOL programs on behalf of up to 32
// terminals, supervising their interleaved execution. "As a result of the
// fault tolerance thus provided, the terminal user has continuous access
// to the executing Screen COBOL program despite module failure, including
// processor failure."
//
// The TCP checkpoints each program's restart point — the variables
// captured at BEGIN-TRANSACTION, including data extracted from input
// screens — to its backup. After a takeover the backup restarts each
// in-flight program at its BEGIN-TRANSACTION with the checkpointed input,
// so "in many cases the restart of a logical transaction may not require
// re-entering the input screen(s)". TMF backs out the interrupted
// transaction automatically (it was begun on the failed processor).
package tcp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"encompass/internal/appserver"
	"encompass/internal/msg"
	"encompass/internal/pair"
	"encompass/internal/scobol"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// MaxTerminals is the paper's TCP capacity: "A TCP controls up to 32
// terminals".
const MaxTerminals = 32

// message kinds inside the TCP
const (
	kindAttach   = "tcp.attach"
	kindCkpt     = "tcp.ckpt"
	kindFinished = "tcp.finished"
)

// Errors reported by the TCP.
var (
	ErrTooManyTerminals = errors.New("tcp: terminal limit reached")
	ErrDupTerminal      = errors.New("tcp: terminal already attached")
	ErrNoTerminal       = errors.New("tcp: no such terminal")
	// ErrNotFinished is Wait's error when the program is still running
	// at the timeout; any other error is the program's own.
	ErrNotFinished = errors.New("tcp: program did not finish")
)

// The TCP's own requests go only to its own pair, on the same node
// (msg.Addr{Name: ...}), so they are never encoded and have no wire tag.
type attachReq struct {
	TermID string
	Src    string
}

type ckptReq struct {
	TermID string
	Snap   scobol.Snapshot
}

type finishedReq struct {
	TermID string
	Err    string
}

// Config describes a TCP.
type Config struct {
	Name                  string
	PrimaryCPU, BackupCPU int
	Mon                   *tmf.Monitor
	// MaxRestarts is the configurable transaction restart limit.
	MaxRestarts int
	// SendTimeout bounds each SEND to a server class.
	SendTimeout time.Duration
}

// Terminal is the user-side handle: the simulated physical terminal. It
// survives TCP takeovers — the screen and keyboard do not crash when a
// processor does.
type Terminal struct {
	ID string

	inputs chan map[string]string

	mu       sync.Mutex
	outputs  []string
	done     chan struct{}
	doneOnce sync.Once
	err      error
}

// Input supplies one screen's worth of field values (an ACCEPT consumes
// one entry). Once the program has finished, nothing reads the entry and
// Input returns at once.
func (t *Terminal) Input(fields map[string]string) {
	cp := make(map[string]string, len(fields))
	for k, v := range fields {
		cp[strings.ToUpper(k)] = v
	}
	select {
	case t.inputs <- cp:
	case <-t.done:
	}
}

// Outputs returns everything the program has DISPLAYed so far.
func (t *Terminal) Outputs() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.outputs...)
}

// Wait blocks until the program finishes (STOP RUN or END-PROC) and
// returns its error, or returns ErrNotFinished after timeout.
func (t *Terminal) Wait(timeout time.Duration) error {
	select {
	case <-t.done:
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.err
	case <-time.After(timeout):
		return fmt.Errorf("%w: terminal %s, within %v", ErrNotFinished, t.ID, timeout)
	}
}

func (t *Terminal) display(s string) {
	t.mu.Lock()
	t.outputs = append(t.outputs, s)
	t.mu.Unlock()
}

func (t *Terminal) finish(err error) {
	t.doneOnce.Do(func() {
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		close(t.done)
	})
}

// TCP is a running Terminal Control Process pair.
type TCP struct {
	sys  *msg.System
	cfg  Config
	pair *pair.Pair

	mu        sync.Mutex
	terminals map[string]*Terminal
}

// Start launches a TCP pair.
func Start(sys *msg.System, cfg Config) (*TCP, error) {
	if cfg.Name == "" {
		cfg.Name = "tcp"
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 3
	}
	if cfg.SendTimeout <= 0 {
		cfg.SendTimeout = 10 * time.Second
	}
	t := &TCP{sys: sys, cfg: cfg, terminals: make(map[string]*Terminal)}
	p, err := pair.Start(sys, cfg.Name, cfg.PrimaryCPU, cfg.BackupCPU, func() pair.App {
		return newTCPApp(t)
	})
	if err != nil {
		return nil, err
	}
	t.pair = p
	return t, nil
}

// Pair exposes the underlying process pair (for failure experiments).
func (t *TCP) Pair() *pair.Pair { return t.pair }

// Attach registers a terminal running the given Screen COBOL source and
// starts executing it.
func (t *TCP) Attach(termID, src string) (*Terminal, error) {
	if _, err := scobol.Parse(src); err != nil {
		return nil, err
	}
	t.mu.Lock()
	if _, ok := t.terminals[termID]; ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDupTerminal, termID)
	}
	if len(t.terminals) >= MaxTerminals {
		t.mu.Unlock()
		return nil, ErrTooManyTerminals
	}
	term := &Terminal{ID: termID, inputs: make(chan map[string]string, 16), done: make(chan struct{})}
	t.terminals[termID] = term
	t.mu.Unlock()

	// With every CPU down, cpu stays 0 and the call fails with ErrCPUDown.
	cpu, _ := t.sys.Node().FirstUpCPU()
	_, err := t.sys.CallTimeout(cpu, msg.Addr{Name: t.cfg.Name}, kindAttach, attachReq{TermID: termID, Src: src}, 5*time.Second)
	if err != nil {
		t.mu.Lock()
		delete(t.terminals, termID)
		t.mu.Unlock()
		return nil, err
	}
	return term, nil
}

// Terminal returns an attached terminal's handle.
func (t *TCP) Terminal(termID string) (*Terminal, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	term, ok := t.terminals[termID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTerminal, termID)
	}
	return term, nil
}

// termState is the replicated per-terminal TCP state.
type termState struct {
	Src      string
	Snap     *scobol.Snapshot
	Finished bool
}

// tcpApp is the pair application: its replicated state is each terminal's
// program source, restart snapshot, and completion flag.
type tcpApp struct {
	tcp   *TCP
	terms map[string]*termState
}

func newTCPApp(t *TCP) *tcpApp {
	return &tcpApp{tcp: t, terms: make(map[string]*termState)}
}

func (a *tcpApp) Handle(ctx pair.Ctx) {
	m := ctx.Req()
	switch m.Kind {
	case kindAttach:
		req := m.Payload.(attachReq)
		a.terms[req.TermID] = &termState{Src: req.Src}
		//lint:allow droppederr ErrNoBackup: the TCP keeps serving terminals in degraded single-module mode; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its terminal table dies with it
		ctx.Checkpoint(ckRec{Attach: &req})
		a.spawnExecutor(ctx.Proc().PID().CPU, req.TermID, req.Src, nil)
		ctx.Reply(nil)
	case kindCkpt:
		req := m.Payload.(ckptReq)
		if ts, ok := a.terms[req.TermID]; ok {
			snap := req.Snap
			ts.Snap = &snap
		}
		//lint:allow droppederr ErrNoBackup: a missed snapshot checkpoint degrades restart fidelity, not correctness; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its terminal table dies with it
		ctx.Checkpoint(ckRec{Ckpt: &req})
		ctx.Reply(nil)
	case kindFinished:
		req := m.Payload.(finishedReq)
		if ts, ok := a.terms[req.TermID]; ok {
			ts.Finished = true
		}
		//lint:allow droppederr ErrNoBackup: the finished flag is re-derived from the executor on takeover; ErrHalted: this member's CPU died, so its reply fails with ErrProcessDead and its terminal table dies with it
		ctx.Checkpoint(ckRec{Finished: &req})
		ctx.Reply(nil)
	default:
		ctx.ReplyErr(fmt.Errorf("tcp: unknown request %q", m.Kind))
	}
}

// ckRec is the TCP checkpoint record.
type ckRec struct {
	Attach   *attachReq
	Ckpt     *ckptReq
	Finished *finishedReq
}

func (a *tcpApp) ApplyCheckpoint(cp any) {
	ck := cp.(ckRec)
	switch {
	case ck.Attach != nil:
		a.terms[ck.Attach.TermID] = &termState{Src: ck.Attach.Src}
	case ck.Ckpt != nil:
		if ts, ok := a.terms[ck.Ckpt.TermID]; ok {
			snap := ck.Ckpt.Snap
			ts.Snap = &snap
		}
	case ck.Finished != nil:
		if ts, ok := a.terms[ck.Finished.TermID]; ok {
			ts.Finished = true
		}
	}
}

func (a *tcpApp) Snapshot() any {
	out := make(map[string]*termState, len(a.terms))
	for id, ts := range a.terms {
		cp := *ts
		if ts.Snap != nil {
			s := *ts.Snap
			s.Vars = make(map[string]string, len(ts.Snap.Vars))
			for k, v := range ts.Snap.Vars {
				s.Vars[k] = v
			}
			cp.Snap = &s
		}
		out[id] = &cp
	}
	return out
}

func (a *tcpApp) Restore(snap any) {
	a.terms = snap.(map[string]*termState)
}

// TakeOver restarts every unfinished program at its checkpointed
// BEGIN-TRANSACTION. TMF has already aborted (or will abort) the
// interrupted transactions, since they were begun on the failed processor.
func (a *tcpApp) TakeOver() {
	cpu := a.tcp.pair.PrimaryCPU()
	if cpu < 0 {
		return
	}
	for id, ts := range a.terms {
		if ts.Finished {
			continue
		}
		a.spawnExecutor(cpu, id, ts.Src, ts.Snap)
	}
}

// spawnExecutor runs one terminal's program in its own process on the
// serving member's CPU.
func (a *tcpApp) spawnExecutor(cpu int, termID, src string, resume *scobol.Snapshot) {
	tcpName := a.tcp.cfg.Name
	t := a.tcp
	t.sys.Spawn(cpu, "", func(p *msg.Process) {
		term, err := t.Terminal(termID)
		if err != nil {
			return
		}
		prog, err := scobol.Parse(src)
		if err != nil {
			term.finish(err)
			return
		}
		rt := &termRuntime{tcp: t, term: term, proc: p}
		exec := scobol.NewExec(prog, rt, scobol.Options{
			MaxRestarts: t.cfg.MaxRestarts,
			Resume:      resume,
		})
		exec.OnBegin = func(s scobol.Snapshot) {
			t.sys.CallTimeout(cpu, msg.Addr{Name: tcpName}, kindCkpt, ckptReq{TermID: termID, Snap: s}, 5*time.Second)
		}
		runErr := exec.Run()
		// If our CPU died mid-run the backup TCP owns the program now;
		// do not report completion for an execution that was superseded.
		if p.Context().Err() != nil {
			return
		}
		errStr := ""
		if runErr != nil {
			errStr = runErr.Error()
		}
		t.sys.CallTimeout(cpu, msg.Addr{Name: tcpName}, kindFinished, finishedReq{TermID: termID, Err: errStr}, 5*time.Second)
		term.finish(runErr)
	})
}

// termRuntime adapts one terminal execution to the scobol Runtime.
type termRuntime struct {
	tcp  *TCP
	term *Terminal
	proc *msg.Process

	tx tmfTx
}

// tmfTx holds the current transaction of the terminal.
type tmfTx struct {
	id    txid.ID
	valid bool
}

func (r *termRuntime) Accept(screen string, fields []string) (map[string]string, error) {
	select {
	case in := <-r.term.inputs:
		return in, nil
	case <-r.proc.Context().Done():
		return nil, errors.New("tcp: processor failed during ACCEPT")
	}
}

func (r *termRuntime) Display(s string) { r.term.display(s) }

// Send resolves "class" (local) or "node:class" server addresses and
// attaches the terminal's current transid, as the File System does for
// every SEND in transaction mode. The SEND goes through TMF, so the first
// transmission of the transid to another node carries the remote
// transaction begin.
func (r *termRuntime) Send(server string, req map[string]string) (map[string]string, error) {
	node, class := "", server
	if i := strings.IndexByte(server, ':'); i >= 0 {
		node, class = server[:i], server[i+1:]
	}
	var id txid.ID
	if r.tx.valid {
		id = r.tx.id
	}
	return appserver.CallTimeout(r.tcp.sys, r.tcp.cfg.Mon, r.proc.PID().CPU, node, class, id, req, r.tcp.cfg.SendTimeout)
}

func (r *termRuntime) Begin() (string, error) {
	id, err := r.tcp.cfg.Mon.Begin(r.proc.PID().CPU)
	if err != nil {
		return "", err
	}
	r.tx = tmfTx{id: id, valid: true}
	return id.String(), nil
}

func (r *termRuntime) End() error {
	if !r.tx.valid {
		return errors.New("tcp: END outside transaction")
	}
	err := r.tcp.cfg.Mon.End(r.tx.id)
	if err == nil {
		r.tx.valid = false
	}
	return err
}

func (r *termRuntime) Abort() error {
	if !r.tx.valid {
		return nil
	}
	err := r.tcp.cfg.Mon.Abort(r.tx.id, "ABORT-TRANSACTION")
	r.tx.valid = false
	return err
}
