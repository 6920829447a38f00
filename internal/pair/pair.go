// Package pair implements the NonStop process-pair mechanism: two
// cooperating processes on distinct CPUs, a primary that serves requests
// and a backup that passively absorbs checkpoints, able to take over and
// "carry through to completion any operation initiated by the primary".
//
// The checkpoint discipline is the heart of the paper's argument that TMF
// needs no conventional Write-Ahead Log: an application (the DISCPROCESS in
// particular) checkpoints its intent — including audit records — to the
// backup *before* performing an update, so the update's recoverability
// never depends on a disc force.
//
// After a takeover the pair re-registers its service name at the new
// primary and, if a spare CPU is available, re-creates a backup from a
// state snapshot, restoring full fault tolerance.
package pair

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
)

// Control message kinds used inside a pair. Client traffic must not use
// these kinds.
const (
	kindCheckpoint = "pair.checkpoint"
	kindPromote    = "pair.promote"
	kindMkBackup   = "pair.mkbackup"
)

// ErrNoBackup is reported by Checkpoint when the pair is running without a
// backup (degraded, single-module exposure) — the operation proceeds, but
// callers may want to count these.
var ErrNoBackup = errors.New("pair: running without backup")

// ErrHalted is reported by Checkpoint when the checkpointing member's own
// CPU has failed: the member is a zombie mid-takeover and must abandon the
// operation instead of proceeding degraded — its promoted partner now owns
// the service state.
var ErrHalted = errors.New("pair: member's cpu halted")

// App is the replicated application run by a process pair. All methods are
// invoked from the owning member's single goroutine, so implementations
// need no internal locking for pair-driven access.
type App interface {
	// Handle processes one client request, ctx.Req(), on the primary. Use
	// ctx.Checkpoint before externally visible effects and ctx.Reply /
	// ctx.ReplyErr to answer. An app that answers after Handle returns
	// keeps its own copy of ctx.
	Handle(ctx Ctx)
	// ApplyCheckpoint absorbs one checkpoint record on the backup.
	ApplyCheckpoint(cp any)
	// Snapshot captures full state for seeding a new backup.
	Snapshot() any
	// Restore installs a snapshot into a fresh backup instance.
	Restore(snap any)
	// TakeOver is invoked on the backup when it becomes primary; it must
	// complete any operation whose checkpoint it has absorbed.
	TakeOver()
}

// Ctx is one client request and the member serving it, passed to
// App.Handle by value: building it costs the member loop no allocation,
// and a copy answers the request as well as the original.
type Ctx struct {
	pair *Pair
	proc *msg.Process
	req  msg.Message
}

// Checkpoint synchronously ships a record to the backup. It returns
// ErrNoBackup when the pair is degraded; the caller proceeds regardless,
// exactly as a NonStop primary would.
func (c Ctx) Checkpoint(cp any) error { return c.pair.checkpoint(c.proc, cp) }

// Reply answers the client request.
func (c Ctx) Reply(payload any) error { return c.proc.Reply(c.req, payload) }

// ReplyErr answers the client request with an error.
func (c Ctx) ReplyErr(err error) error { return c.proc.ReplyErr(c.req, err) }

// Proc exposes the serving process (for issuing further calls from the
// handler, e.g. DISCPROCESS → AUDITPROCESS).
func (c Ctx) Proc() *msg.Process { return c.proc }

// Req returns the request being handled.
func (c Ctx) Req() msg.Message { return c.req }

// Stats counts pair activity for the experiments.
type Stats struct {
	Checkpoints uint64
	Takeovers   uint64
	Degraded    uint64 // checkpoints skipped for lack of a backup
}

type member struct {
	proc     *msg.Process
	app      App
	regName  string // name the member was spawned under
	promoted bool
}

// Pair manages a primary/backup pair for one service name.
type Pair struct {
	sys     *msg.System
	name    string
	factory func() App

	mu      sync.Mutex
	primary *member // guarded by mu
	backup  *member // guarded by mu

	backupSeq   atomic.Uint64
	checkpoints atomic.Uint64
	takeovers   atomic.Uint64
	degraded    atomic.Uint64
}

// Start creates the pair: the primary on primaryCPU registered under name,
// the backup on backupCPU. factory must produce a fresh, empty App.
func Start(sys *msg.System, name string, primaryCPU, backupCPU int, factory func() App) (*Pair, error) {
	pr := &Pair{sys: sys, name: name, factory: factory}

	prim, err := pr.spawnMember(primaryCPU, name, nil)
	if err != nil {
		return nil, err
	}
	pr.mu.Lock()
	pr.primary = prim
	pr.primary.promoted = true
	pr.mu.Unlock()

	bk, err := pr.spawnMember(backupCPU, pr.backupName(), nil)
	if err == nil {
		pr.mu.Lock()
		pr.backup = bk
		pr.mu.Unlock()
	}

	sys.Node().Watch(pr.onEvent)
	return pr, nil
}

// Name returns the registered service name.
func (pr *Pair) Name() string { return pr.name }

// Addr returns the pair's logical address on its node.
func (pr *Pair) Addr() msg.Addr { return msg.Addr{Node: pr.sys.Node().Name(), Name: pr.name} }

// Stats returns activity counters.
func (pr *Pair) Stats() Stats {
	return Stats{
		Checkpoints: pr.checkpoints.Load(),
		Takeovers:   pr.takeovers.Load(),
		Degraded:    pr.degraded.Load(),
	}
}

// PrimaryCPU returns the CPU currently hosting the primary, or -1.
func (pr *Pair) PrimaryCPU() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.primary == nil {
		return -1
	}
	return pr.primary.proc.PID().CPU
}

// BackupCPU returns the CPU currently hosting the backup, or -1 when
// degraded.
func (pr *Pair) BackupCPU() int {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.backup == nil {
		return -1
	}
	return pr.backup.proc.PID().CPU
}

// backupName generates a fresh internal registration name for a backup
// member, so a new backup never collides with a dead predecessor.
func (pr *Pair) backupName() string {
	n := pr.backupSeq.Add(1)
	return pr.name + ".bk" + strconv.FormatUint(n, 10)
}

// spawnMember creates one member process. If snap is non-nil the fresh app
// restores from it (new backup seeding).
func (pr *Pair) spawnMember(cpu int, regName string, snap any) (*member, error) {
	app := pr.factory()
	if snap != nil {
		app.Restore(snap)
	}
	m := &member{app: app, regName: regName}
	proc, err := pr.sys.Spawn(cpu, regName, func(p *msg.Process) { pr.memberLoop(p, m) })
	if err != nil {
		return nil, err
	}
	m.proc = proc
	return m, nil
}

func (pr *Pair) memberLoop(p *msg.Process, m *member) {
	for {
		req, err := p.Recv(context.Background())
		if err != nil {
			return
		}
		switch req.Kind {
		case kindCheckpoint:
			m.app.ApplyCheckpoint(req.Payload)
			p.Reply(req, nil)
		case kindPromote:
			pr.ensurePromoted(m)
		case kindMkBackup:
			cpu := req.Payload.(int)
			pr.makeBackup(m, cpu)
		default:
			// Client request. A message can only reach us through the name
			// registry, so we are (or have just become) the primary.
			pr.ensurePromoted(m)
			m.app.Handle(Ctx{pair: pr, proc: p, req: req})
		}
	}
}

func (pr *Pair) ensurePromoted(m *member) {
	if m.promoted {
		return
	}
	m.promoted = true
	pr.takeovers.Add(1)
	m.app.TakeOver()
}

// checkpoint ships a record to the backup synchronously.
func (pr *Pair) checkpoint(from *msg.Process, cp any) error {
	if from.Context().Err() != nil {
		// The sender's CPU died mid-handler: it is no longer a pair member
		// in any meaningful sense. Its in-flight operation must fail — the
		// promoted partner (or the respawned backup) owns the state now.
		return ErrHalted
	}
	pr.mu.Lock()
	bk := pr.backup
	pr.mu.Unlock()
	if bk == nil {
		pr.degraded.Add(1)
		return ErrNoBackup
	}
	_, err := pr.sys.CallTimeout(from.PID().CPU, msg.Addr{Name: bk.regName}, kindCheckpoint, cp, 2*time.Second)
	if err != nil {
		if from.Context().Err() != nil {
			// Our own CPU failed during the exchange — the backup may be
			// fine. Abandon the operation without demoting the backup.
			return ErrHalted
		}
		// Backup unreachable: run degraded until a new backup is created.
		pr.mu.Lock()
		if pr.backup == bk {
			pr.backup = nil
		}
		pr.mu.Unlock()
		pr.degraded.Add(1)
		return ErrNoBackup
	}
	pr.checkpoints.Add(1)
	return nil
}

// makeBackup runs in the primary's goroutine: snapshot state and seed a new
// backup on the given CPU.
func (pr *Pair) makeBackup(m *member, cpu int) {
	snap := m.app.Snapshot()
	bk, err := pr.spawnMember(cpu, pr.backupName(), snap)
	if err != nil {
		return
	}
	pr.mu.Lock()
	pr.backup = bk
	pr.mu.Unlock()
}

// onEvent reacts to hardware events: primary failure promotes the backup;
// backup failure re-creates a backup if a CPU is available.
func (pr *Pair) onEvent(e hw.Event) {
	if e.Kind != hw.EventCPUDown {
		return
	}
	pr.mu.Lock()
	prim, bk := pr.primary, pr.backup
	pr.mu.Unlock()

	switch {
	case prim != nil && prim.proc.PID().CPU == e.CPU:
		if bk == nil {
			// Double failure: the service is lost. TMF's answer to this is
			// ROLLFORWARD, tested elsewhere.
			pr.mu.Lock()
			pr.primary = nil
			pr.mu.Unlock()
			return
		}
		// Promote: re-point the name first so new calls reach the backup,
		// then let it complete checkpointed work in its own goroutine.
		pr.mu.Lock()
		pr.primary, pr.backup = bk, nil
		pr.mu.Unlock()
		pr.sys.Register(pr.name, bk.proc)
		//lint:allow droppederr a lost promote note is recovered lazily: memberLoop calls ensurePromoted on the first client message
		bk.proc.Send(msg.Addr{Name: pr.name}, kindPromote, nil)
		pr.respawnBackup(bk)
	case bk != nil && bk.proc.PID().CPU == e.CPU:
		pr.mu.Lock()
		pr.backup = nil
		pr.mu.Unlock()
		pr.respawnBackup(prim)
	}
}

// respawnBackup asks the current primary to seed a new backup on some up
// CPU other than its own.
func (pr *Pair) respawnBackup(prim *member) {
	if prim == nil {
		return
	}
	primCPU := prim.proc.PID().CPU
	for _, cpu := range pr.sys.Node().UpCPUs() {
		if cpu != primCPU {
			// A candidate CPU can go down between UpCPUs and the send; try
			// the next one rather than silently staying backup-less.
			if err := prim.proc.Send(msg.Addr{Name: pr.name}, kindMkBackup, cpu); err == nil {
				return
			}
		}
	}
}
