package pair

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
)

// counterApp is a replicated counter. "add" requests checkpoint the intent
// before applying, so a takeover never loses an acknowledged add.
type counterApp struct {
	mu    sync.Mutex
	total int
	// applied tracks op ids so a retried request is idempotent.
	applied map[int]bool
}

func newCounterApp() App {
	return &counterApp{applied: make(map[int]bool)}
}

type addOp struct {
	ID int
	N  int
}

func (a *counterApp) Handle(ctx Ctx) {
	m := ctx.Req()
	switch m.Kind {
	case "add":
		op := m.Payload.(addOp)
		a.mu.Lock()
		dup := a.applied[op.ID]
		a.mu.Unlock()
		if !dup {
			ctx.Checkpoint(op)
			a.apply(op)
		}
		ctx.Reply(a.value())
	case "get":
		ctx.Reply(a.value())
	default:
		ctx.ReplyErr(errors.New("unknown kind"))
	}
}

func (a *counterApp) apply(op addOp) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.applied[op.ID] {
		a.applied[op.ID] = true
		a.total += op.N
	}
}

func (a *counterApp) value() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

func (a *counterApp) ApplyCheckpoint(cp any) { a.apply(cp.(addOp)) }

func (a *counterApp) Snapshot() any {
	a.mu.Lock()
	defer a.mu.Unlock()
	applied := make(map[int]bool, len(a.applied))
	for k, v := range a.applied {
		applied[k] = v
	}
	return &counterApp{total: a.total, applied: applied}
}

func (a *counterApp) Restore(snap any) {
	s := snap.(*counterApp)
	a.mu.Lock()
	a.total = s.total
	a.applied = s.applied
	a.mu.Unlock()
}

func (a *counterApp) TakeOver() {}

func newPairEnv(t *testing.T, cpus int) (*msg.System, *Pair) {
	t.Helper()
	node, err := hw.NewNode("n", cpus)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	pr, err := Start(sys, "counter", 0, 1, newCounterApp)
	if err != nil {
		t.Fatal(err)
	}
	return sys, pr
}

func call(t *testing.T, sys *msg.System, kind string, payload any) (msg.Message, error) {
	t.Helper()
	// Issue from the last CPU so client traffic does not originate on the
	// pair's CPUs.
	cpu := sys.Node().NumCPUs() - 1
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return sys.ClientCall(ctx, cpu, msg.Addr{Name: "counter"}, kind, payload)
}

func TestBasicServe(t *testing.T) {
	sys, pr := newPairEnv(t, 3)
	r, err := call(t, sys, "add", addOp{ID: 1, N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Payload != 5 {
		t.Errorf("value = %v, want 5", r.Payload)
	}
	if st := pr.Stats(); st.Checkpoints != 1 {
		t.Errorf("checkpoints = %d, want 1", st.Checkpoints)
	}
}

// gateApp is a counter whose Handle holds its request until released,
// then checkpoints and reports what Checkpoint returned.
type gateApp struct {
	*counterApp
	entered, release chan struct{}
	got              chan error
}

func (a *gateApp) Handle(ctx Ctx) {
	a.entered <- struct{}{}
	<-a.release
	a.got <- ctx.Checkpoint(addOp{ID: 1, N: 1})
}

// TestCheckpointFromHaltedMember: a member whose CPU failed while it
// served a request learns so from Checkpoint, which ships nothing and
// counts nothing.
func TestCheckpointFromHaltedMember(t *testing.T) {
	node, err := hw.NewNode("n", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	entered, release, got := make(chan struct{}, 1), make(chan struct{}), make(chan error, 1)
	pr, err := Start(sys, "gate", 0, 1, func() App {
		return &gateApp{counterApp: &counterApp{applied: make(map[int]bool)}, entered: entered, release: release, got: got}
	})
	if err != nil {
		t.Fatal(err)
	}
	pend, err := sys.Start(2, msg.Addr{Name: "gate"}, "add", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	node.FailCPU(0)
	close(release)
	if err := <-got; !errors.Is(err, ErrHalted) {
		t.Errorf("Checkpoint from a halted member: err = %v, want ErrHalted", err)
	}
	if st := pr.Stats(); st.Checkpoints != 0 || st.Degraded != 0 {
		t.Errorf("stats = %+v, want no checkpoint and no degraded one", st)
	}
	if _, err := pend.Await(20 * time.Millisecond); err == nil {
		t.Error("a halted member's request was answered")
	}
}

func TestTakeoverPreservesCheckpointedState(t *testing.T) {
	sys, pr := newPairEnv(t, 3)
	for i := 1; i <= 10; i++ {
		if _, err := call(t, sys, "add", addOp{ID: i, N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if pr.PrimaryCPU() != 0 {
		t.Fatalf("primary cpu = %d, want 0", pr.PrimaryCPU())
	}
	sys.Node().FailCPU(0)

	r, err := call(t, sys, "get", nil)
	if err != nil {
		t.Fatalf("call after takeover: %v", err)
	}
	want := 55
	if r.Payload != want {
		t.Errorf("value after takeover = %v, want %d", r.Payload, want)
	}
	if pr.PrimaryCPU() != 1 {
		t.Errorf("primary cpu after takeover = %d, want 1", pr.PrimaryCPU())
	}
	if st := pr.Stats(); st.Takeovers != 1 {
		t.Errorf("takeovers = %d, want 1", st.Takeovers)
	}
}

func TestBackupRespawnAfterTakeover(t *testing.T) {
	sys, pr := newPairEnv(t, 3)
	call(t, sys, "add", addOp{ID: 1, N: 7})
	sys.Node().FailCPU(0)
	// After promotion the pair should seed a new backup on CPU 2.
	waitFor(t, func() bool { return pr.BackupCPU() == 2 })
	// Kill the new primary too; the respawned backup must carry the state.
	call(t, sys, "add", addOp{ID: 2, N: 3})
	sys.Node().FailCPU(1)
	r, err := call(t, sys, "get", nil)
	if err != nil {
		t.Fatalf("call after second takeover: %v", err)
	}
	if r.Payload != 10 {
		t.Errorf("value = %v, want 10", r.Payload)
	}
	if st := pr.Stats(); st.Takeovers != 2 {
		t.Errorf("takeovers = %d, want 2", st.Takeovers)
	}
}

func TestBackupFailureRespawns(t *testing.T) {
	sys, pr := newPairEnv(t, 4)
	call(t, sys, "add", addOp{ID: 1, N: 2})
	sys.Node().FailCPU(1) // kill the backup
	waitFor(t, func() bool { return pr.BackupCPU() >= 0 && pr.BackupCPU() != 1 })
	// Now kill the primary; new backup must have the snapshot state.
	sys.Node().FailCPU(0)
	r, err := call(t, sys, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Payload != 2 {
		t.Errorf("value = %v, want 2", r.Payload)
	}
}

func TestDoubleFailureLosesService(t *testing.T) {
	// With only two CPUs there is nowhere to respawn a backup; failing both
	// loses the service — the multiple-module failure the paper says is
	// handled by ROLLFORWARD, not by the pair.
	sys, _ := newPairEnv(t, 2)
	// Client calls must come from CPU 0 or 1 here; use 0 until it dies.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := sys.ClientCall(ctx, 0, msg.Addr{Name: "counter"}, "add", addOp{ID: 1, N: 1}); err != nil {
		t.Fatal(err)
	}
	sys.Node().FailCPU(0)
	sys.Node().FailCPU(1)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	_, err := sys.ClientCall(ctx2, 0, msg.Addr{Name: "counter"}, "get", nil)
	if err == nil {
		t.Fatal("call should fail after double module failure")
	}
}

func TestDegradedOperationWithoutBackup(t *testing.T) {
	sys, pr := newPairEnv(t, 2)
	sys.Node().FailCPU(1) // kill backup; no spare CPU on a 2-cpu node
	waitFor(t, func() bool { return pr.BackupCPU() == -1 })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	r, err := sys.ClientCall(ctx, 0, msg.Addr{Name: "counter"}, "add", addOp{ID: 1, N: 4})
	if err != nil {
		t.Fatalf("degraded call: %v", err)
	}
	if r.Payload != 4 {
		t.Errorf("value = %v, want 4", r.Payload)
	}
	if st := pr.Stats(); st.Degraded == 0 {
		t.Error("degraded counter not incremented")
	}
}

func TestConcurrentClientsAcrossTakeover(t *testing.T) {
	sys, _ := newPairEnv(t, 4)
	const n = 50
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for attempt := 0; attempt < 20; attempt++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				_, err := sys.ClientCall(ctx, 3, msg.Addr{Name: "counter"}, "add", addOp{ID: id, N: 1})
				cancel()
				if err == nil {
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			errCh <- fmt.Errorf("client %d: exhausted retries", id)
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	sys.Node().FailCPU(0)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	r, err := call(t, sys, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent op ids: despite retries across the takeover, each client's
	// add applies exactly once.
	if r.Payload != n {
		t.Errorf("value = %v, want %d", r.Payload, n)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
