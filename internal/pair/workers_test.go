package pair

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
)

// slowApp serves every request on its Workers; a job holds until gate
// lets it go.
type slowApp struct {
	w       *Workers[int]
	running atomic.Int32
	gate    chan struct{}
}

func (a *slowApp) Handle(ctx Ctx)      { a.w.Go(ctx, ctx.Req().Payload.(int)) }
func (a *slowApp) ApplyCheckpoint(any) {}
func (a *slowApp) Snapshot() any       { return nil }
func (a *slowApp) Restore(any)         {}
func (a *slowApp) TakeOver()           {}

func (a *slowApp) serve(_ Ctx, _ int) error {
	a.running.Add(1)
	<-a.gate
	a.running.Add(-1)
	return nil
}

// newSlowPair starts a pair of slowApps and returns the primary's.
func newSlowPair(t *testing.T) (*msg.System, *slowApp) {
	t.Helper()
	node, err := hw.NewNode("n", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	gate := make(chan struct{})
	var apps []*slowApp
	if _, err := Start(sys, "slow", 0, 1, func() App {
		a := &slowApp{gate: gate}
		a.w = NewWorkers(a.serve)
		apps = append(apps, a)
		return a
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, cpu := range node.UpCPUs() {
			node.FailCPU(cpu)
		}
	})
	return sys, apps[0]
}

func slowCall(sys *msg.System, n int) error {
	_, err := sys.CallTimeout(2, msg.Addr{Name: "slow"}, "job", n, 5*time.Second)
	return err
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkersRunEveryJobAtOnce: jobs never wait for each other, as they
// did not with a goroutine each; after the burst maxIdleWorkers stay
// parked.
func TestWorkersRunEveryJobAtOnce(t *testing.T) {
	sys, a := newSlowPair(t)
	const burst = 16
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- slowCall(sys, i)
		}()
	}
	eventually(t, "every job to be in service at once", func() bool { return a.running.Load() == burst })
	for range burst {
		a.gate <- struct{}{}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := a.w.idle.Load(); n != maxIdleWorkers {
		t.Errorf("%d workers parked after the burst, want %d", n, maxIdleWorkers)
	}
}

// TestWorkersReuseParkedWorker: a requester's next job finds the worker
// that answered its last one, so sequential jobs start no goroutine.
func TestWorkersReuseParkedWorker(t *testing.T) {
	sys, a := newSlowPair(t)
	close(a.gate)
	if err := slowCall(sys, 0); err != nil {
		t.Fatal(err)
	}
	if n := a.w.idle.Load(); n != 1 {
		t.Fatalf("%d workers parked after one job, want 1", n)
	}
	for i := range 50 {
		if err := slowCall(sys, i); err != nil {
			t.Fatal(err)
		}
		if n := a.w.idle.Load(); n != 1 {
			t.Fatalf("%d workers parked after sequential job %d, want 1", n, i)
		}
	}
}

// TestWorkersEndWithTheirProcess: parked workers exit once their member's
// CPU fails.
func TestWorkersEndWithTheirProcess(t *testing.T) {
	sys, a := newSlowPair(t)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slowCall(sys, i)
		}()
	}
	eventually(t, "four jobs in service", func() bool { return a.running.Load() == 4 })
	for range 4 {
		a.gate <- struct{}{}
	}
	wg.Wait()
	eventually(t, "the workers to park", func() bool { return a.w.idle.Load() == maxIdleWorkers })
	sys.Node().FailCPU(0)
	eventually(t, "the parked workers to exit", func() bool { return a.w.idle.Load() == 0 })
}
