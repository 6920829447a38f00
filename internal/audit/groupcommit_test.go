package audit

import (
	"sync"
	"testing"
	"time"
)

// TestGroupCommitCoalescesConcurrentForces drives many committers at one
// trail and checks that the group-commit machinery services them with far
// fewer physical writes than force requests: whoever arrives while a write
// is in flight rides along on it (or on the next leader's write) instead of
// paying the disc latency alone.
func TestGroupCommitCoalescesConcurrentForces(t *testing.T) {
	const (
		workers = 8
		iters   = 4
		delay   = 3 * time.Millisecond
	)
	tr := NewTrail("a1", delay)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				lsn := tr.Append(img(tx(uint64(w+1)), "k", ImageUpdate))
				tr.Force(lsn)
				if !tr.Forced(lsn) {
					t.Errorf("worker %d iter %d: record not durable after Force", w, i)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()

	if got, appended := tr.ForceCount(), tr.AppendedLSN(); !tr.Forced(appended) {
		t.Errorf("trail not fully durable: forcecount=%d appended=%d", got, appended)
	}
	st := tr.ForceStats()
	total := uint64(workers * iters)
	if st.Forces >= total {
		t.Errorf("no coalescing: %d physical forces for %d committer forces", st.Forces, total)
	}
	if st.Requests < st.Forces {
		t.Errorf("stats inconsistent: requests=%d < forces=%d", st.Requests, st.Forces)
	}
	t.Logf("group commit: %d committer forces, %d requests, %d physical writes, max batch %d",
		total, st.Requests, st.Forces, st.MaxBatch)
}

// TestForceAlreadyDurableIsFree checks that a force of an already-durable
// prefix neither pays latency nor shows up in the group-commit counters.
func TestForceAlreadyDurableIsFree(t *testing.T) {
	tr := NewTrail("a1", 2*time.Millisecond)
	lsn := tr.Append(img(tx(1), "k", ImageInsert))
	tr.Force(lsn)
	before := tr.ForceStats()
	if before.Forces != 1 || before.Requests != 1 {
		t.Fatalf("after first force: %+v", before)
	}
	start := time.Now()
	tr.Force(lsn)
	if time.Since(start) > time.Millisecond {
		t.Error("redundant force paid latency")
	}
	after := tr.ForceStats()
	if after != before {
		t.Errorf("redundant force changed stats: %+v -> %+v", before, after)
	}
}
