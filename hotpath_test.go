package encompass_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"encompass"
	"encompass/internal/txid"
)

// TestHotPathMixScheduleOracle runs a seeded mix of conflicting and
// non-conflicting transactions over the whole hot path — requester,
// server class, message system, DISCPROCESS, audit, TMF — under whatever
// detector the invocation selects (`make race` runs it with -race) and
// checks the volume's final contents against the state computed from the
// (worker, iteration) schedule itself. Under strict 2PL the final state is
// order-independent: every committed delta is applied exactly once, every
// planned abort leaves nothing behind. Every captured trace must also pass
// the Figure 3 oracle with zero runtime-checker violations.
//
// The mix mirrors the DiscWorkers oracle and adds a server-class leg: a
// third of the hot-key updates run inside an application-server handler
// reached through CallServerFrom, so the link manager sits on the
// exercised path rather than beside it.
func TestHotPathMixScheduleOracle(t *testing.T) {
	got := runBatchMix(t)["batch"]

	want := make(map[string][]byte)
	hot := make([]int, batchHotKeys)
	for w := 0; w < batchGoroutines; w++ {
		for i := 0; i < batchIters(); i++ {
			if batchAborts(i) {
				continue
			}
			hot[(w+i)%batchHotKeys] += batchDelta(w, i)
			want[batchPrivKey(w, i)] = batchPrivVal(w, i)
		}
	}
	for h, n := range hot {
		want[batchHotKey(h)] = []byte(strconv.Itoa(n))
	}

	for key, v := range want {
		if gv, ok := got[key]; !ok || string(gv) != string(v) {
			t.Errorf("batch/%s: schedule says %q, volume holds %q", key, v, gv)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("batch/%s: on the volume but not in the schedule's committed set", key)
		}
	}
}

const (
	batchHotKeys    = 4
	batchGoroutines = 6
)

func batchIters() int {
	if testing.Short() {
		return 12
	}
	return 36
}

// runBatchMix runs the seeded mix and returns the volume's final contents.
func runBatchMix(t *testing.T) map[string]map[string][]byte {
	t.Helper()
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "solo", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 256}}},
		},
		TraceCapacity: 32768,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Node("solo")
	if err := sys.CreateFileEverywhere(encompass.LocalFile("batch", encompass.KeySequenced, "solo", "v1")); err != nil {
		t.Fatal(err)
	}
	// The server-class leg: apply a commutative delta to a hot record
	// inside the CALLER's transaction — the handler shape mfg's
	// apply-replica uses. Requests reach it via CallServerFrom from every
	// CPU of the node.
	if _, err := node.StartServerClass(encompass.ServerClassConfig{
		Class:        "mixer",
		MinInstances: 2,
		MaxInstances: 8,
		Handler: func(tx txid.ID, f map[string]string) (map[string]string, error) {
			cur, err := node.FS.ReadLock(tx, "batch", f["KEY"])
			if err != nil {
				return nil, err
			}
			n, err := strconv.Atoi(string(cur))
			if err != nil {
				return nil, fmt.Errorf("hot record %s corrupt: %q", f["KEY"], cur)
			}
			d, _ := strconv.Atoi(f["DELTA"])
			if err := node.FS.Update(tx, "batch", f["KEY"], []byte(strconv.Itoa(n+d))); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	seedTx, err := node.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < batchHotKeys; h++ {
		if err := seedTx.Insert("batch", batchHotKey(h), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seedTx.Commit(); err != nil {
		t.Fatal(err)
	}

	iters := batchIters()
	var wg sync.WaitGroup
	errs := make(chan error, batchGoroutines*iters)
	for w := 0; w < batchGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := batchIteration(node, w, i); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if validated := validateAllTraces(t, sys); validated == 0 {
		t.Fatal("no traces captured")
	}
	return node.Volumes["v1"].Disk.Snapshot()
}

// batchIteration runs one transaction of the mix, retrying on lock
// timeout: hot-key delta (every third iteration through the server class),
// a disjoint private insert, and a fixed abort subset whose backout must
// erase the work.
func batchIteration(node *encompass.Node, w, i int) error {
	for attempt := 0; ; attempt++ {
		tx, err := node.Begin()
		if err != nil {
			return err
		}
		retry, err := func() (bool, error) {
			hot := batchHotKey((w + i) % batchHotKeys)
			delta := batchDelta(w, i)
			if i%3 == 0 {
				if _, err := node.CallServerFrom(w%4, "", "mixer", tx.ID, map[string]string{
					"KEY": hot, "DELTA": strconv.Itoa(delta),
				}, 5*time.Second); err != nil {
					return true, tx.Abort("server-side update refused, retrying")
				}
			} else {
				cur, err := tx.ReadLock("batch", hot)
				if err != nil {
					return true, tx.Abort("lock timeout, retrying")
				}
				n, err := strconv.Atoi(string(cur))
				if err != nil {
					return false, fmt.Errorf("hot record %s corrupt: %q", hot, cur)
				}
				if err := tx.Update("batch", hot, []byte(strconv.Itoa(n+delta))); err != nil {
					return true, tx.Abort("update refused, retrying")
				}
			}
			if err := tx.Insert("batch", batchPrivKey(w, i), batchPrivVal(w, i)); err != nil {
				return true, tx.Abort("insert refused, retrying")
			}
			if batchAborts(i) {
				return false, tx.Abort("planned abort")
			}
			return false, tx.Commit()
		}()
		if err != nil {
			return err
		}
		if !retry {
			return nil
		}
		if attempt > 50 {
			return fmt.Errorf("starved after %d lock-timeout retries", attempt)
		}
	}
}

// The schedule: what transaction (w, i) does, shared by the run and by the
// expected-state computation.
func batchHotKey(h int) string     { return fmt.Sprintf("bhot-%d", h) }
func batchPrivKey(w, i int) string { return fmt.Sprintf("bown-w%d-i%03d", w, i) }
func batchPrivVal(w, i int) []byte { return []byte(fmt.Sprintf("w%d-i%d", w, i)) }
func batchDelta(w, i int) int      { return w*31 + i%7 + 1 }
func batchAborts(i int) bool       { return i%8 == 3 } // fixed abort subset
