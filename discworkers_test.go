package encompass_test

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"encompass"
)

// TestDiscWorkersStressOracle is the determinism oracle for the
// multithreaded DISCPROCESS: the same seeded mix of conflicting and
// non-conflicting operations runs once with DiscWorkers=1 (the serial
// seed behaviour) and once with DiscWorkers=8, under -race. Both runs
// must leave byte-identical volume contents, and every captured
// transaction trace must pass the Figure 3 oracle with zero runtime
// checker violations.
//
// The mix is built so its final state is order-independent under strict
// two-phase locking, letting the disk snapshots be compared directly:
//
//   - shared hot records receive commutative integer deltas (read-lock,
//     parse, add, update), so the final value is the sum of the committed
//     deltas regardless of interleaving;
//   - per-goroutine records have disjoint keys written by exactly one
//     sequential goroutine, so their last writes are fixed;
//   - a fixed subset of iterations aborts voluntarily — backout restores
//     the before-image taken under the lock, so aborted deltas and
//     inserts vanish deterministically;
//   - unlocked browse reads ride alongside to exercise the fast path.
//
// The DiscWorkers=8 side runs twice: once with a cache that holds the whole
// key set, and once pressed — a cache far smaller than the key set, a miss
// penalty, and dedicated browse goroutines — so that misses, evictions and
// fills race real updates, inserts and backouts. What the cache serves
// afterwards must be what the volume holds.
func TestDiscWorkersStressOracle(t *testing.T) {
	serial := runStressMix(t, 1, stressRoomy)
	for _, shape := range []stressShape{stressRoomy, stressPressed} {
		t.Run(shape.name, func(t *testing.T) {
			requireSameVolume(t, serial, runStressMix(t, 8, shape))
		})
	}
}

func requireSameVolume(t *testing.T, serial, parallel map[string]map[string][]byte) {
	t.Helper()
	if !reflect.DeepEqual(serial, parallel) {
		for file, keys := range serial {
			for k, v := range keys {
				if pv, ok := parallel[file][k]; !ok || string(pv) != string(v) {
					t.Errorf("%s/%s: serial=%q parallel=%q", file, k, v, pv)
				}
			}
		}
		for file, keys := range parallel {
			for k := range keys {
				if _, ok := serial[file][k]; !ok {
					t.Errorf("%s/%s: present only in parallel run", file, k)
				}
			}
		}
		t.Fatal("DiscWorkers=8 final volume state diverged from the DiscWorkers=1 oracle")
	}
}

const (
	stressHotKeys    = 4
	stressGoroutines = 6
)

// stressShape is what the mix runs against: the record cache, the price of
// a miss, and how many goroutines do nothing but browse.
type stressShape struct {
	name        string
	cacheSize   int
	missPenalty time.Duration
	browsers    int
}

var (
	stressRoomy   = stressShape{name: "cache-holds-all", cacheSize: 256}
	stressPressed = stressShape{name: "cache-pressed", cacheSize: 8, missPenalty: 200 * time.Microsecond, browsers: 3}
)

func stressIters() int {
	if testing.Short() {
		return 15
	}
	return 60
}

// runStressMix runs the seeded mix at the given worker depth and returns
// the volume's final contents.
func runStressMix(t *testing.T, workers int, shape stressShape) map[string]map[string][]byte {
	t.Helper()
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "solo", CPUs: 4, Volumes: []encompass.VolumeSpec{{
				Name: "v1", Audited: true, CacheSize: shape.cacheSize, MissPenalty: shape.missPenalty,
			}}},
		},
		DiscWorkers:   workers,
		TraceCapacity: 32768,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Node("solo")
	if err := sys.CreateFileEverywhere(encompass.LocalFile("accts", encompass.KeySequenced, "solo", "v1")); err != nil {
		t.Fatal(err)
	}
	seed, err := node.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < stressHotKeys; h++ {
		if err := seed.Insert("accts", hotKey(h), []byte("0")); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	iters := stressIters()
	var wg sync.WaitGroup
	errs := make(chan error, stressGoroutines*iters+shape.browsers)
	// Browsers sweep every key of the mix, present or not, until the
	// writers are done. Only the hot records are sure to exist.
	writersDone := make(chan struct{})
	var browsing sync.WaitGroup
	for b := 0; b < shape.browsers; b++ {
		browsing.Add(1)
		go func(b int) {
			defer browsing.Done()
			for n := b; ; n++ {
				select {
				case <-writersDone:
					return
				default:
				}
				if _, err := node.FS.Read("accts", hotKey(n%stressHotKeys)); err != nil {
					errs <- fmt.Errorf("browser %d: %w", b, err)
					return
				}
				_, _ = node.FS.Read("accts", privKey(n%stressGoroutines, (n/stressGoroutines)%iters))
			}
		}(b)
	}
	for w := 0; w < stressGoroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := stressIteration(node, w, i); err != nil {
					errs <- fmt.Errorf("worker %d iter %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(writersDone)
	browsing.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := node.Volumes["v1"].Proc.Stats()
	if st.Sched.Violations != 0 {
		t.Fatalf("workers=%d: %d in-flight footprint violations", workers, st.Sched.Violations)
	}
	if st.Sched.Workers != workers {
		t.Fatalf("Sched.Workers = %d, want %d", st.Sched.Workers, workers)
	}
	if workers > 1 && (st.Sched.Admitted == 0 || st.Sched.BrowseOps == 0) {
		t.Fatalf("workers=%d: scheduler idle, stats = %+v", workers, st.Sched)
	}

	if validated := validateAllTraces(t, sys); validated == 0 {
		t.Fatal("no traces captured")
	}
	// Cache coherence: with everything at rest, a read through the cache
	// returns what the volume holds — no fill left a replaced value behind,
	// none resurrected a backed-out insert.
	disk := node.Volumes["v1"].Disk.Snapshot()
	for w := 0; w < stressGoroutines; w++ {
		for i := 0; i < iters; i++ {
			key := privKey(w, i)
			got, err := node.FS.Read("accts", key)
			if want, ok := disk["accts"][key]; ok != (err == nil) || string(got) != string(want) {
				t.Errorf("workers=%d %s: read through the cache = %q (%v), volume holds %q (present=%v)", workers, key, got, err, want, ok)
			}
		}
	}
	for h := 0; h < stressHotKeys; h++ {
		if got, err := node.FS.Read("accts", hotKey(h)); err != nil || string(got) != string(disk["accts"][hotKey(h)]) {
			t.Errorf("workers=%d %s: read through the cache = %q (%v), volume holds %q", workers, hotKey(h), got, err, disk["accts"][hotKey(h)])
		}
	}
	return disk
}

// stressIteration runs one transaction of the mix, retrying on lock
// timeout (deadlock prevention aborts are transient; the planned
// commit/abort decision for (w, i) is what must be deterministic).
func stressIteration(node *encompass.Node, w, i int) error {
	for attempt := 0; ; attempt++ {
		tx, err := node.Begin()
		if err != nil {
			return err
		}
		retry, err := func() (bool, error) {
			hot := hotKey((w + i) % stressHotKeys)
			cur, err := tx.ReadLock("accts", hot)
			if err != nil {
				return true, tx.Abort("lock timeout, retrying")
			}
			n, err := strconv.Atoi(string(cur))
			if err != nil {
				return false, fmt.Errorf("hot record %s corrupt: %q", hot, cur)
			}
			delta := w*31 + i%7 + 1
			if err := tx.Update("accts", hot, []byte(strconv.Itoa(n+delta))); err != nil {
				return true, tx.Abort("update refused, retrying")
			}
			if err := tx.Insert("accts", privKey(w, i), []byte(fmt.Sprintf("w%d-i%d", w, i))); err != nil {
				return true, tx.Abort("insert refused, retrying")
			}
			// Unlocked browse read alongside the write pipeline.
			if _, err := tx.Read("accts", hotKey(i%stressHotKeys)); err != nil {
				return false, fmt.Errorf("browse read: %w", err)
			}
			if i%8 == 3 { // fixed abort subset: backout must erase the work
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

func hotKey(h int) string     { return fmt.Sprintf("hot-%d", h) }
func privKey(w, i int) string { return fmt.Sprintf("own-w%d-i%03d", w, i) }
