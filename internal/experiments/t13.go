package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"encompass/internal/audit"
	"encompass/internal/disk"
	"encompass/internal/rollforward"
	"encompass/internal/txid"
)

// t13Sizes are the trail lengths (records) the recovery-time experiment
// measures.
var t13Sizes = []int{10_000, 100_000, 1_000_000}

// T13 shape parameters: a hot working set far smaller than the trail, so
// the replay keeps overwriting the same records (the realistic RTO case —
// trail length is write volume, not database size), with multi-record
// transactions and a backed-out minority to keep the abort-undo path in
// the measured loop.
const (
	t13Keys        = 1000
	t13ImagesPerTx = 10
	t13AbortEvery  = 10
)

// T13 measures ROLLFORWARD's recovery time objective against trail
// length: archive an empty volume, append N committed/aborted record
// images, crash (fresh volume), and time the streamed recovery. The
// claim under test is the streaming design's memory bound — recovery
// materializes one record at a time, so its extra heap must stay a small
// fraction of the trail size even at a million records — plus exact
// recovered state at every size.
func t13(r *Report) error {
	r.Columns = []string{"records", "trail", "recover", "records/sec", "peak extra heap", "heap/trail", "state"}
	r.Notes = []string{
		fmt.Sprintf("%d hot keys, %d images per transaction, every %dth transaction backed out",
			t13Keys, t13ImagesPerTx, t13AbortEvery),
		"pass bound: peak extra heap during recovery < 0.5x trail bytes at the largest size",
	}
	r.Pass = true
	for _, n := range t13Sizes {
		row, ratio, ok := t13One(n)
		r.Rows = append(r.Rows, row)
		if !ok || n == t13Sizes[len(t13Sizes)-1] && ratio >= 0.5 {
			r.Pass = false
		}
	}
	return nil
}

// t13One builds an n-record trail, recovers it, and returns the table
// row, the peak-extra-heap / trail-bytes ratio, and whether the recovered
// state was exact.
func t13One(n int) ([]string, float64, bool) {
	vol := disk.NewVolume("v13")
	trail := audit.NewTrail("a13", 0)
	mat := audit.NewMonitorTrail(0)
	vols := map[string]*disk.Volume{"v13": vol}
	trails := map[string]*audit.Trail{"a13": trail}

	// Archive the empty volume; everything is then replayed from the trail.
	arch := rollforward.Take("n13", vols, trails, func(id txid.ID) bool { _, ok := mat.OutcomeOf(id); return ok })

	// Fill the trail: committed transactions advance their keys' values,
	// backed-out ones write dirt whose before-images restore them.
	want := make(map[string][]byte, t13Keys)
	appended, txSeq := 0, uint64(0)
	for appended < n {
		txSeq++
		id := txid.ID{Home: "n13", CPU: 1, Seq: txSeq}
		aborted := txSeq%t13AbortEvery == 0
		for i := 0; i < t13ImagesPerTx && appended < n; i++ {
			key := fmt.Sprintf("k%06d", (appended*7919)%t13Keys)
			img := audit.Image{
				Tx: id, Volume: "v13", File: "hot", Key: key,
				Kind: audit.ImageUpdate, Before: want[key],
			}
			if img.Before == nil {
				img.Kind = audit.ImageInsert
			}
			if aborted {
				img.After = []byte(fmt.Sprintf("dirt-%d", appended))
			} else {
				img.After = []byte(fmt.Sprintf("v%d", appended))
				want[key] = img.After
			}
			trail.Append(img)
			appended++
		}
		if aborted {
			mat.Append(id, audit.OutcomeAborted)
		} else {
			mat.Append(id, audit.OutcomeCommitted)
		}
	}
	trail.ForceAll()
	trailBytes := trail.SizeBytes()

	// Crash: the volume's contents are gone; recovery must rebuild them
	// from archive + trail alone.
	vol.Wipe()

	// Sample heap residency while recovering. A tight GC target keeps
	// HeapInuse tracking live memory instead of collector laziness, so the
	// peak measures what recovery actually holds.
	prevGC := debug.SetGCPercent(10)
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				runtime.ReadMemStats(&ms)
				if d := int64(ms.HeapInuse) - int64(base.HeapInuse); d > peak.Load() {
					peak.Store(d)
				}
			}
		}
	}()

	start := time.Now()
	st, err := rollforward.Recover(arch, vols, trails, mat, func(txid.ID) (bool, error) {
		return false, nil
	})
	elapsed := time.Since(start)
	close(stop)
	<-done
	debug.SetGCPercent(prevGC)

	state := "exact"
	if err != nil {
		state = "ERROR: " + err.Error()
	} else {
		got := vol.Snapshot()["hot"]
		if len(got) != len(want) {
			state = fmt.Sprintf("WRONG: %d keys where %d expected", len(got), len(want))
		} else {
			for k, v := range want {
				if !bytes.Equal(got[k], v) {
					state = fmt.Sprintf("WRONG: %s = %q, want %q", k, got[k], v)
					break
				}
			}
		}
	}
	if st.ImagesScanned < n {
		state = fmt.Sprintf("WRONG: scanned %d of %d images", st.ImagesScanned, n)
	}

	extra := peak.Load()
	ratio := float64(extra) / float64(trailBytes)
	row := []string{
		i2s(n),
		fmt.Sprintf("%.1f MiB", float64(trailBytes)/(1<<20)),
		dur(elapsed),
		fmt.Sprintf("%.0f", float64(n)/elapsed.Seconds()),
		fmt.Sprintf("%.1f MiB", float64(extra)/(1<<20)),
		fmt.Sprintf("%.2f", ratio),
		state,
	}
	return row, ratio, state == "exact"
}
