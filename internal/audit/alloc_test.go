//go:build !race

// The race detector adds shadow allocations of its own, so these pins
// hold only without it.

package audit

import (
	"runtime"
	"testing"
)

// TestSegmentRollAllocatesOnce: a segment the trail rolls to after a full
// one is sized from it, so filling it allocates its bytes about once, in
// a few objects. Grown by append instead, the buffer, record index and
// transaction map are copied at every regrowth: 5.6 times the segment's
// bytes in 91 objects. testing.AllocsPerRun cannot see this, because it
// divides the regrowths by the appends as integers
// (TestSegmentAppendAllocs).
func TestSegmentRollAllocatesOnce(t *testing.T) {
	tr := NewTrail("roll", 0)
	img := goldenImages[0]
	img.LSN = 0
	n := uint64(0)
	fill := func() {
		for range DefaultSegmentRecords {
			n++
			img.Tx.Seq = n / 4 // four records per transaction, as in TP1
			tr.Append(img)
		}
	}
	fill()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fill()
	runtime.ReadMemStats(&after)

	tr.mu.Lock()
	if n := len(tr.segments); n != 2 {
		tr.mu.Unlock()
		t.Fatalf("%d segments after two segments' records, want 2", n)
	}
	segBytes := len(tr.segments[1].buf)
	tr.mu.Unlock()
	bytes := after.TotalAlloc - before.TotalAlloc
	objects := after.Mallocs - before.Mallocs
	ratio := float64(bytes) / float64(segBytes)
	t.Logf("second segment: %d bytes of records, %d bytes allocated (%.2fx) in %d objects", segBytes, bytes, ratio, objects)
	if ratio > 1.6 {
		t.Errorf("filling the second segment allocated %.2fx its %d bytes, want at most 1.6x", ratio, segBytes)
	}
	if objects > 16 {
		t.Errorf("filling the second segment allocated %d objects, want at most 16", objects)
	}
}
