package audit

import (
	"errors"
	"sync"
	"testing"
	"time"

	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

func tx(n uint64) txid.ID { return txid.ID{Home: "n", CPU: 0, Seq: n} }

func img(t txid.ID, key string, kind ImageKind) Image {
	return Image{Tx: t, Volume: "v1", File: "f", Key: key, Kind: kind, Before: []byte("b"), After: []byte("a")}
}

func TestTrailAppendAssignsLSNs(t *testing.T) {
	tr := NewTrail("a1", 0)
	l1 := tr.Append(img(tx(1), "k1", ImageInsert))
	l2 := tr.Append(img(tx(1), "k2", ImageUpdate))
	if l1 != 1 || l2 != 2 {
		t.Errorf("LSNs = %d, %d; want 1, 2", l1, l2)
	}
	if tr.AppendedLSN() != 2 {
		t.Errorf("AppendedLSN = %d", tr.AppendedLSN())
	}
}

func TestForceSemantics(t *testing.T) {
	tr := NewTrail("a1", 0)
	l1 := tr.Append(img(tx(1), "k1", ImageInsert))
	if tr.Forced(l1) {
		t.Error("unforced record reported durable")
	}
	tr.Force(l1)
	if !tr.Forced(l1) {
		t.Error("forced record not durable")
	}
	if tr.ForceCount() != 1 {
		t.Errorf("ForceCount = %d, want 1", tr.ForceCount())
	}
	// Forcing an already-durable prefix is free.
	tr.Force(l1)
	if tr.ForceCount() != 1 {
		t.Errorf("ForceCount after redundant force = %d, want 1", tr.ForceCount())
	}
}

func TestForceDelayCharged(t *testing.T) {
	tr := NewTrail("a1", 5*time.Millisecond)
	l := tr.Append(img(tx(1), "k", ImageInsert))
	start := time.Now()
	tr.Force(l)
	if time.Since(start) < 5*time.Millisecond {
		t.Error("force did not pay the simulated disc latency")
	}
	start = time.Now()
	tr.Force(l) // no-op: already durable
	if time.Since(start) > 3*time.Millisecond {
		t.Error("redundant force paid latency")
	}
}

func TestImagesFor(t *testing.T) {
	tr := NewTrail("a1", 0)
	tr.Append(img(tx(1), "k1", ImageInsert))
	tr.Append(img(tx(2), "k2", ImageInsert))
	tr.Append(img(tx(1), "k3", ImageDelete))
	// Durable scan sees nothing yet.
	if got := tr.ImagesFor(tx(1)); len(got) != 0 {
		t.Errorf("durable images before force = %d, want 0", len(got))
	}
	// Unforced scan sees both, in order.
	got := tr.ImagesForUnforced(tx(1))
	if len(got) != 2 || got[0].Key != "k1" || got[1].Key != "k3" {
		t.Errorf("unforced images = %+v", got)
	}
	tr.ForceAll()
	got = tr.ImagesFor(tx(1))
	if len(got) != 2 {
		t.Errorf("durable images after force = %d, want 2", len(got))
	}
}

func TestImagesFromAndTrim(t *testing.T) {
	tr := NewTrail("a1", 0)
	var lsns []uint64
	for i := 0; i < 10000; i++ {
		lsns = append(lsns, tr.Append(img(tx(1), "k", ImageUpdate)))
	}
	tr.ForceAll()
	if segs := tr.Segments(); len(segs) < 2 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	got, err := tr.ImagesFrom(lsns[5000])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 {
		t.Errorf("ImagesFrom = %d images, want 5000", len(got))
	}
	tr.TrimBefore(lsns[5000])
	if _, err := tr.ImagesFrom(1); !errors.Is(err, ErrTrimmed) {
		t.Errorf("scan of purged range err = %v, want ErrTrimmed", err)
	}
	// The requested suffix must still be available.
	got, err = tr.ImagesFrom(lsns[5000])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5000 {
		t.Errorf("post-trim suffix = %d images, want 5000", len(got))
	}
}

// TestSegmentSizedOnlyFromFullSegments: a segment sealed before it filled
// sizes nothing, so one huge image is never reserved again for the next
// segment; a full segment sizes the next at 9/8 of its bytes.
func TestSegmentSizedOnlyFromFullSegments(t *testing.T) {
	tr := NewTrail("sized", 0)
	tr.SetSegmentCapacity(4)
	huge := img(tx(1), "k", ImageUpdate)
	huge.After = make([]byte, 1<<20)
	tr.Append(huge)
	tr.BeginGeneration() // seals segment 0 after one record
	for range 5 {        // fills segment 1, then rolls to segment 2
		tr.Append(img(tx(2), "k", ImageUpdate))
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if c := cap(tr.segments[1].buf); c >= len(huge.After) {
		t.Errorf("the segment after an early seal reserved %d bytes", c)
	}
	full := len(tr.segments[1].buf)
	if c, want := cap(tr.segments[2].buf), full+full/8; c != want {
		t.Errorf("the segment after a full one reserved %d bytes, want %d", c, want)
	}
}

func TestMonitorTrailCommitPoint(t *testing.T) {
	m := NewMonitorTrail(0)
	if _, ok := m.OutcomeOf(tx(1)); ok {
		t.Error("unknown tx has outcome")
	}
	if got, isNew := m.Append(tx(1), OutcomeCommitted); got != OutcomeCommitted || !isNew {
		t.Errorf("Append = %v, %v", got, isNew)
	}
	o, ok := m.OutcomeOf(tx(1))
	if !ok || o != OutcomeCommitted {
		t.Errorf("OutcomeOf = %v, %v", o, ok)
	}
	// First recorded outcome wins: a disposition never changes.
	if got, isNew := m.Append(tx(1), OutcomeAborted); got != OutcomeCommitted || isNew {
		t.Errorf("re-append returned %v, %v, want committed (first wins) and not new", got, isNew)
	}
	m.Append(tx(2), OutcomeAborted)
	committed := m.Committed()
	if len(committed) != 1 || committed[0] != tx(1) {
		t.Errorf("Committed = %v", committed)
	}
	if m.Len() != 2 {
		t.Errorf("Len = %d, want 2", m.Len())
	}
}

// TestMonitorTrailLosesOnlyUnforcedAborts: a commit record is forced and
// makes every earlier record durable; an abort after the last commit lives
// in the volatile tail, and a crash loses exactly that tail.
func TestMonitorTrailLosesOnlyUnforcedAborts(t *testing.T) {
	m := NewMonitorTrail(0)
	m.Append(tx(1), OutcomeCommitted)
	m.Append(tx(2), OutcomeAborted) // forced by the commit after it
	m.Append(tx(3), OutcomeCommitted)
	m.Append(tx(4), OutcomeAborted) // after the last force
	m.Append(tx(5), OutcomeAborted)
	if lost := m.CrashLoseUnforced(); lost != 2 {
		t.Errorf("CrashLoseUnforced = %d, want 2", lost)
	}
	want := map[uint64]Outcome{1: OutcomeCommitted, 2: OutcomeAborted, 3: OutcomeCommitted}
	for n := uint64(1); n <= 5; n++ {
		o, ok := m.OutcomeOf(tx(n))
		if w, kept := want[n]; ok != kept || o != w {
			t.Errorf("OutcomeOf(%d) = %v, %v; want %v, %v", n, o, ok, w, kept)
		}
	}
	recs := m.Records()
	if m.Len() != len(want) || len(recs) != len(want) {
		t.Fatalf("Len = %d, Records = %d, want %d", m.Len(), len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Tx != tx(uint64(i+1)) || r.Outcome != want[uint64(i+1)] {
			t.Errorf("record %d = %+v", i, r)
		}
	}
	// A second crash loses nothing more, and the trail goes on from the
	// surviving prefix: a lost transaction may be recorded anew.
	if lost := m.CrashLoseUnforced(); lost != 0 {
		t.Errorf("second CrashLoseUnforced = %d, want 0", lost)
	}
	if _, isNew := m.Append(tx(4), OutcomeAborted); !isNew {
		t.Error("an abort lost in the crash is still recorded")
	}
	if recs := m.Records(); recs[len(recs)-1].Seq != 4 {
		t.Errorf("record after the crash has Seq %d, want 4", recs[len(recs)-1].Seq)
	}
}

func TestAuditProcessRoundTrip(t *testing.T) {
	node, err := hw.NewNode("n", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	trail := NewTrail("a1", 0)
	if _, err := StartProcess(sys, "audit-1", 0, 1, trail); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sys, "audit-1")
	req := &AppendReq{Images: []Image{img(tx(9), "k1", ImageInsert), img(tx(9), "k2", ImageUpdate)}}
	if err := cl.Append(2, req); err != nil {
		t.Fatal(err)
	}
	last := trail.AppendedLSN()
	if last != 2 {
		t.Errorf("last LSN = %d, want 2", last)
	}
	// The trail reads the request and never writes it.
	for _, im := range req.Images {
		if im.LSN != 0 {
			t.Errorf("append wrote LSN %d into the sender's image", im.LSN)
		}
	}
	if err := cl.Force(2, last); err != nil {
		t.Fatal(err)
	}
	if !trail.Forced(last) {
		t.Error("trail not forced via process")
	}
	scan, err := cl.Scan(2, tx(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Images) != 2 || scan.Skipped != 0 {
		t.Errorf("scan = %d images, %d skipped, want 2 and 0", len(scan.Images), scan.Skipped)
	}
}

// TestScanCountsUnreadableRecords: a backout scan that meets a damaged
// record of the transaction, unforced as a live transaction's records are,
// still serves the readable images and counts the one it could not read.
// Other transactions' records are not counted; a recovery read of the
// trail serves what is readable, as before.
func TestScanCountsUnreadableRecords(t *testing.T) {
	node, err := hw.NewNode("n", 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(node)
	trail := NewTrail("a1", 0)
	if _, err := StartProcess(sys, "audit-1", 0, 1, trail); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sys, "audit-1")
	req := &AppendReq{Images: []Image{img(tx(9), "k1", ImageInsert), img(tx(9), "k2", ImageUpdate),
		img(tx(8), "k3", ImageUpdate), img(tx(9), "k4", ImageDelete)}}
	if err := cl.Append(2, req); err != nil {
		t.Fatal(err)
	}
	if !trail.Corrupt(2) || !trail.Corrupt(3) {
		t.Fatal("records 2 and 3 not retained")
	}
	scan, err := cl.Scan(2, tx(9))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Images) != 2 || scan.Skipped != 1 || scan.Images[0].Key != "k1" || scan.Images[1].Key != "k4" {
		t.Errorf("scan = %+v, want k1 and k4 with 1 skipped", scan)
	}
	if got := trail.ImagesForUnforced(tx(9)); len(got) != 2 {
		t.Errorf("recovery read = %d images, want the 2 readable", len(got))
	}
}

func TestAuditProcessSurvivesPrimaryFailure(t *testing.T) {
	node, _ := hw.NewNode("n", 3)
	sys := msg.NewSystem(node)
	trail := NewTrail("a1", 0)
	if _, err := StartProcess(sys, "audit-1", 0, 1, trail); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(sys, "audit-1")
	if err := cl.Append(2, &AppendReq{Images: []Image{img(tx(1), "k", ImageInsert)}}); err != nil {
		t.Fatal(err)
	}
	node.FailCPU(0)
	// The backup serves the same trail: nothing is lost.
	if err := cl.Append(2, &AppendReq{Images: []Image{img(tx(1), "k2", ImageInsert)}}); err != nil {
		t.Fatalf("append after takeover: %v", err)
	}
	if last := trail.AppendedLSN(); last != 2 {
		t.Errorf("LSN continuity broken: %d", last)
	}
	scan, err := cl.Scan(2, tx(1))
	if err != nil || len(scan.Images) != 2 {
		t.Errorf("scan after takeover = %d images, %v", len(scan.Images), err)
	}
}

func TestTrailConcurrentAppendsAssignUniqueLSNs(t *testing.T) {
	tr := NewTrail("a1", 0)
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	lsns := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsns[w] = append(lsns[w], tr.Append(img(tx(uint64(w+1)), "k", ImageUpdate)))
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ws := range lsns {
		prev := uint64(0)
		for _, l := range ws {
			if seen[l] {
				t.Fatalf("duplicate LSN %d", l)
			}
			seen[l] = true
			if l <= prev {
				t.Fatalf("per-writer LSNs not increasing: %d after %d", l, prev)
			}
			prev = l
		}
	}
	if got := tr.AppendedLSN(); got != workers*perWorker {
		t.Errorf("AppendedLSN = %d, want %d", got, workers*perWorker)
	}
	// Per-transaction scans see each writer's records in order.
	tr.ForceAll()
	for w := 0; w < workers; w++ {
		imgs := tr.ImagesFor(tx(uint64(w + 1)))
		if len(imgs) != perWorker {
			t.Fatalf("worker %d images = %d", w, len(imgs))
		}
		for i := 1; i < len(imgs); i++ {
			if imgs[i].LSN <= imgs[i-1].LSN {
				t.Fatalf("scan out of order for worker %d", w)
			}
		}
	}
}

func TestMonitorTrailConcurrentFirstOutcomeWins(t *testing.T) {
	m := NewMonitorTrail(0)
	const writers = 16
	var wg sync.WaitGroup
	outcomes := make([]Outcome, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := OutcomeCommitted
			if w%2 == 1 {
				o = OutcomeAborted
			}
			outcomes[w], _ = m.Append(tx(7), o)
		}()
	}
	wg.Wait()
	want, ok := m.OutcomeOf(tx(7))
	if !ok {
		t.Fatal("no outcome recorded")
	}
	for w, got := range outcomes {
		if got != want {
			t.Errorf("writer %d observed %v, want the single winning outcome %v", w, got, want)
		}
	}
	if m.Len() != 1 {
		t.Errorf("MAT records = %d, want 1", m.Len())
	}
}
