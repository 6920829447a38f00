package audit_test

// The crash-point recovery matrix: for a trail of N records, damage the
// media image at every interesting point — truncation at each record
// boundary, truncation mid-record, single-bit flips in segment header,
// record body, chain and checksum — and require that OpenTrail never
// panics, reports the torn tail, and that ROLLFORWARD over the reopened
// trail recovers exactly the committed prefix: every committed
// transaction whose records survive is fully restored, everything past
// the damage is absent, and no aborted transaction is resurrected.
//
// `make crash-matrix` runs the exhaustive matrix; `make check` runs the
// -short subset (every fifth record, fewer variants per point).

import (
	"fmt"
	"testing"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/disk"
	"encompass/internal/obs"
	"encompass/internal/rollforward"
	"encompass/internal/txid"
)

// recLoc locates one record inside a dumped trail: segment index, record
// index within the segment, byte offset and framed length.
type recLoc struct {
	seg, idx, off, length int
}

func recLocs(dumps []audit.SegmentDump) []recLoc {
	var out []recLoc
	for si, d := range dumps {
		for ri, off := range d.Offsets {
			end := len(d.Bytes)
			if ri+1 < len(d.Offsets) {
				end = d.Offsets[ri+1]
			}
			out = append(out, recLoc{seg: si, idx: ri, off: off, length: end - off})
		}
	}
	return out
}

// cutMedia truncates the dumped trail at byte cutOff of segment cutSeg,
// dropping every later segment — what a torn multi-segment write leaves.
func cutMedia(dumps []audit.SegmentDump, cutSeg, cutOff int) [][]byte {
	var out [][]byte
	for si := 0; si <= cutSeg && si < len(dumps); si++ {
		b := dumps[si].Bytes
		if si == cutSeg {
			b = b[:cutOff]
		}
		out = append(out, append([]byte(nil), b...))
	}
	return out
}

// flipMedia copies the whole dump and flips one bit.
func flipMedia(dumps []audit.SegmentDump, seg, off int) [][]byte {
	out := make([][]byte, len(dumps))
	for si, d := range dumps {
		out[si] = append([]byte(nil), d.Bytes...)
	}
	out[seg][off] ^= 0x80
	return out
}

// matrixFixture is a synthetic single-trail history of single-record
// transactions (so "the committed prefix" is exact per transaction):
// every third transaction aborts and is backed out; the rest commit.
type matrixFixture struct {
	vol       *disk.Volume
	trail     *audit.Trail
	mat       *audit.MonitorTrail
	arch      *rollforward.Archive
	committed []bool // per record
	keys      []string
	vals      []string
}

func buildMatrixFixture(n int) *matrixFixture {
	f := &matrixFixture{
		vol:   disk.NewVolume("v1"),
		trail: audit.NewTrail("a1", 0),
		mat:   audit.NewMonitorTrail(0),
	}
	f.trail.SetSegmentCapacity(8)
	f.arch = rollforward.Take("home",
		map[string]*disk.Volume{"v1": f.vol},
		map[string]*audit.Trail{"a1": f.trail},
		func(id txid.ID) bool { _, ok := f.mat.OutcomeOf(id); return ok })
	for i := 0; i < n; i++ {
		id := txid.ID{Home: "home", CPU: 0, Seq: uint64(i + 1)}
		key := fmt.Sprintf("k%03d", i)
		val := fmt.Sprintf("v%03d", i)
		commit := i%3 != 2
		f.trail.Append(audit.Image{Tx: id, Volume: "v1", File: "data", Key: key,
			Kind: audit.ImageInsert, After: []byte(val)})
		f.vol.Write("data", key, []byte(val))
		if commit {
			f.trail.ForceAll()
			f.mat.Append(id, audit.OutcomeCommitted)
		} else {
			f.vol.Delete("data", key) // backout
			f.mat.Append(id, audit.OutcomeAborted)
		}
		f.committed = append(f.committed, commit)
		f.keys = append(f.keys, key)
		f.vals = append(f.vals, val)
	}
	f.trail.ForceAll() // aborted records reach media too
	return f
}

// expect computes the exact post-recovery state when the first f records
// survive: committed records' values, nothing else.
func (f *matrixFixture) expect(surviving int) map[string]string {
	want := make(map[string]string)
	for i := 0; i < surviving && i < len(f.keys); i++ {
		if f.committed[i] {
			want[f.keys[i]] = f.vals[i]
		}
	}
	return want
}

// runCase opens the damaged media and rolls a fresh volume forward from
// the archive, asserting the recovered state is exactly the committed
// prefix of the surviving records.
func (f *matrixFixture) runCase(t *testing.T, label string, segs [][]byte, surviving int, wantReport bool) {
	t.Helper()
	opened, report := audit.OpenTrail("a1", 0, segs)
	if (report != nil) != wantReport {
		t.Errorf("%s: report = %v, want report %v", label, report, wantReport)
	}
	if report != nil && report.LastGoodLSN != uint64(surviving) {
		t.Errorf("%s: LastGoodLSN = %d, want %d (%v)", label, report.LastGoodLSN, surviving, report)
	}
	if got := opened.AppendedLSN(); got != uint64(surviving) {
		t.Errorf("%s: reopened trail holds LSNs up to %d, want %d", label, got, surviving)
	}
	if n, err := opened.VerifyChain(); err != nil || n != surviving {
		t.Errorf("%s: VerifyChain = %d, %v; want %d records verified clean", label, n, err, surviving)
	}

	vol := disk.NewVolume("v1")
	st, err := rollforward.Recover(f.arch,
		map[string]*disk.Volume{"v1": vol},
		map[string]*audit.Trail{"a1": opened},
		f.mat, func(txid.ID) (bool, error) { return false, nil })
	if err != nil {
		t.Errorf("%s: recover: %v", label, err)
		return
	}
	if st.ImagesScanned != surviving {
		t.Errorf("%s: scanned %d images, want %d", label, st.ImagesScanned, surviving)
	}
	want := f.expect(surviving)
	got := vol.Snapshot()["data"]
	for k, v := range want {
		if string(got[k]) != v {
			t.Errorf("%s: recovered %s = %q, want %q", label, k, got[k], v)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: recovered %s = %q, which must be absent (lost or aborted)", label, k, got[k])
		}
	}
}

func TestCrashMatrixSynthetic(t *testing.T) {
	const n = 40
	f := buildMatrixFixture(n)
	dumps := f.trail.DumpSegments()
	recs := recLocs(dumps)
	if len(recs) != n {
		t.Fatalf("dumped %d records, want %d", len(recs), n)
	}

	const headerLen = 64 // audit segment header size (DESIGN.md §13)

	for g, r := range recs {
		if testing.Short() && g%5 != 0 && g != len(recs)-1 {
			continue
		}
		// Truncations: at the record boundary (clean-looking shorter
		// trail), one byte into the length prefix, and mid-record.
		f.runCase(t, fmt.Sprintf("cut@rec%d-boundary", g), cutMedia(dumps, r.seg, r.off), g, false)
		f.runCase(t, fmt.Sprintf("cut@rec%d-mid", g), cutMedia(dumps, r.seg, r.off+r.length/2), g, true)
		if !testing.Short() {
			f.runCase(t, fmt.Sprintf("cut@rec%d+1", g), cutMedia(dumps, r.seg, r.off+1), g, true)
		}
		// Single-bit flips: record body, chain value, checksum.
		f.runCase(t, fmt.Sprintf("flip@rec%d-body", g), flipMedia(dumps, r.seg, r.off+4+8+2), g, true)
		f.runCase(t, fmt.Sprintf("flip@rec%d-crc", g), flipMedia(dumps, r.seg, r.off+r.length-1), g, true)
		if !testing.Short() {
			f.runCase(t, fmt.Sprintf("flip@rec%d-chain", g), flipMedia(dumps, r.seg, r.off+r.length-4-1), g, true)
		}
	}

	// Header damage drops the whole segment and everything after it.
	for si, d := range dumps {
		if testing.Short() && si%2 != 0 {
			continue
		}
		first := int(d.Base) - 1 // records surviving = those before this segment
		f.runCase(t, fmt.Sprintf("flip@seg%d-header", si), flipMedia(dumps, si, 1), first, true)
		f.runCase(t, fmt.Sprintf("flip@seg%d-prevchain", si), flipMedia(dumps, si, headerLen-2), first, true)
		f.runCase(t, fmt.Sprintf("cut@seg%d-midheader", si), cutMedia(dumps, si, headerLen/2), first, true)
	}
}

// TestCrashMatrixSystemRecovery drives the same matrix through the whole
// system: a real node runs transactions, suffers total node failure, the
// trail is reopened from damaged media, and Node.Recover (ROLLFORWARD +
// process restarts) must restore exactly the committed surviving prefix —
// then keep working, with every trace passing the Figure 3 oracle.
func TestCrashMatrixSystemRecovery(t *testing.T) {
	const nTx = 40

	type sysCase struct {
		name       string
		mutate     func(dumps []audit.SegmentDump, recs []recLoc) [][]byte
		wantReport bool
		// surviving returns the highest surviving LSN.
		surviving func(dumps []audit.SegmentDump, recs []recLoc) uint64
	}
	mid := func(recs []recLoc) recLoc { return recs[len(recs)/2] }
	cases := []sysCase{
		{
			name: "clean",
			mutate: func(dumps []audit.SegmentDump, recs []recLoc) [][]byte {
				return cutMedia(dumps, len(dumps)-1, len(dumps[len(dumps)-1].Bytes))
			},
			wantReport: false,
			surviving: func(dumps []audit.SegmentDump, recs []recLoc) uint64 {
				last := dumps[len(dumps)-1]
				return last.Base + uint64(len(last.Offsets)) - 1
			},
		},
		{
			name: "cut-mid-record",
			mutate: func(dumps []audit.SegmentDump, recs []recLoc) [][]byte {
				r := mid(recs)
				return cutMedia(dumps, r.seg, r.off+r.length/2)
			},
			wantReport: true,
			surviving: func(dumps []audit.SegmentDump, recs []recLoc) uint64 {
				r := mid(recs)
				return dumps[r.seg].Base + uint64(r.idx) - 1
			},
		},
	}
	if !testing.Short() {
		cases = append(cases,
			sysCase{
				name: "cut-record-boundary",
				mutate: func(dumps []audit.SegmentDump, recs []recLoc) [][]byte {
					r := mid(recs)
					return cutMedia(dumps, r.seg, r.off)
				},
				wantReport: false,
				surviving: func(dumps []audit.SegmentDump, recs []recLoc) uint64 {
					r := mid(recs)
					return dumps[r.seg].Base + uint64(r.idx) - 1
				},
			},
			sysCase{
				name: "flip-last-segment-header",
				mutate: func(dumps []audit.SegmentDump, recs []recLoc) [][]byte {
					return flipMedia(dumps, len(dumps)-1, 1)
				},
				wantReport: true,
				surviving: func(dumps []audit.SegmentDump, recs []recLoc) uint64 {
					return dumps[len(dumps)-1].Base - 1
				},
			},
		)
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := encompass.Build(encompass.Config{
				Nodes: []encompass.NodeSpec{{
					Name: "a", CPUs: 4,
					Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true, CacheSize: 4096}},
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			a := sys.Node("a")
			if err := a.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "a", "va")); err != nil {
				t.Fatal(err)
			}
			tr := a.Volumes["va"].Trail
			tr.SetSegmentCapacity(16)

			seed, _ := a.Begin()
			seed.Insert("f", "seed", []byte("seed"))
			if err := seed.Commit(); err != nil {
				t.Fatal(err)
			}
			arch := a.TakeArchive()

			type txRec struct {
				key       string
				lsn       uint64
				committed bool
			}
			var txs []txRec
			for i := 0; i < nTx; i++ {
				tx, err := a.Begin()
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("k%03d", i)
				if err := tx.Insert("f", key, []byte("v-"+key)); err != nil {
					t.Fatal(err)
				}
				if i%10 == 7 {
					tx.Abort("crash matrix")
					txs = append(txs, txRec{key: key, lsn: tr.AppendedLSN(), committed: false})
					continue
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				txs = append(txs, txRec{key: key, lsn: tr.AppendedLSN(), committed: true})
			}

			a.Crash()
			dumps := tr.DumpSegments()
			recs := recLocs(dumps)
			segs := tc.mutate(dumps, recs)
			surviving := tc.surviving(dumps, recs)

			opened, report := audit.OpenTrail(tr.Name(), 0, segs)
			if (report != nil) != tc.wantReport {
				t.Fatalf("report = %v, want report %v", report, tc.wantReport)
			}
			if report != nil && report.LastGoodLSN != surviving {
				t.Fatalf("LastGoodLSN = %d, want %d", report.LastGoodLSN, surviving)
			}
			a.Volumes["va"].Trail = opened

			if _, err := a.Recover(arch); err != nil {
				t.Fatalf("recover: %v", err)
			}

			// The committed prefix, exactly: a transaction's effects are
			// present iff it committed and its records survived.
			if v, err := a.FS.Read("f", "seed"); err != nil || string(v) != "seed" {
				t.Errorf("pre-archive record = %q, %v", v, err)
			}
			for _, rec := range txs {
				v, err := a.FS.Read("f", rec.key)
				if rec.committed && rec.lsn <= surviving {
					if err != nil || string(v) != "v-"+rec.key {
						t.Errorf("surviving committed %s = %q, %v", rec.key, v, err)
					}
				} else if err == nil {
					t.Errorf("%s present after recovery (committed=%v, lsn=%d > surviving %d)",
						rec.key, rec.committed, rec.lsn, surviving)
				}
			}

			// The node must keep working on the reopened trail, and every
			// trace must pass the Figure 3 oracle (MAT agreement is the
			// replay's own decision source; the oracle checks the resumed
			// executions are legal).
			for i := 0; i < 5; i++ {
				tx, err := a.Begin()
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.Insert("f", fmt.Sprintf("post%02d", i), []byte("post")); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("post-recovery commit: %v", err)
				}
			}
			tracer := a.TMF.Tracer()
			for _, id := range tracer.Transactions() {
				if err := obs.CheckTrace(tracer.Trace(id)); err != nil {
					t.Errorf("figure-3 oracle: %v\n%s", err, tracer.Dump(id))
				}
			}
			if n, err := opened.VerifyChain(); err != nil {
				t.Errorf("post-recovery VerifyChain after %d records: %v", n, err)
			}
		})
	}
}
