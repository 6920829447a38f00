// Benchmarks regenerating the performance-shaped rows of every experiment
// in DESIGN.md §5. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers reflect the simulator on the host machine, not 1981
// Tandem hardware; the shapes (who wins, how costs grow) are the
// reproduction targets. cmd/tmfbench prints the corresponding tables.
package encompass_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"encompass"
	"encompass/internal/workload"
)

// benchSystem builds n nodes a, b, c... each with one audited volume and
// one file, linked in a line.
func benchSystem(b *testing.B, nodes int, forceEvery bool, auditDelay time.Duration) (*encompass.System, []string) {
	b.Helper()
	var specs []encompass.NodeSpec
	var names []string
	for i := 0; i < nodes; i++ {
		name := string(rune('a' + i))
		names = append(names, name)
		specs = append(specs, encompass.NodeSpec{
			Name: name, CPUs: 4,
			Volumes: []encompass.VolumeSpec{{
				Name: "v" + name, Audited: true, CacheSize: 1024, ForceEveryUpdate: forceEvery,
			}},
		})
	}
	sys, err := encompass.Build(encompass.Config{Nodes: specs, AuditForceDelay: auditDelay})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		if err := sys.CreateFileEverywhere(encompass.LocalFile("f"+name, encompass.KeySequenced, name, "v"+name)); err != nil {
			b.Fatal(err)
		}
	}
	return sys, names
}

// BenchmarkT1CommitSingleNode measures the abbreviated (single-node)
// two-phase commit: one insert then END-TRANSACTION.
func BenchmarkT1CommitSingleNode(b *testing.B) {
	sys, names := benchSystem(b, 1, false, 0)
	node := sys.Node(names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := node.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Insert("fa", fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTP1RecordPath runs the File System half of one TP1
// debit/credit, as the bank server does it: BEGIN, a locked read and an
// update of an account on one audited volume and of a teller and a branch
// on another, a history append, and END. It is `make profile`'s default,
// so the profile shows the record path without the requester and server
// class around it.
func BenchmarkTP1RecordPath(b *testing.B) {
	sys, err := encompass.Build(encompass.Config{Nodes: []encompass.NodeSpec{{
		Name: "n1", CPUs: 4,
		Volumes: []encompass.VolumeSpec{
			{Name: "v1", Audited: true, CacheSize: 1024},
			{Name: "v2", Audited: true, CacheSize: 1024},
		},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Stop()
	for _, fi := range []encompass.FileInfo{
		encompass.LocalFile("accounts", encompass.KeySequenced, "n1", "v1"),
		encompass.LocalFile("tellers", encompass.KeySequenced, "n1", "v2"),
		encompass.LocalFile("branches", encompass.KeySequenced, "n1", "v2"),
		encompass.LocalFile("history", encompass.EntrySequenced, "n1", "v2"),
	} {
		if err := sys.CreateFileEverywhere(fi); err != nil {
			b.Fatal(err)
		}
	}
	const keys = 64
	node, val := sys.Node("n1"), []byte("100")
	files := [3]string{"accounts", "tellers", "branches"}
	seed, err := node.Begin()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		for _, f := range files {
			if err := seed.Insert(f, fmt.Sprintf("%s%03d", f[:1], i), val); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	var recKeys [keys][3]string
	for i := range recKeys {
		for j, f := range files {
			recKeys[i][j] = fmt.Sprintf("%s%03d", f[:1], i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := node.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for j, f := range files {
			if _, err := tx.ReadLock(f, recKeys[i%keys][j]); err != nil {
				b.Fatal(err)
			}
			if err := tx.Update(f, recKeys[i%keys][j], val); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Append("history", val); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDistributedCommit(b *testing.B, nodes int) {
	sys, names := benchSystem(b, nodes, false, 0)
	home := sys.Node(names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := home.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range names {
			if err := tx.Insert("f"+name, fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.Network.Stats().Frames)/float64(b.N), "frames/tx")
}

// BenchmarkT1CommitDistributed2 measures the distributed protocol with one
// remote participant; ...3 and ...4 add transitive participants.
func BenchmarkT1CommitDistributed2(b *testing.B) { benchDistributedCommit(b, 2) }
func BenchmarkT1CommitDistributed3(b *testing.B) { benchDistributedCommit(b, 3) }
func BenchmarkT1CommitDistributed4(b *testing.B) { benchDistributedCommit(b, 4) }

func benchT2(b *testing.B, forceEvery bool) {
	const updatesPerTx = 8
	sys, names := benchSystem(b, 1, forceEvery, 200*time.Microsecond)
	node := sys.Node(names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := node.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for u := 0; u < updatesPerTx; u++ {
			if err := tx.Insert("fa", fmt.Sprintf("k%09d-%d", i, u), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(node.Volumes["va"].Trail.ForceCount())/float64(b.N), "forces/tx")
}

// BenchmarkT2WALForceEveryUpdate is the conventional discipline: the audit
// trail is force-written on every update.
func BenchmarkT2WALForceEveryUpdate(b *testing.B) { benchT2(b, true) }

// BenchmarkT2CheckpointStyle is the paper's discipline: checkpoint to the
// backup replaces per-update forcing; the trail is forced once at commit.
func BenchmarkT2CheckpointStyle(b *testing.B) { benchT2(b, false) }

func benchBackout(b *testing.B, updates int) {
	sys, names := benchSystem(b, 1, false, 0)
	node := sys.Node(names[0])
	seed, _ := node.Begin()
	for i := 0; i < updates; i++ {
		if err := seed.Insert("fa", fmt.Sprintf("k%06d", i), []byte("orig")); err != nil {
			b.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tx, _ := node.Begin()
		for u := 0; u < updates; u++ {
			key := fmt.Sprintf("k%06d", u)
			if _, err := node.FS.ReadLock(tx.ID, "fa", key); err != nil {
				b.Fatal(err)
			}
			if err := node.FS.Update(tx.ID, "fa", key, []byte("dirty")); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := tx.Abort("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT3Backout* measure transaction backout (before-image undo) cost
// as transaction size grows.
func BenchmarkT3Backout4(b *testing.B)  { benchBackout(b, 4) }
func BenchmarkT3Backout16(b *testing.B) { benchBackout(b, 16) }
func BenchmarkT3Backout64(b *testing.B) { benchBackout(b, 64) }

// BenchmarkT4Contention measures hot-spot throughput with deadlock-by-
// timeout recovery under 4-way concurrency.
func BenchmarkT4Contention(b *testing.B) {
	sys, names := benchSystem(b, 1, false, 0)
	sys.Node(names[0]).FS.LockTimeout = 100 * time.Millisecond
	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement: []workload.Placement{{Node: names[0], Volume: "v" + names[0]}},
		Branches:  1, Tellers: 2, Accounts: 4,
		HotAccounts: 0.8, Seed: 17,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res := drive(b, bank, names[0], b.N, 4, 50)
	b.StopTimer()
	if res.Committed != b.N {
		b.Fatalf("committed %d/%d", res.Committed, b.N)
	}
	b.ReportMetric(float64(res.Restarts)/float64(b.N), "retries/tx")
	if err := bank.VerifyConsistency(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkT5Rollforward measures total-node-failure recovery for a
// 500-transaction committed history.
func BenchmarkT5Rollforward(b *testing.B) {
	const history = 500
	sys, names := benchSystem(b, 1, false, 0)
	node := sys.Node(names[0])
	arch := node.TakeArchive()
	for i := 0; i < history; i++ {
		tx, _ := node.Begin()
		if err := tx.Insert("fa", fmt.Sprintf("k%06d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Crash()
		st, err := node.Recover(arch)
		if err != nil {
			b.Fatal(err)
		}
		if st.ImagesReplayed != history {
			b.Fatalf("replayed %d, want %d", st.ImagesReplayed, history)
		}
	}
	b.ReportMetric(float64(history), "images/recovery")
}

func benchBroadcast(b *testing.B, cpus int) {
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: cpus,
			Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 1024}},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	node := sys.Node("alpha")
	if err := node.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1")); err != nil {
		b.Fatal(err)
	}
	x0, y0 := node.HW.BusTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := node.Begin()
		if err := tx.Insert("f", fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	x1, y1 := node.HW.BusTraffic()
	b.ReportMetric(float64((x1+y1)-(x0+y0))/float64(b.N), "busmsgs/tx")
}

// BenchmarkT6Broadcast* show per-transaction interprocessor-bus traffic
// growing with CPU count (every state change is broadcast to all CPUs).
func BenchmarkT6Broadcast2CPU(b *testing.B)  { benchBroadcast(b, 2) }
func BenchmarkT6Broadcast4CPU(b *testing.B)  { benchBroadcast(b, 4) }
func BenchmarkT6Broadcast16CPU(b *testing.B) { benchBroadcast(b, 16) }

// BenchmarkF1TakeoverLatency measures how long a DISCPROCESS takeover
// keeps the volume unavailable: time from primary-CPU failure to the first
// successful operation on the new primary.
func BenchmarkF1TakeoverLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, names := benchSystem(b, 1, false, 0)
		node := sys.Node(names[0])
		tx, _ := node.Begin()
		if err := tx.Insert("fa", "k", []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		prim := node.Volumes["va"].Proc.Pair.PrimaryCPU()
		b.StartTimer()
		node.HW.FailCPU(prim)
		for {
			if _, err := node.FS.Read("fa", "k"); err == nil {
				break
			}
		}
	}
}

// benchFanoutSystem builds nodes each carrying several audited volumes in
// separate audit groups (own trail each), so one transaction touching every
// file has many participants to force and visit at commit.
func benchFanoutSystem(b *testing.B, nodes, vols int, auditDelay time.Duration) (*encompass.System, []string, []string) {
	b.Helper()
	var specs []encompass.NodeSpec
	var names, files []string
	for i := 0; i < nodes; i++ {
		name := string(rune('a' + i))
		names = append(names, name)
		var vspecs []encompass.VolumeSpec
		for v := 0; v < vols; v++ {
			vspecs = append(vspecs, encompass.VolumeSpec{
				Name: fmt.Sprintf("v%s%d", name, v), Audited: true, CacheSize: 1024,
			})
		}
		specs = append(specs, encompass.NodeSpec{Name: name, CPUs: 4, Volumes: vspecs})
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: specs, AuditForceDelay: auditDelay,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		for v := 0; v < vols; v++ {
			f := fmt.Sprintf("f%s%d", name, v)
			if err := sys.CreateFileEverywhere(encompass.LocalFile(f, encompass.KeySequenced, name, fmt.Sprintf("v%s%d", name, v))); err != nil {
				b.Fatal(err)
			}
			files = append(files, f)
		}
	}
	return sys, names, files
}

// BenchmarkT9ParallelCommit fans phase one and phase two out across
// all nine participants concurrently.
func BenchmarkT9ParallelCommit(b *testing.B) {
	sys, names, files := benchFanoutSystem(b, 3, 3, 200*time.Microsecond)
	home := sys.Node(names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := home.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range files {
			if err := tx.Insert(f, fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT9GroupCommit runs concurrent single-volume committers against
// one audit trail: the group-commit machinery lets one simulated disc write
// cover many committers, reported as forces/tx (1.0 = no sharing).
func BenchmarkT9GroupCommit(b *testing.B) {
	sys, names, files := benchFanoutSystem(b, 1, 1, 200*time.Microsecond)
	node := sys.Node(names[0])
	var keys atomic.Uint64
	// The simulated disc force is a sleep, not CPU work: scale the committer
	// count past GOMAXPROCS so forces overlap even on a single-CPU host.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tx, err := node.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := tx.Insert(files[0], fmt.Sprintf("k%09d", keys.Add(1)), []byte("v")); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	st := node.Volumes["va0"].Trail.ForceStats()
	b.ReportMetric(float64(st.Forces)/float64(b.N), "forces/tx")
	b.ReportMetric(float64(st.MaxBatch), "maxbatch")
}

// BenchmarkF3StateChange measures one full transaction lifecycle's state
// machine work with no data at all (begin + commit of an empty tx).
func BenchmarkF3StateChange(b *testing.B) {
	sys, names := benchSystem(b, 1, false, 0)
	node := sys.Node(names[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := node.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
