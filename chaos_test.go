package encompass_test

import (
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"encompass"
	"encompass/internal/dst"
	"encompass/internal/expand"
	"encompass/internal/obs"
	"encompass/internal/workload"
)

// chaosRoot announces a chaos test's root seed. Every random stream in
// the test (injector, workload, aborter, flapper, link faults) is derived
// from this one seed via dst.SubSeed, so a failure log names the single
// number that reproduces the whole run.
func chaosRoot(t *testing.T, root int64) int64 {
	t.Logf("chaos root seed %d (streams derived via dst.SubSeed)", root)
	return root
}

// TestChaosSoak runs the banking workload on a two-node system while a
// fault injector continuously fails and revives CPUs, mirrored drives,
// buses, controllers and the network link. The paper's whole thesis is
// that none of this can break atomicity: at the end, every branch balance
// must equal the sum of its tellers.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	root := chaosRoot(t, 99)
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "west", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-west", Audited: true, CacheSize: 256}}},
			{Name: "east", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-east", Audited: true, CacheSize: 256}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement: []workload.Placement{
			{Node: "west", Volume: "v-west"},
			{Node: "east", Volume: "v-east"},
		},
		Branches: 4, Tellers: 3, Accounts: 40,
		RemoteFraction: 0.25,
		Seed:           dst.SubSeed(root, "workload"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var injected atomic.Int64
	go func() {
		rng := rand.New(rand.NewSource(dst.SubSeed(root, "injector")))
		west, east := sys.Node("west"), sys.Node("east")
		for !stop.Load() {
			time.Sleep(time.Duration(5+rng.Intn(15)) * time.Millisecond)
			injected.Add(1)
			switch rng.Intn(8) {
			case 0:
				// Fail a random non-zero CPU on west and revive it shortly.
				// CPU 0 hosts the TMP primary; keeping it alive keeps the
				// run fast (its failure is covered by dedicated tests).
				cpu := 1 + rng.Intn(3)
				west.HW.FailCPU(cpu)
				time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				west.HW.ReviveCPU(cpu)
			case 1:
				cpu := 1 + rng.Intn(3)
				east.HW.FailCPU(cpu)
				time.Sleep(5 * time.Millisecond)
				east.HW.ReviveCPU(cpu)
			case 2:
				west.Volumes["v-west"].Disk.FailDrive(rng.Intn(2))
				time.Sleep(5 * time.Millisecond)
				west.Volumes["v-west"].Disk.ReviveDrive(0)
				west.Volumes["v-west"].Disk.ReviveDrive(1)
			case 3:
				east.Volumes["v-east"].Disk.Controller(rng.Intn(2)).Fail()
				time.Sleep(5 * time.Millisecond)
				east.Volumes["v-east"].Disk.Controller(0).Revive()
				east.Volumes["v-east"].Disk.Controller(1).Revive()
			case 4:
				west.HW.FailBus(0)
				time.Sleep(3 * time.Millisecond)
				west.HW.ReviveBus(0)
			case 5:
				sys.Partition("east")
				time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				sys.Heal()
			default:
				// quiet interval
			}
		}
	}()

	// Two independent requesters, one per node.
	results := make(chan workload.Result, 2)
	for _, node := range []string{"west", "east"} {
		go func() { results <- drive(t, bank, node, 150, 3, 40) }()
	}
	totalCommitted, totalAborted := 0, 0
	for i := 0; i < 2; i++ {
		res := <-results
		totalCommitted += res.Committed
		totalAborted += res.Failed
	}
	stop.Store(true)
	sys.Heal()

	t.Logf("chaos: %d faults injected, %d committed, %d gave up", injected.Load(), totalCommitted, totalAborted)
	if totalCommitted == 0 {
		t.Fatal("nothing committed through the chaos")
	}
	// Let any in-flight aborts and safe deliveries settle.
	time.Sleep(300 * time.Millisecond)
	if err := bank.VerifyConsistency(); err != nil {
		t.Fatalf("ATOMICITY VIOLATED: %v", err)
	}
	// And the system still works afterwards.
	res := drive(t, bank, "west", 20, 2, 40)
	if res.Committed != 20 {
		t.Errorf("post-chaos run: %d/20 committed", res.Committed)
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Fatalf("post-chaos invariant: %v", err)
	}
}

// TestChaosTraceOracle runs a seeded randomized workload — distributed
// commits, voluntary aborts and CPU failures — with lifecycle tracing on,
// then feeds every captured transaction trace through the Figure 3 oracle:
// each transaction must reach ENDED or ABORTED on every node that saw it,
// through legal transitions only. The runtime checker must also have seen
// no illegal state-change broadcast.
func TestChaosTraceOracle(t *testing.T) {
	root := chaosRoot(t, 77)
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "west", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-west", Audited: true, CacheSize: 256}}},
			{Name: "east", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-east", Audited: true, CacheSize: 256}}},
		},
		TraceCapacity: 32768,
	})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement: []workload.Placement{
			{Node: "west", Volume: "v-west"},
			{Node: "east", Volume: "v-east"},
		},
		Branches: 4, Tellers: 3, Accounts: 40,
		RemoteFraction: 0.3,
		Seed:           dst.SubSeed(root, "workload"),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Fault injector: CPU failures and revivals only (never CPU 0, which
	// hosts the TMP primary and the authoritative state-table replica the
	// oracle's From states are read from).
	var stop atomic.Bool
	injectorDone := make(chan struct{})
	go func() {
		defer close(injectorDone)
		rng := rand.New(rand.NewSource(dst.SubSeed(root, "injector")))
		nodes := []*encompass.Node{sys.Node("west"), sys.Node("east")}
		for !stop.Load() {
			time.Sleep(time.Duration(8+rng.Intn(12)) * time.Millisecond)
			n := nodes[rng.Intn(len(nodes))]
			cpu := 1 + rng.Intn(3)
			n.HW.FailCPU(cpu)
			time.Sleep(time.Duration(4+rng.Intn(8)) * time.Millisecond)
			n.HW.ReviveCPU(cpu)
		}
	}()

	// Voluntary aborter: transactions that update an account and then call
	// ABORT-TRANSACTION, exercising the backout path in the trace mix.
	voluntaryAborts := 0
	aborterDone := make(chan struct{})
	go func() {
		defer close(aborterDone)
		rng := rand.New(rand.NewSource(dst.SubSeed(root, "aborter")))
		west := sys.Node("west")
		for i := 0; i < 40; i++ {
			tx, err := west.Begin()
			if err != nil {
				continue
			}
			key := "b0000-a" + padAcct(rng.Intn(40))
			if cur, err := tx.ReadLock("accounts-p0", key); err == nil {
				n, _ := strconv.Atoi(string(cur))
				_ = tx.Update("accounts-p0", key, []byte(strconv.Itoa(n+1)))
			}
			if tx.Abort("voluntary abort for trace oracle") == nil {
				voluntaryAborts++
			}
			time.Sleep(time.Duration(rng.Intn(5)) * time.Millisecond)
		}
	}()

	results := make(chan workload.Result, 2)
	for _, node := range []string{"west", "east"} {
		go func() { results <- drive(t, bank, node, 120, 3, 40) }()
	}
	committed := 0
	for i := 0; i < 2; i++ {
		committed += (<-results).Committed
	}
	<-aborterDone
	stop.Store(true)
	<-injectorDone
	for _, n := range sys.Nodes() {
		for cpu := 1; cpu < 4; cpu++ {
			n.HW.ReviveCPU(cpu)
		}
	}

	if err := dst.OperatorSweep(sys); err != nil {
		t.Fatal(err)
	}

	if committed == 0 {
		t.Fatal("nothing committed through the chaos")
	}
	if voluntaryAborts == 0 {
		t.Fatal("no voluntary aborts landed; the abort path went unexercised")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Fatalf("ATOMICITY VIOLATED: %v", err)
	}

	validated := validateAllTraces(t, sys)
	t.Logf("trace oracle: %d traces validated (%d committed, %d voluntary aborts)",
		validated, committed, voluntaryAborts)
}

// validateAllTraces feeds every captured transaction trace through the
// Figure 3 oracle and checks the runtime checker saw no illegal broadcast.
func validateAllTraces(t *testing.T, sys *encompass.System) int {
	t.Helper()
	validated := 0
	for _, n := range sys.Nodes() {
		tr := n.TMF.Tracer()
		if ev := tr.Evicted(); ev > 0 {
			t.Fatalf("tracer on %s evicted %d traces; raise TraceCapacity", n.Name, ev)
		}
		if vs := n.TMF.Checker().Violations(); len(vs) > 0 {
			t.Errorf("runtime checker on %s recorded %d violations; first: %s", n.Name, len(vs), vs[0])
		}
		for _, id := range tr.Transactions() {
			if err := obs.CheckTrace(tr.Trace(id)); err != nil {
				t.Errorf("trace oracle on %s: %v\n%s", n.Name, err, tr.Dump(id))
			}
			validated++
		}
	}
	if validated == 0 {
		t.Fatal("no traces captured")
	}
	return validated
}

// TestChaosLossyLink runs the banking workload over a single west–east
// line that loses, duplicates, reorders and corrupts frames — the
// "unreliable EXPAND" mode — while the line also flaps down and up. Every
// protocol message rides the reliable-session layer; the invariants are
// the same as ever: balances must stay consistent, every trace must pass
// the Figure 3 oracle, and the session counters must show the layer
// actually worked (retransmits and suppressed duplicates both nonzero).
func TestChaosLossyLink(t *testing.T) {
	root := chaosRoot(t, 4242)
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "west", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-west", Audited: true, CacheSize: 256}}},
			{Name: "east", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-east", Audited: true, CacheSize: 256}}},
		},
		TraceCapacity: 32768,
		LinkFault: expand.FaultProfile{
			Loss: 0.12, Duplicate: 0.06, Reorder: 0.25, Corrupt: 0.03,
			JitterMax: 2 * time.Millisecond, Seed: dst.SubSeed(root, "linkfault"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement: []workload.Placement{
			{Node: "west", Volume: "v-west"},
			{Node: "east", Volume: "v-east"},
		},
		Branches: 4, Tellers: 3, Accounts: 40,
		RemoteFraction: 0.3,
		Seed:           dst.SubSeed(root, "workload"),
	})
	if err != nil {
		t.Fatal(err)
	}

	perNode, workers := 100, 3
	if testing.Short() {
		perNode, workers = 30, 2
	}

	// Flap the (already lossy) line a few times mid-run: in-flight session
	// frames are dropped at delivery time and retransmitted after the heal.
	var stop atomic.Bool
	flapperDone := make(chan struct{})
	go func() {
		defer close(flapperDone)
		rng := rand.New(rand.NewSource(dst.SubSeed(root, "flapper")))
		for !stop.Load() {
			time.Sleep(time.Duration(40+rng.Intn(40)) * time.Millisecond)
			sys.Network.FailLink("west", "east")
			time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
			sys.Network.HealLink("west", "east")
		}
	}()

	results := make(chan workload.Result, 2)
	for _, node := range []string{"west", "east"} {
		go func() { results <- drive(t, bank, node, perNode, workers, 40) }()
	}
	committed := 0
	for i := 0; i < 2; i++ {
		committed += (<-results).Committed
	}
	stop.Store(true)
	<-flapperDone
	sys.Network.HealLink("west", "east")

	if err := dst.OperatorSweep(sys); err != nil {
		t.Fatal(err)
	}

	if committed == 0 {
		t.Fatal("nothing committed over the lossy line")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Fatalf("ATOMICITY VIOLATED under message chaos: %v", err)
	}
	validated := validateAllTraces(t, sys)

	st := sys.Network.Stats()
	if st.Retransmits == 0 {
		t.Error("Retransmits = 0: the session layer never retransmitted under 12% loss")
	}
	if st.DupsDropped == 0 {
		t.Error("DupsDropped = 0: no duplicates suppressed under 6% duplication")
	}
	t.Logf("lossy chaos: %d committed, %d traces validated; net: frames=%d lost=%d retransmits=%d dups=%d corrupt=%d give_ups=%d link_down=%d",
		committed, validated, st.Frames, st.FramesLost, st.Retransmits,
		st.DupsDropped, st.CorruptFrames, st.GiveUps, st.LinkDownDrops)
}

func padAcct(a int) string {
	s := strconv.Itoa(a)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// drive runs n bank transactions from node over terminals closed-loop
// terminals, restarting each up to restarts times.
func drive(tb testing.TB, bank *workload.Bank, node string, n, terminals, restarts int) workload.Result {
	res, err := workload.Driver{Terminals: terminals, Count: n, Restarts: restarts}.Run(bank.Body(node))
	if err != nil {
		tb.Error(err)
	}
	return res
}
