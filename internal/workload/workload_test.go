package workload

import (
	"math/rand"
	"testing"
	"time"

	"encompass"
)

func buildSys(t *testing.T, nodes ...string) *encompass.System {
	t.Helper()
	var specs []encompass.NodeSpec
	for _, n := range nodes {
		specs = append(specs, encompass.NodeSpec{
			Name: n, CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v-" + n, Audited: true, CacheSize: 256}},
		})
	}
	sys, err := encompass.Build(encompass.Config{Nodes: specs})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// run drives n bank transactions from node over terminals closed-loop
// terminals, restarting each up to restarts times.
func run(t *testing.T, bank *Bank, node string, n, terminals, restarts int) Result {
	res, err := Driver{Terminals: terminals, Count: n, Restarts: restarts}.Run(bank.Body(node))
	if err != nil {
		t.Error(err)
	}
	return res
}

func TestBankSingleNode(t *testing.T) {
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 3, Accounts: 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, bank, "a", 50, 4, 5)
	if res.Committed != 50 {
		t.Errorf("committed = %d/%d (failed %d)", res.Committed, 50, res.Failed)
	}
	if res.TPS() <= 0 {
		t.Error("TPS not positive")
	}
	if p50, p95 := res.Hist.Quantile(0.5), res.Hist.Quantile(0.95); p50 <= 0 || p95 < p50 {
		t.Errorf("latency quantiles: p50=%v p95=%v", p50, p95)
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestBankDistributed(t *testing.T) {
	sys := buildSys(t, "a", "b")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}, {Node: "b", Volume: "v-b"}},
		Branches:  4, Tellers: 2, Accounts: 10,
		RemoteFraction: 1.0, // every transaction crosses nodes
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	framesBefore := sys.Network.Stats().Frames
	res := run(t, bank, "a", 30, 2, 5)
	if res.Committed != 30 {
		t.Errorf("committed = %d (failed %d)", res.Committed, res.Failed)
	}
	if sys.Network.Stats().Frames == framesBefore {
		t.Error("distributed workload exchanged no frames")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestBankHotSpotContention(t *testing.T) {
	sys := buildSys(t, "a")
	sys.Node("a").FS.LockTimeout = 100 * time.Millisecond
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  1, Tellers: 2, Accounts: 4,
		HotAccounts: 1.0, // everyone fights for account 0
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, bank, "a", 40, 8, 20)
	if res.Committed != 40 {
		t.Errorf("committed = %d (failed %d, restarts %d)", res.Committed, res.Failed, res.Restarts)
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestOneTxDeterministicWithSeed(t *testing.T) {
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 2, Accounts: 10, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if err := bank.OneTx("a", rng); err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Error(err)
	}
}

func TestConsistencySurvivesCPUFailureMidRun(t *testing.T) {
	// The F1 experiment in miniature: kill a CPU mid-workload; affected
	// transactions abort or retry, and the TP1 invariant still holds.
	sys := buildSys(t, "a")
	bank, err := SetupBank(sys, BankConfig{
		Placement: []Placement{{Node: "a", Volume: "v-a"}},
		Branches:  2, Tellers: 3, Accounts: 20, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Result, 1)
	go func() { done <- run(t, bank, "a", 60, 4, 10) }()
	time.Sleep(20 * time.Millisecond)
	sys.Node("a").HW.FailCPU(1)
	res := <-done
	if res.Committed == 0 {
		t.Fatal("nothing committed through the failure")
	}
	if err := bank.VerifyConsistency(); err != nil {
		t.Errorf("invariant violated after CPU failure: %v", err)
	}
	t.Logf("committed=%d failed=%d restarts=%d", res.Committed, res.Failed, res.Restarts)
}
