// Banking: a TP1-style online transaction processing run across two
// nodes, with a processor failure injected mid-run. Demonstrates the
// paper's headline behavior: the failure's effect "is limited to the
// on-line backout of those transactions in process on the failed module.
// Transactions uninvolved in the failure continue processing."
package main

import (
	"fmt"
	"log"
	"time"

	"encompass"
	"encompass/internal/workload"
)

func main() {
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "west", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-west", Audited: true, CacheSize: 512}}},
			{Name: "east", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "v-east", Audited: true, CacheSize: 512}}},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement: []workload.Placement{
			{Node: "west", Volume: "v-west"},
			{Node: "east", Volume: "v-east"},
		},
		Branches: 4, Tellers: 5, Accounts: 200,
		RemoteFraction: 0.3, // 30% of transactions commit across both nodes
		Seed:           42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bank installed: 4 branches over 2 nodes, 30% distributed transactions")

	// 100 transactions from 4 terminals at west, each restarted up to 10
	// times on a deadlock timeout or a backout (RESTART-TRANSACTION).
	terminals := workload.Driver{Terminals: 4, Count: 100, Restarts: 10}
	run := func() workload.Result {
		res, err := terminals.Run(bank.Body("west"))
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Phase 1: healthy run.
	res := run()
	fmt.Printf("healthy:      %d committed, %d aborted, %.0f tx/s, p95=%v\n",
		res.Committed, res.Failed, res.TPS(), res.Hist.Quantile(0.95))

	// Phase 2: fail a processor mid-run. Transactions on that CPU are
	// backed out and retried; everything else continues.
	done := make(chan workload.Result, 1)
	go func() { done <- run() }()
	time.Sleep(10 * time.Millisecond)
	fmt.Println("*** failing CPU 1 on node west mid-run ***")
	sys.Node("west").HW.FailCPU(1)
	res = <-done
	fmt.Printf("through fail: %d committed, %d aborted, %d retries\n",
		res.Committed, res.Failed, res.Restarts)

	// Phase 3: also degrade a mirrored disc; service continues.
	fmt.Println("*** failing mirror drive 0 of v-west ***")
	sys.Node("west").Volumes["v-west"].Disk.FailDrive(0)
	res = run()
	fmt.Printf("degraded:     %d committed, %d aborted\n", res.Committed, res.Failed)

	// The invariant that makes it all meaningful.
	if err := bank.VerifyConsistency(); err != nil {
		log.Fatalf("CONSISTENCY VIOLATED: %v", err)
	}
	fmt.Println("TP1 invariant holds: every branch balance equals the sum of its tellers")

	st := sys.Node("west").TMF.Stats()
	fmt.Printf("west TMF: begun=%d committed=%d aborted=%d backouts=%d\n",
		st.Begun, st.Committed, st.Aborted, st.Backouts)
}
