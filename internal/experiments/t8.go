package experiments

import (
	"fmt"
	"time"

	"encompass"
	"encompass/internal/workload"
)

// T8 quantifies the paper's central motivation: "The effect of a processor
// or other single module failure, which would necessitate crash restart
// and data base recovery on a conventional system, is limited to the
// on-line backout of those transactions in process on the failed module."
//
// Two runs of the same workload suffer the same processor failure:
//
//   - NonStop: process-pair takeover; service continues. The metric is the
//     longest gap between successive commits around the failure.
//   - Conventional (simulated): the failure halts the node; recovery is a
//     full restart — restore the archive and roll forward the day's
//     committed history — before the workload resumes. The metric is the
//     measured downtime.
//
// The conventional system's recovery grows with history; NonStop's stall
// does not.
func t8(r *Report) error {
	r.Columns = []string{"system", "committed txs", "history at failure", "service interruption"}
	const (
		preFailure  = 400 // transactions before the failure (the "day's history")
		postFailure = 100
	)

	build := func() (*encompass.System, *workload.Bank, error) {
		sys, _, err := r.build(cluster{cache: 2048})
		if err != nil {
			return nil, nil, err
		}
		bank, err := workload.SetupBank(sys, workload.BankConfig{
			Placement: []workload.Placement{{Node: "a", Volume: "v-a"}},
			Branches:  2, Tellers: 3, Accounts: 100, Seed: 5,
		})
		return sys, bank, err
	}
	// run drives n bank transactions from one terminal and returns how
	// many committed.
	run := func(bank *workload.Bank, n int) int {
		res, err := workload.Driver{Terminals: 1, Count: n, Restarts: 20}.Run(bank.Body("a"))
		if err != nil {
			return 0
		}
		return res.Committed
	}

	// --- NonStop run: fail the DISCPROCESS primary's CPU mid-stream. ---
	sys, bank, err := build()
	if err != nil {
		return err
	}
	node := sys.Node("a")
	committed := 0
	runSome := func(n int) bool {
		c := run(bank, n)
		committed += c
		return c == n
	}
	ok := runSome(preFailure)
	failed := time.Now()
	node.HW.FailCPU(node.Volumes["v-a"].Proc.Pair.PrimaryCPU())
	// Time the first post-failure commit: the takeover stall.
	ok = runSome(1) && ok
	nonstopStall := time.Since(failed)
	ok = ok && runSome(postFailure-1) && bank.VerifyConsistency() == nil
	r.Rows = append(r.Rows, []string{
		"NonStop (takeover + online backout)",
		i2s(committed), i2s(preFailure), dur(nonstopStall),
	})

	// --- Conventional run: the same failure halts the node. ---
	sys2, bank2, err := build()
	if err != nil {
		return err
	}
	node2 := sys2.Node("a")
	arch := node2.TakeArchive()
	c2 := run(bank2, preFailure)
	ok2 := c2 == preFailure
	// Failure: a conventional system halts and runs restart recovery.
	down := time.Now()
	node2.Crash()
	if _, err := node2.Recover(arch); err != nil {
		return fmt.Errorf("conventional recovery failed: %w", err)
	}
	// Service is back when the first post-restart transaction commits.
	c3 := run(bank2, 1)
	downtime := time.Since(down)
	ok2 = ok2 && c3 == 1
	c4 := run(bank2, postFailure-1)
	ok2 = ok2 && c4 == postFailure-1 && bank2.VerifyConsistency() == nil
	r.Rows = append(r.Rows, []string{
		"conventional (halt + restore + rollforward)",
		i2s(c2 + c3 + c4), i2s(preFailure), dur(downtime),
	})

	r.Notes = append(r.Notes,
		"same workload, same processor failure; the conventional run must replay the whole history since the archive",
		fmt.Sprintf("interruption ratio: conventional is %.0fx the NonStop takeover stall", float64(downtime)/float64(max(nonstopStall, 1))),
		"NonStop's stall is a process-pair takeover; it does not grow with history")
	r.Pass = ok && ok2 && downtime > nonstopStall
	return nil
}
