// Command tmfctl is the operator's view of TMF. Its default walk-through
// demonstrates the paper's manual-override procedure for in-doubt
// transactions. When communication is lost after a non-home node has
// acknowledged phase one, that node must hold the transaction's locks
// until it learns the disposition; the paper's prescribed manual override
// is: (1) use a TMF utility on the home node to determine the
// transaction's disposition; (2) a telephone conversation between
// operators; (3) use of the TMF utility on the non-home node to force the
// disposition.
//
// Because the simulation is in-process, tmfctl runs the whole scenario:
// it builds a two-node system, drives a distributed transaction into the
// in-doubt window with a partition, then plays both operators — querying
// the home node's Monitor Audit Trail and forcing the disposition on the
// severed node — and verifies the locks were released and the data
// matches the home node's decision.
//
// Subcommands view the same scenario through the observability layer:
//
//	tmfctl                  run the manual-override walk-through
//	tmfctl trace            dump the in-doubt transaction's lifecycle trace
//	tmfctl trace <id>       dump the trace of a specific transid (\home(cpu).seq)
//	tmfctl disposition      each node's view of the scenario transaction's
//	                        disposition: outcome, who decided it, and what the
//	                        node still lists as in doubt
//	tmfctl disposition <id> the same for a specific transid
//	tmfctl metrics          print both nodes' metrics registries
//
// The audit-integrity utility walks every audit trail's hash chain:
//
//	tmfctl verify-trail           verify every trail after the scenario
//	tmfctl verify-trail -corrupt  flip one record bit first; the walk must
//	                              pinpoint the damage (exit 1 if it does not)
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"encompass"
	"encompass/internal/txid"
)

func main() {
	cmd, args := "override", os.Args[1:]
	if len(args) > 0 {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "override":
		_, _, err = scenario(true)
		if err == nil {
			fmt.Println("\ntmfctl: manual override completed consistently")
		}
	case "trace":
		err = runTrace(args)
	case "disposition":
		err = runDisposition(args)
	case "metrics":
		err = runMetrics(os.Stdout)
	case "verify-trail":
		err = runVerifyTrail(os.Stdout, len(args) > 0 && args[0] == "-corrupt")
	case "help", "-h", "--help":
		usage(os.Stdout)
	default:
		usage(os.Stderr)
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmfctl:", err)
		os.Exit(1)
	}
}

func usage(w *os.File) {
	fmt.Fprintln(w, `usage: tmfctl [override | trace [transid] | disposition [transid] | metrics | verify-trail [-corrupt]]`)
}

// runVerifyTrail replays the scenario, then walks the full hash chain of
// every audited trail in the cluster: every record's CRC, its chain link
// to the record before it, and the links across segment boundaries. With
// corrupt, it first flips one bit in the body of a mid-trail record —
// framing intact, so only the checksum walk can see it — and fails
// unless the walk pinpoints the damaged record.
func runVerifyTrail(w io.Writer, corrupt bool) error {
	sys, _, err := scenario(false)
	if err != nil {
		return err
	}
	verified := 0
	for _, n := range sys.Nodes() {
		seen := make(map[string]bool)
		for _, volName := range sortedVolumes(n) {
			v := n.Volumes[volName]
			tr := v.Trail
			if tr == nil || seen[tr.Name()] {
				continue
			}
			seen[tr.Name()] = true
			if corrupt {
				if tr.AppendedLSN() < tr.TrimmedLSN() {
					continue // empty trail: nothing to damage
				}
				// Flip one bit in the middle of the trail's LSN window.
				lsn := (tr.TrimmedLSN() + tr.AppendedLSN()) / 2
				if !tr.Corrupt(lsn) {
					return fmt.Errorf("%s: could not corrupt record %d", tr.Name(), lsn)
				}
				fmt.Fprintf(w, "trail %s on %s: flipped one bit in record %d\n", tr.Name(), n.Name, lsn)
				count, verr := tr.VerifyChain()
				if verr == nil {
					return fmt.Errorf("%s: corrupted record escaped the chain walk (%d records verified)", tr.Name(), count)
				}
				fmt.Fprintf(w, "trail %s on %s: damage detected: %v\n", tr.Name(), n.Name, verr)
				verified++
				continue
			}
			count, verr := tr.VerifyChain()
			if verr != nil {
				return fmt.Errorf("%s on %s: %w", tr.Name(), n.Name, verr)
			}
			fmt.Fprintf(w, "trail %s on %s: chain intact: %d records in %d segments (gen %d, LSNs %d..%d)\n",
				tr.Name(), n.Name, count, len(tr.Segments()), tr.Generation(), tr.TrimmedLSN(), tr.AppendedLSN())
			verified++
		}
	}
	if verified == 0 {
		return fmt.Errorf("no non-empty audited trails found")
	}
	return nil
}

// sortedVolumes returns the node's volume names in deterministic order.
func sortedVolumes(n *encompass.Node) []string {
	names := make([]string, 0, len(n.Volumes))
	for name := range n.Volumes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runTrace replays the scenario with tracing on and dumps lifecycle
// traces: by default the in-doubt transaction's, from both nodes'
// tracers; with an argument, the trace of that transid.
func runTrace(args []string) error {
	sys, id, err := scenario(false)
	if err != nil {
		return err
	}
	if len(args) > 0 {
		if id, err = txid.Parse(args[0]); err != nil {
			return err
		}
	}
	found := false
	for _, n := range sys.Nodes() {
		tr := n.TMF.Tracer()
		if len(tr.Trace(id)) == 0 {
			continue
		}
		found = true
		fmt.Printf("--- node %s ---\n%s", n.Name, tr.Dump(id))
	}
	if !found {
		return fmt.Errorf("no trace for %s on any node", id)
	}
	return nil
}

// runDisposition replays the scenario and prints each node's view of the
// transaction's disposition — the paper's "TMF utility to determine the
// disposition", step 1 of the manual override. For each node it reports
// the configured protocol, the outcome, and who decided it (the node's
// own Monitor Audit Trail, or — under a quorum protocol — the acceptor
// that served the decision), plus anything the node still lists as in
// doubt.
func runDisposition(args []string) error {
	sys, id, err := scenario(false)
	if err != nil {
		return err
	}
	if len(args) > 0 {
		if id, err = txid.Parse(args[0]); err != nil {
			return err
		}
	}
	known := 0
	for _, n := range sys.Nodes() {
		fmt.Printf("--- node %s (protocol %s) ---\n", n.Name, n.TMF.ProtocolName())
		o, decider, ok := n.TMF.Disposition(id)
		if ok {
			known++
			fmt.Printf("%s: %s (decided by %s)\n", id, o, decider)
		} else {
			fmt.Printf("%s: disposition unknown on this node\n", id)
		}
		if doubt := n.TMF.InDoubt(); len(doubt) > 0 {
			fmt.Printf("still in doubt here: %v\n", doubt)
		}
	}
	if known == 0 {
		return fmt.Errorf("no node knows the disposition of %s", id)
	}
	return nil
}

// runMetrics replays the scenario and prints each node's metrics registry
// — the TMF's counters, its gauges of outcomes still on their way and its
// per-phase latency histograms —
// followed by the EXPAND network's frame-level counters (retransmits,
// duplicates dropped, frames lost to injected faults or failed lines).
func runMetrics(w io.Writer) error {
	sys, _, err := scenario(false)
	if err != nil {
		return err
	}
	for _, n := range sys.Nodes() {
		fmt.Fprintf(w, "--- node %s ---\n%s\n", n.Name, n.TMF.Registry())
	}
	st := sys.Network.Stats()
	fmt.Fprintf(w, "--- network ---\n")
	fmt.Fprintf(w, "%-28s %d\n", "net.frames", st.Frames)
	fmt.Fprintf(w, "%-28s %d\n", "net.bytes", st.Bytes)
	fmt.Fprintf(w, "%-28s %d\n", "net.no_path", st.NoPath)
	fmt.Fprint(w, sys.NetObs)
	return nil
}

// scenario drives the in-doubt manual-override walk-through (with
// lifecycle tracing on) and returns the system and the distributed
// transaction's id. verbose narrates each operator step.
func scenario(verbose bool) (*encompass.System, txid.ID, error) {
	out := func(format string, a ...any) {
		if verbose {
			fmt.Printf(format, a...)
		}
	}
	out("tmfctl: in-doubt transaction manual override walk-through\n\n")

	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "home", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vh", Audited: true}}},
			{Name: "branch", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
		TraceCapacity: 4096,
	})
	if err != nil {
		return nil, txid.ID{}, err
	}
	if err := sys.CreateFileEverywhere(encompass.LocalFile("ledger", encompass.KeySequenced, "branch", "vb")); err != nil {
		return nil, txid.ID{}, err
	}
	home, branch := sys.Node("home"), sys.Node("branch")

	// Drive a distributed transaction into the in-doubt window: partition
	// the network between phase one and the commit record.
	home.TMF.SetPhase1Hook(func(txid.ID) {
		out("  [fault injection] network partitions after phase one acknowledged\n")
		sys.Partition("branch")
	})
	tx, err := home.Begin()
	if err != nil {
		return nil, txid.ID{}, err
	}
	if err := tx.Insert("ledger", "entry-1", []byte("credit 100")); err != nil {
		return nil, txid.ID{}, err
	}
	out("transaction %s updates node 'branch' and commits at node 'home'\n", tx.ID)
	if err := tx.Commit(); err != nil {
		return nil, txid.ID{}, fmt.Errorf("commit: %w", err)
	}
	home.TMF.SetPhase1Hook(nil)
	out("  commit record written at home; phase two cannot reach 'branch'\n\n")

	// The branch node is in doubt: it holds the locks.
	if err := branch.TMF.Abort(tx.ID, "operator tries to abort"); err != nil {
		out("branch refuses unilateral abort: %v\n", err)
	}
	probe, _ := branch.Begin()
	if _, err := branch.FS.ReadLock(probe.ID, "ledger", "entry-1"); err != nil {
		out("branch still holds the in-doubt lock: %v\n", err)
	}
	probe.Abort("probe done")
	out("\n")

	// Step 1: TMF utility on the home node determines the disposition.
	outcome, known := home.TMF.Outcome(tx.ID)
	out("step 1 (home operator): disposition of %s = %s (known=%v)\n", tx.ID, outcome, known)
	// Step 2: the telephone call.
	out("step 2: operators confer by telephone...\n")
	// Step 3: TMF utility on the severed node forces the disposition.
	commit := known && outcome.String() == "committed"
	if err := branch.TMF.ForceDisposition(tx.ID, commit); err != nil {
		return nil, txid.ID{}, err
	}
	out("step 3 (branch operator): forced disposition commit=%v\n\n", commit)

	// Verify: locks released, data visible, outcomes consistent.
	check, _ := branch.Begin()
	v, err := branch.FS.ReadLock(check.ID, "ledger", "entry-1")
	if err != nil {
		return nil, txid.ID{}, fmt.Errorf("lock still held after override: %w", err)
	}
	check.Abort("verification done")
	out("verification: record readable and lockable again: %q\n", v)

	bo, _ := branch.TMF.Outcome(tx.ID)
	ho, _ := home.TMF.Outcome(tx.ID)
	out("verification: dispositions agree: home=%s branch=%s\n", ho, bo)

	sys.Heal()
	if !home.TMF.WaitSafeQueueEmpty(2 * time.Second) {
		return nil, txid.ID{}, fmt.Errorf("phase two still outstanding after heal")
	}
	out("network healed; every undelivered outcome delivered\n")
	if bo != ho {
		return nil, txid.ID{}, fmt.Errorf("dispositions diverged")
	}
	return sys, tx.ID, nil
}
