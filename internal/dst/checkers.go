package dst

import (
	"bytes"
	"fmt"
	"sort"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/obs"
	"encompass/internal/txid"
	"encompass/internal/workload"
)

// runCheckers audits a settled, healed cluster against every invariant
// the paper claims chaos cannot break. The checkers run in a fixed order
// so Verdict.Summary is canonical across replays.
func runCheckers(sys *encompass.System, bank *workload.Bank, spec *Spec) []CheckResult {
	checks := []struct {
		name string
		fn   func(*encompass.System, *workload.Bank, *Spec) error
	}{
		{"atomicity", checkAtomicity},
		{"figure3-oracle", checkTraceOracle},
		{"mat-agreement", checkMATAgreement},
		{"no-stuck-tx", checkNoStuckTx},
		{"no-lost-locks", checkNoLostLocks},
		{"mirror-convergence", checkMirrors},
		{"durability", checkDurability},
		{"liveness", checkLiveness},
	}
	out := make([]CheckResult, 0, len(checks))
	for _, c := range checks {
		r := CheckResult{Name: c.name}
		if err := c.fn(sys, bank, spec); err != nil {
			r.Err = err.Error()
		}
		out = append(out, r)
	}
	return out
}

// checkAtomicity verifies the TP1 invariant: every branch balance equals
// the sum of its tellers — the cross-record, cross-node atomicity claim.
func checkAtomicity(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	return bank.VerifyConsistency()
}

// checkTraceOracle feeds every captured transaction trace through the
// Figure 3 oracle and requires the runtime checker saw no illegal
// state-change broadcast. An evicting tracer fails the check too: an
// unvalidated trace is an unexplored execution, not a pass.
func checkTraceOracle(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	validated := 0
	for _, n := range sys.Nodes() {
		ids, err := tracedTxs(n)
		if err != nil {
			return err
		}
		tr := n.TMF.Tracer()
		if ev := tr.Evicted(); ev > 0 {
			return fmt.Errorf("tracer on %s evicted %d traces; raise TraceCapacity", n.Name, ev)
		}
		if vs := n.TMF.Checker().Violations(); len(vs) > 0 {
			return fmt.Errorf("runtime checker on %s: %d violations; first: %s", n.Name, len(vs), vs[0])
		}
		for _, id := range ids {
			if err := obs.CheckTrace(tr.Trace(id)); err != nil {
				return fmt.Errorf("%v\n%s", err, tr.Dump(id))
			}
			validated++
		}
	}
	if validated == 0 {
		return fmt.Errorf("no traces captured")
	}
	return nil
}

// checkMATAgreement requires every pair of nodes that recorded a
// disposition for the same transaction to agree on it — the distributed
// half of atomic commitment. It also requires the home node of every
// transaction some node resolved as committed to have a committed MAT
// record itself (a participant must never out-commit its coordinator).
func checkMATAgreement(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	type rec struct {
		node string
		o    audit.Outcome
	}
	byTx := make(map[txid.ID][]rec)
	var ids []txid.ID
	for _, n := range sys.Nodes() {
		for _, c := range n.TMF.MonitorTrail().Records() {
			if len(byTx[c.Tx]) == 0 {
				ids = append(ids, c.Tx)
			}
			byTx[c.Tx] = append(byTx[c.Tx], rec{n.Name, c.Outcome})
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
	for _, id := range ids {
		recs := byTx[id]
		for _, r := range recs[1:] {
			if r.o != recs[0].o {
				return fmt.Errorf("%s: %s recorded %s but %s recorded %s",
					id, recs[0].node, recs[0].o, r.node, r.o)
			}
		}
		if recs[0].o == audit.OutcomeCommitted {
			if home := sys.Node(id.Home); home != nil {
				if o, ok := home.TMF.Outcome(id); !ok || o != audit.OutcomeCommitted {
					return fmt.Errorf("%s: participant %s committed but home %s records %v (known=%v)",
						id, recs[0].node, id.Home, o, ok)
				}
			}
		}
	}
	return nil
}

// checkNoStuckTx requires every transaction any node ever traced to be in
// a terminal state (or unknown) on every node after the operator sweep —
// no transaction may leave the run in ACTIVE/ENDING/ABORTING limbo.
func checkNoStuckTx(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	for _, n := range sys.Nodes() {
		ids, err := tracedTxs(n)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if st := n.TMF.State(id); st != txid.StateNone && !st.Terminal() {
				return fmt.Errorf("%s stuck in %s on %s after sweep", id, st, n.Name)
			}
		}
	}
	return nil
}

// checkNoLostLocks requires every DISCPROCESS lock table to be empty once
// all transactions are resolved: a lock with no live owner is the paper's
// definition of a stuck system (claim 5's blocked locks need an operator;
// after the sweep ran, nothing may remain).
func checkNoLostLocks(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	for _, n := range sys.Nodes() {
		for _, vol := range volumesOf(n) {
			held := vol.Proc.LocksSnapshot()
			if len(held) == 0 {
				continue
			}
			ids := make([]txid.ID, 0, len(held))
			for id := range held {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i].String() < ids[j].String() })
			return fmt.Errorf("%s on %s holds %d orphaned lock owners after sweep; first %s holds %v",
				vol.Proc.Name(), n.Name, len(ids), ids[0], held[ids[0]])
		}
	}
	return nil
}

// checkMirrors requires both drives of every (healed) mirrored volume to
// hold identical data — drive revive plus post-heal writes must converge.
func checkMirrors(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	for _, n := range sys.Nodes() {
		for _, vol := range volumesOf(n) {
			if !vol.Disk.MirrorsConsistent() {
				return fmt.Errorf("mirrors of %s on %s diverged after heal", vol.Disk.Name(), n.Name)
			}
		}
	}
	return nil
}

// checkDurability replays every audited volume's trail from scratch,
// applying only the images of transactions whose home node's Monitor
// Audit Trail says committed, and requires the result to equal the
// volume's final contents byte for byte. This is the no-lost-commit /
// no-resurrected-abort oracle for the total-node-failure shape: a
// committed transaction dropped by ROLLFORWARD leaves a key missing its
// after-image; an aborted transaction resurrected by replay leaves one
// holding it. Valid because every transactional volume mutation emits an
// audit image while backout and ROLLFORWARD repair writes do not — they
// restore values some earlier image (or the seed state) already
// determined.
func checkDurability(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	for _, n := range sys.Nodes() {
		for _, vol := range volumesOf(n) {
			if vol.Trail == nil {
				continue
			}
			want := make(map[string]map[string][]byte)
			committed := make(map[txid.ID]bool)
			r, err := vol.Trail.Stream(0)
			if err != nil {
				return fmt.Errorf("durability: stream %s: %v", vol.Trail.Name(), err)
			}
			for {
				img, ok, err := r.Next()
				if err != nil {
					return fmt.Errorf("durability: stream %s: %v", vol.Trail.Name(), err)
				}
				if !ok {
					break
				}
				if img.Volume != vol.Disk.Name() {
					continue
				}
				c, seen := committed[img.Tx]
				if !seen {
					if home := sys.Node(img.Tx.Home); home != nil {
						o, known := home.TMF.Outcome(img.Tx)
						c = known && o == audit.OutcomeCommitted
					}
					committed[img.Tx] = c
				}
				if !c {
					continue
				}
				if img.Kind == audit.ImageDelete {
					delete(want[img.File], img.Key)
				} else {
					if want[img.File] == nil {
						want[img.File] = make(map[string][]byte)
					}
					want[img.File][img.Key] = img.After
				}
			}
			got := vol.Disk.Snapshot()
			// File metadata is persisted outside any transaction (it
			// belongs to the catalog, not the data), and files emptied by
			// deletes normalize away.
			delete(got, "__meta__")
			for f, recs := range want {
				if len(recs) == 0 {
					delete(want, f)
				}
			}
			for f, recs := range got {
				if len(recs) == 0 {
					delete(got, f)
				}
			}
			if err := diffSnapshots(vol.Disk.Name(), n.Name, want, got); err != nil {
				return err
			}
		}
	}
	return nil
}

// diffSnapshots reports the first difference between the replayed image
// of a volume and its actual contents, in deterministic order.
func diffSnapshots(vol, node string, want, got map[string]map[string][]byte) error {
	files := make([]string, 0, len(want)+len(got))
	seen := make(map[string]bool)
	for f := range want {
		files = append(files, f)
		seen[f] = true
	}
	for f := range got {
		if !seen[f] {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	for _, f := range files {
		w, g := want[f], got[f]
		keys := make([]string, 0, len(w)+len(g))
		ks := make(map[string]bool)
		for k := range w {
			keys = append(keys, k)
			ks[k] = true
		}
		for k := range g {
			if !ks[k] {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			wv, wok := w[k]
			gv, gok := g[k]
			switch {
			case wok && !gok:
				return fmt.Errorf("durability: %s on %s: %s/%s committed as %q but missing from the volume",
					vol, node, f, k, wv)
			case !wok && gok:
				return fmt.Errorf("durability: %s on %s: %s/%s holds %q with no committed image (resurrected write?)",
					vol, node, f, k, gv)
			case !bytes.Equal(wv, gv):
				return fmt.Errorf("durability: %s on %s: %s/%s is %q, committed images say %q",
					vol, node, f, k, gv, wv)
			}
		}
	}
	return nil
}

// checkLiveness proves the cluster still works after the chaos: a small
// fault-free round on every node must commit every transaction.
func checkLiveness(sys *encompass.System, bank *workload.Bank, spec *Spec) error {
	const perNode = 5
	for i := 0; i < spec.Nodes; i++ {
		res, err := workload.Driver{Terminals: 1, Count: perNode, Restarts: maxRestarts}.Run(bank.Body(NodeName(i)))
		if err != nil {
			return err
		}
		if res.Committed != perNode {
			return fmt.Errorf("post-chaos run on %s: %d/%d committed",
				NodeName(i), res.Committed, perNode)
		}
	}
	return bank.VerifyConsistency()
}
