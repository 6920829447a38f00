// Package lockorder enforces the lock-acquisition discipline that keeps
// the striped lock manager and its callers deadlock-free (DESIGN.md §10:
// per-file shards with a sorted-order snapshot protocol). Two rules:
//
//  1. Nested acquisition: taking a second mutex while one is held is only
//     legal along an allowlisted edge of the canonical ordering
//     (shardMu → shard.mu → heldMu inside internal/lock). Any other
//     nesting — including an unknown pair — is flagged; a new legitimate
//     ordering must be added to the table here, with justification, or
//     excepted via //lint:allow lockorder <reason>.
//  2. Multi-shard acquisition in package lock (same-rank shard.mu while a
//     shard.mu is held) must go through the canonical sorted-file-order
//     helpers (Manager.Snapshot); anywhere else it is a deadlock with a
//     concurrent snapshot or a second multi-shard path.
//
// The tracking is lexical and intra-procedural (see lint.WalkHeld); the
// codebase keeps lock sections straight-line, so this is a faithful
// approximation.
package lockorder

import (
	"go/ast"

	"encompass/internal/analysis/lint"
)

// rank orders the known mutexes of the canonical hierarchy. A nested
// acquisition h → n is allowed iff both are ranked and rank(h) < rank(n).
// Equal or descending ranks, and any pair involving an unranked mutex,
// are reported.
var rank = map[string]int{
	// internal/lock: the striped lock manager's documented order. The
	// shard map's guard is taken first, then one shard, then the reverse
	// index. Snapshot (the blessed multi-shard helper) additionally takes
	// shard.mu repeatedly in sorted file order.
	"Manager.shardMu": 10,
	"shard.mu":        20,
	"Manager.heldMu":  30,

	// internal/tmf: the Monitor's transaction-set guard (mu) is taken
	// before the per-CPU state-table guard (tabMu) when a revived CPU's
	// table is rebuilt from the transactions' states. The table paths
	// (broadcast, State, Forget) take tabMu alone or strictly after
	// releasing mu — the reverse edge does not exist, so the ordering is
	// acyclic.
	"Monitor.mu":    110,
	"Monitor.tabMu": 120,
	// The in-doubt watcher set guard is leaf-like: armed/cleared from
	// monitor paths after mu is released and never held across a call
	// that locks mu or tabMu.
	"Monitor.watchMu": 130,

	// The Paxos Commit client cache's guard (internal/tmf): protects only
	// the map and is never held across a Monitor lock.
	"paxosCommit.mu": 145,

	// internal/paxoscommit: the set guard orders before the per-slot
	// acceptor guard (respawn scans the set, then locks one acceptor).
	// The acceptor's DecisionLog does its own locking internally after
	// acceptor.mu — log appends happen under the acceptor guard, which
	// is safe because the log never calls back out.
	"AcceptorSet.mu": 150,
	"acceptor.mu":    160,
	"DecisionLog.mu": 170,
}

// blessed are the canonical sorted-order helpers, exempt from rule 2
// (they ARE the ordering protocol).
var blessed = map[string]bool{
	"Manager.Snapshot": true,
}

// Analyzer is the lockorder analyzer.
var Analyzer = &lint.Analyzer{
	Name: "lockorder",
	Doc:  "flags mutex acquisitions outside the canonical lock ordering (deadlock risk)",
	Run:  run,
}

func run(pass *lint.Pass) error {
	inLockPkg := pass.Pkg.Name() == "lock"
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		if blessed[fn.Name] {
			return
		}
		lint.WalkHeld(pass.TypesInfo, fn.Body, func(call *ast.CallExpr, held []lint.HeldLock) {
			kind, key, rnk := lint.MutexOp(pass.TypesInfo, call)
			if kind != lint.MutexLock || len(held) == 0 {
				return
			}
			for _, h := range held {
				if h.Key == key {
					pass.Reportf(call.Pos(), "mutex %s re-acquired while already held (self-deadlock)", key)
					continue
				}
				hr, hOK := rank[h.Rank]
				nr, nOK := rank[rnk]
				switch {
				case hOK && nOK && hr < nr:
					// allowlisted edge of the canonical ordering
				case hOK && nOK && hr == nr && inLockPkg:
					pass.Reportf(call.Pos(), "multi-shard acquisition (%s while holding %s) outside the sorted-order helpers; use Manager.Snapshot's sorted protocol", key, h.Key)
				default:
					pass.Reportf(call.Pos(), "mutex %s (%s) acquired while holding %s (%s): not an allowlisted lock ordering", key, rnk, h.Key, h.Rank)
				}
			}
		})
	})
	return nil
}
