// Package mailboxblock flags blocking interprocess calls made while a
// mutex is held. A DISCPROCESS "must never block its serving threads on a
// lock wait" (the lock manager is asynchronous for exactly this reason),
// and the same logic extends to every mutex in the system: a pair-mailbox
// send (Process.Send / Process.Forward / System.ClientCall /
// System.CallTimeout, and the nowait System.Start, whose send can wait on
// a full inbox), the wait for
// a nowait call's reply (Pending.Await), a checkpoint to the backup
// (Ctx.Checkpoint) or an AUDITPROCESS call (Client.Append/Force/Scan)
// parks the caller on another process's mailbox — holding a lock-manager
// shard, a scheduler mutex, or any other lock across that wait couples
// unrelated transactions' progress and is one failed process away from a
// node-wide stall. The walk is intraprocedural. TMF's commit protocol
// holds no mutex across its calls: a transaction's turn is a flag set
// under the Monitor's mutex, which covers one protocol step and nothing
// else.
package mailboxblock

import (
	"go/ast"

	"encompass/internal/analysis/lint"
)

// Analyzer is the mailboxblock analyzer.
var Analyzer = &lint.Analyzer{
	Name: "mailboxblock",
	Doc:  "flags blocking mailbox sends (IPC, checkpoint, audit calls) made while holding a mutex",
	Run:  run,
}

// blocking maps receiver type name -> methods that park on a mailbox.
var blocking = map[string]map[string]bool{
	"Process": {"Send": true, "Forward": true, "Call": true, "Recv": true},
	"System":  {"ClientCall": true, "CallTimeout": true, "Start": true},
	"Pending": {"Await": true},
	"Ctx":     {"Checkpoint": true},
	"Client":  {"Append": true, "Force": true, "Scan": true},
	"Pair":    {"checkpoint": true},
}

func run(pass *lint.Pass) error {
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		lint.WalkHeld(pass.TypesInfo, fn.Body, func(call *ast.CallExpr, held []lint.HeldLock) {
			if len(held) == 0 {
				return
			}
			_, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call)
			if !ok || !blocking[typeName][method] {
				return
			}
			h := held[len(held)-1]
			pass.Reportf(call.Pos(), "blocking %s.%s while holding mutex %s: a mailbox wait under a lock can stall every other holder", typeName, method, h.Key)
		})
	})
	return nil
}
