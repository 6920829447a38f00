// Package statetrans forces every Figure-3 state change through the
// single blessed transition path. The paper replicates a transaction's
// state to every processor of a node by broadcasting each change over the
// interprocessor bus; in this codebase Monitor.broadcast is that path,
// and it is also where the transition is traced and checked against
// Figure 3 (obs.StateMachineChecker). A direct write to the replicated
// per-CPU tables would bypass the tracer and the runtime checker at once —
// the dynamic oracles of PRs 2–4 would simply not see the edge. This
// analyzer makes that bypass impossible to compile into package tmf:
//
//   - assignments into a transaction-state map (any map[txid.ID]txid.State,
//     however reached — including through a range alias) are flagged
//     outside Monitor.broadcast;
//   - delete from such a map is flagged outside Monitor.broadcast and
//     Monitor.Forget (the documented "transid leaves the system" path).
package statetrans

import (
	"go/ast"
	"go/types"

	"encompass/internal/analysis/lint"
)

// Analyzer is the statetrans analyzer.
var Analyzer = &lint.Analyzer{
	Name: "statetrans",
	Doc:  "flags writes to the replicated transaction state tables outside the blessed transition function",
	Run:  run,
}

// writeBlessed may assign states; deleteBlessed may remove ended transids.
var (
	writeBlessed  = map[string]bool{"broadcast": true}
	deleteBlessed = map[string]bool{"broadcast": true, "Forget": true}
)

func run(pass *lint.Pass) error {
	if pass.Pkg.Name() != "tmf" {
		return nil
	}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		name := fn.Decl.Name.Name
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if writeBlessed[name] {
					return true
				}
				for _, lhs := range n.Lhs {
					if idx, isIdx := lhs.(*ast.IndexExpr); isIdx && isStateMap(pass.TypesInfo.Types[idx.X].Type) {
						pass.Reportf(lhs.Pos(), "direct write to replicated state table outside Monitor.broadcast: every Figure-3 edge must go through the traced/checked transition path")
					}
				}
			case *ast.CallExpr:
				if deleteBlessed[name] {
					return true
				}
				if id, isIdent := n.Fun.(*ast.Ident); isIdent && id.Name == "delete" && len(n.Args) == 2 {
					if isStateMap(pass.TypesInfo.Types[n.Args[0]].Type) {
						pass.Reportf(n.Pos(), "direct delete from replicated state table outside Monitor.broadcast/Forget")
					}
				}
			}
			return true
		})
	})
	return nil
}

// isStateMap matches the replicated table type: map[txid.ID]txid.State
// (by type name, so analyzer testdata can declare look-alike types).
func isStateMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, isMap := t.Underlying().(*types.Map)
	if !isMap {
		return false
	}
	return lint.NamedTypeName(m.Key()) == "ID" && lint.NamedTypeName(m.Elem()) == "State"
}
