// Package droppederr flags silently discarded errors on the reliability
// path. The paper's recovery guarantees hinge on a handful of calls whose
// failure MUST be observed: forcing the audit trail (durability before
// commit), appending images (backout needs them), checkpoint delivery to
// the backup (the no-WAL discipline), wire-format marshalling, and
// interprocess sends that carry protocol steps. A call statement that
// drops such an error — a bare expression statement, or a `go` statement
// whose call's error vanishes with the goroutine — turns a detectable
// fault into silent divergence. Where the drop is deliberate (degraded
// single-module operation tolerates ErrNoBackup), the site carries a
// //lint:allow droppederr directive stating that argument; an explicit
// `_ =` assignment is also accepted as visible intent.
package droppederr

import (
	"go/ast"

	"encompass/internal/analysis/lint"
)

// Analyzer is the droppederr analyzer.
var Analyzer = &lint.Analyzer{
	Name: "droppederr",
	Doc:  "flags ignored errors from audit forces/appends, checkpoint delivery, marshalling, and IPC sends",
	Run:  run,
}

// methods maps receiver type name -> error-returning methods on the
// reliability path.
var methods = map[string]map[string]bool{
	"Client":  {"Append": true, "Force": true, "Scan": true}, // audit client
	"Ctx":     {"Checkpoint": true},                          // pair checkpoint delivery
	"Process": {"Send": true, "Forward": true},               // protocol-step sends and relays
}

// pkgFuncs maps package path -> error-returning functions.
var pkgFuncs = map[string]map[string]bool{
	"encompass/internal/msg": {"Marshal": true, "Unmarshal": true},
	"msg":                    {"Marshal": true, "Unmarshal": true}, // analyzer testdata
}

func flaggable(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	if _, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call); ok {
		if methods[typeName][method] {
			return typeName + "." + method, true
		}
		return "", false
	}
	if pkgPath, name, ok := lint.CalleePkgFunc(pass.TypesInfo, call); ok {
		if pkgFuncs[pkgPath][name] {
			return name, true
		}
	}
	return "", false
}

func run(pass *lint.Pass) error {
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, isCall := n.X.(*ast.CallExpr)
				if !isCall {
					return true
				}
				if name, bad := flaggable(pass, call); bad {
					pass.Reportf(call.Pos(), "error from %s dropped: a failure here is silent divergence on the recovery path (handle it, or write `_ =` / //lint:allow with the reason)", name)
				}
			case *ast.GoStmt:
				if name, bad := flaggable(pass, n.Call); bad {
					pass.Reportf(n.Call.Pos(), "error from %s vanishes with the goroutine: the failure must be delivered back (reply, counter, or retry)", name)
				}
			}
			return true
		})
	})
	return nil
}
