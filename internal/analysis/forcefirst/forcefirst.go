// Package forcefirst generalizes checkpointfirst's write-ahead discipline
// to the disposition paths: the commit record in the Monitor Audit Trail
// is THE commit point (§ "Transaction Monitoring", Borr TR 81.2), and a
// Paxos Commit acceptor must never acknowledge state it could forget — so
// a decision-log append or trail force must lexically dominate any
// externalization of the outcome. Once another node, a child, or a client
// has seen "committed"/"aborted", a crash must not be able to roll it
// back.
//
// Checked packages and their vocabularies:
//
//   - tmf: externalizers are broadcast calls carrying a terminal state
//     (txid.StateEnded / txid.StateAborted — Ending/Aborting intents may
//     precede the force), safeDeliverChildren (disposition delivery down
//     the transmission tree), and any MonitorTrail.Append outside the
//     blessed recordOutcome wrapper. Forcers are DecisionLog.Append, any
//     .Force, the acceptor client's RecordOutcome, and recordOutcome itself.
//
//   - paxoscommit: externalizers are Process.Reply (acks to the
//     coordinator or learners; ReplyErr carries no outcome and is always
//     allowed). Forcers are DecisionLog.Append and the blessed accept
//     wrapper, which appends before mutating acceptor state.
//
// Ordering is lexical with one refinement over checkpointfirst: a switch
// case is its own region. In a request handler (acceptor.handle,
// tmpApp.Handle) a force inside `case kindVote:` must not license the
// reply inside `case kindLearn:` — each case is a separate request path.
// A forcer before the switch (function prologue) dominates every case.
package forcefirst

import (
	"go/ast"
	"go/token"

	"encompass/internal/analysis/lint"
)

// Analyzer is the forcefirst analyzer.
var Analyzer = &lint.Analyzer{
	Name: "forcefirst",
	Doc:  "flags outcome externalization (terminal-state broadcast, child delivery, acceptor reply) not dominated by a decision-log append or trail force",
	Run:  run,
}

// blessedForcers are wrapper functions whose first act is to make the
// decision durable: calling one counts as the force.
var blessedForcers = map[string]bool{
	"recordOutcome": true, // tmf: the single MAT-write path (append + force)
	"accept":        true, // paxoscommit: log-then-mutate acceptor wrapper
	"RecordOutcome": true, // tmf → paxoscommit.Client: the acceptors log the chosen outcome before they acknowledge it
}

// exempt functions either ARE the blessed forcing path or re-apply an
// outcome that an earlier force already made durable.
var exempt = map[string]bool{
	// recordOutcome's own MAT append is the force, not a leak of it.
	"recordOutcome": true,
	// applyEndedLocked runs only after the disposition protocol has
	// decided (and logged) Committed; it is the local apply of a decision
	// that is already durable elsewhere.
	"applyEndedLocked": true,
}

// terminalStates are the Figure 3 outcome states; broadcasting one
// externalizes the disposition.
var terminalStates = map[string]bool{"StateEnded": true, "StateAborted": true}

func run(pass *lint.Pass) error {
	pkg := pass.Pkg.Name()
	if pkg != "tmf" && pkg != "paxoscommit" {
		return nil
	}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		if exempt[fn.Decl.Name.Name] {
			return
		}
		cases := caseSpans(fn.Body)

		// First pass: forcer positions.
		var forces []token.Pos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, isCall := n.(*ast.CallExpr); isCall && isForcer(pass, call) {
				forces = append(forces, call.Pos())
			}
			return true
		})

		// Second pass: every externalizer needs a dominating forcer in the
		// same region (same case, or the prologue outside every case).
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			if !isCall {
				return true
			}
			what := externalizes(pass, pkg, call)
			if what == "" {
				return true
			}
			region := cases.enclosing(call.Pos())
			for _, f := range forces {
				if f < call.Pos() {
					if fc := cases.enclosing(f); fc == nil || fc == region {
						return true
					}
				}
			}
			pass.Reportf(call.Pos(), "%s externalizes the outcome without a dominating decision-log append or trail force (write-ahead-ordering discipline)", what)
			return true
		})
	})
	return nil
}

// isForcer reports whether call makes the decision durable.
func isForcer(pass *lint.Pass, call *ast.CallExpr) bool {
	if _, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call); ok {
		if typeName == "DecisionLog" && method == "Append" {
			return true
		}
		if method == "Force" {
			return true
		}
		if blessedForcers[method] {
			return true
		}
		return false
	}
	if id, isIdent := call.Fun.(*ast.Ident); isIdent {
		return blessedForcers[id.Name]
	}
	return false
}

// externalizes classifies call as an outcome externalization, returning a
// description for the diagnostic ("" if it is not one).
func externalizes(pass *lint.Pass, pkg string, call *ast.CallExpr) string {
	_, typeName, method, isMethod := lint.CalleeMethod(pass.TypesInfo, call)
	switch pkg {
	case "tmf":
		name := method
		if !isMethod {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent {
				name = id.Name
			}
		}
		switch {
		case name == "broadcast" && hasTerminalStateArg(call):
			return "broadcast of a terminal state"
		case name == "safeDeliverChildren":
			return "disposition delivery to children"
		case isMethod && typeName == "MonitorTrail" && method == "Append":
			return "MonitorTrail.Append outside recordOutcome"
		}
	case "paxoscommit":
		if isMethod && typeName == "Process" && method == "Reply" {
			return "acceptor Process.Reply"
		}
	}
	return ""
}

// hasTerminalStateArg reports whether any argument names a terminal
// Figure 3 state (txid.StateEnded / txid.StateAborted).
func hasTerminalStateArg(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		switch a := arg.(type) {
		case *ast.SelectorExpr:
			if terminalStates[a.Sel.Name] {
				return true
			}
		case *ast.Ident:
			if terminalStates[a.Name] {
				return true
			}
		}
	}
	return false
}

// caseList indexes the switch-case regions of one function body.
type caseList []*ast.CaseClause

// caseSpans collects every CaseClause in the body, innermost last.
func caseSpans(body *ast.BlockStmt) caseList {
	var out caseList
	ast.Inspect(body, func(n ast.Node) bool {
		if cc, isCase := n.(*ast.CaseClause); isCase {
			out = append(out, cc)
		}
		return true
	})
	return out
}

// enclosing returns the innermost case clause containing pos, or nil for
// the function prologue (code outside every case).
func (cs caseList) enclosing(pos token.Pos) *ast.CaseClause {
	var best *ast.CaseClause
	for _, cc := range cs {
		if cc.Pos() <= pos && pos < cc.End() {
			if best == nil || (best.Pos() <= cc.Pos() && cc.End() <= best.End()) {
				best = cc
			}
		}
	}
	return best
}
