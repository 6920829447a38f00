// Package forcefirst enforces the one write-ahead rule the paper states in
// three places (§ "Transaction Monitoring", Borr TR 81.2; Gray & Lamport,
// Consensus on Transaction Commit): nothing may be made visible that a
// crash could take back. A DISCPROCESS primary checkpoints its intent to
// its backup before it updates, which is the functional equivalent of a
// write-ahead log; the commit record in the Monitor Audit Trail is THE
// commit point, so it is written before the outcome is announced; and a
// Paxos Commit acceptor logs before it replies.
//
// Each checked package has one vocabulary in the table below:
//
//   - discproc: the externalizers are the direct mutations of the volume
//     (Volume.Write/Delete/Wipe/Restore) and of the in-memory file
//     structures (File.ForceWrite/ForceDelete). The forcers are
//     Ctx.Checkpoint and the blessed commitMutation wrapper, which
//     checkpoints first. The replay paths that re-apply state checkpointed
//     when it was first produced (applyOp, applyVolume, reloadFromVolume,
//     Restore) are exempt.
//
//   - tmf: only the commit's externalizations need a dominating force,
//     because recordOutcome forces only a commit record: a home whose
//     Monitor Audit Trail holds no commit record recovers the transaction
//     as aborted, so no crash can take an abort back. The order is decided
//     where the protocol's core builds its effects (core.go): the
//     externalizers are the broadcast of txid.StateEnded, the deliver of
//     ENDED (the commit's delivery down the transmission tree), and any
//     MonitorTrail.Append outside the blessed recordOutcome wrapper, whose
//     append IS the force. The forcers are the core's record, recordOutcome
//     itself, DecisionLog.Append and the acceptor client's RecordOutcome.
//
//   - paxoscommit: the externalizer is Process.Reply (acks to the
//     coordinator or learners; ReplyErr carries no outcome and is always
//     allowed). The forcers are DecisionLog.Append and the blessed accept
//     wrapper, which appends before mutating acceptor state.
//
// Ordering is lexical, with a switch case as its own region. In a request
// handler (acceptor.handle, tmpApp.Handle) a force inside `case kindVote:`
// must not license the reply inside `case kindLearn:`, because each case
// is a separate request path. A forcer before the switch (the function
// prologue) dominates every case.
package forcefirst

import (
	"go/ast"
	"go/token"

	"encompass/internal/analysis/lint"
)

// Analyzer is the forcefirst analyzer.
var Analyzer = &lint.Analyzer{
	Name: "forcefirst",
	Doc:  "flags a volume mutation not preceded by a checkpoint, and a commit externalization (ENDED broadcast, ENDED delivery to children, acceptor reply) not dominated by a decision-log append or trail force",
	Run:  run,
}

// A vocabulary is one package's write-ahead rule. Callee names are either
// "Type.Method", a method resolved through the type checker, or a bare
// name, which matches a plain function or a method of any receiver.
type vocabulary struct {
	externalizers map[string]string // callee -> what it makes visible, for the diagnostic
	terminalOnly  map[string]bool   // externalizers that count only with an outcome argument
	forcers       map[string]bool   // callees that make the state durable first
	exempt        map[string]bool   // functions that are the forcing path or replay durable state
	message       string            // diagnostic; %s is the externalizer's description
}

const outcomeMessage = "%s externalizes the outcome without a dominating decision-log append or trail force (write-ahead-ordering discipline)"

// vocabularies maps package name -> its write-ahead rule.
var vocabularies = map[string]vocabulary{
	"discproc": {
		externalizers: map[string]string{
			"Volume.Write":     "Volume.Write",
			"Volume.Delete":    "Volume.Delete",
			"Volume.Wipe":      "Volume.Wipe",
			"Volume.Restore":   "Volume.Restore",
			"File.ForceWrite":  "File.ForceWrite",
			"File.ForceDelete": "File.ForceDelete",
		},
		forcers: set("Ctx.Checkpoint", "commitMutation"),
		exempt:  set("applyOp", "applyVolume", "reloadFromVolume", "Restore"),
		message: "%s mutates the volume without a preceding checkpoint to the backup (checkpoint-before-update discipline)",
	},
	"tmf": {
		externalizers: map[string]string{
			"broadcast":           "broadcast of a terminal state",
			"deliver":             "commit delivery to children",
			"MonitorTrail.Append": "MonitorTrail.Append outside recordOutcome",
		},
		terminalOnly: set("broadcast", "deliver"),
		forcers:      set("DecisionLog.Append", "Client.RecordOutcome", "recordOutcome", "record"),
		exempt:       set("recordOutcome"),
		message:      outcomeMessage,
	},
	"paxoscommit": {
		externalizers: map[string]string{"Process.Reply": "acceptor Process.Reply"},
		forcers:       set("DecisionLog.Append", "accept"),
		message:       outcomeMessage,
	},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// outcomeArgs name an outcome a crash could take back, the commit: the
// ENDED state, whose broadcast externalizes it, and the ENDED message kind,
// whose delivery to the children does.
var outcomeArgs = map[string]bool{"StateEnded": true, "kindEnded": true}

func run(pass *lint.Pass) error {
	v, checked := vocabularies[pass.Pkg.Name()]
	if !checked {
		return nil
	}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		if v.exempt[fn.Decl.Name.Name] {
			return
		}
		cases := caseSpans(fn.Body)

		// First pass: forcer positions.
		var forces []token.Pos
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, isCall := n.(*ast.CallExpr); isCall {
				if qual, bare := callee(pass, call); v.forcers[qual] || v.forcers[bare] {
					forces = append(forces, call.Pos())
				}
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
			what := v.externalizes(pass, call)
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
			pass.Reportf(call.Pos(), v.message, what)
			return true
		})
	})
	return nil
}

// callee names call for the vocabulary tables: qual is "Type.Method" for a
// method call ("" otherwise), bare the function or method name alone.
func callee(pass *lint.Pass, call *ast.CallExpr) (qual, bare string) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return "", fun.Name
	case *ast.SelectorExpr:
		if _, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call); ok {
			return typeName + "." + method, method
		}
		return "", fun.Sel.Name
	}
	return "", ""
}

// externalizes classifies call as an externalization, returning its
// description for the diagnostic ("" if it is not one).
func (v vocabulary) externalizes(pass *lint.Pass, call *ast.CallExpr) string {
	qual, bare := callee(pass, call)
	name := qual
	if _, listed := v.externalizers[name]; !listed {
		name = bare
	}
	what := v.externalizers[name]
	if what != "" && v.terminalOnly[name] && !hasOutcomeArg(call) {
		return ""
	}
	return what
}

// hasOutcomeArg reports whether any argument names an outcome
// (outcomeArgs).
func hasOutcomeArg(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		switch a := arg.(type) {
		case *ast.SelectorExpr:
			if outcomeArgs[a.Sel.Name] {
				return true
			}
		case *ast.Ident:
			if outcomeArgs[a.Name] {
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
