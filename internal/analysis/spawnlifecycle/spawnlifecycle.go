// Package spawnlifecycle enforces the process-lifecycle discipline behind
// the paper's respawn/takeover machinery: every spawned process has an
// owner that notices its death. A bare `go` statement whose goroutine can
// end (or leak) without any registered exit path is invisible to takeover
// — exactly the respawned-dispatcher starvation family PR 9 debugged
// dynamically, where instances died with their CPU and nothing respawned
// or drained them.
//
// For every `go` statement in the monitored runtime packages the spawned
// body (a function literal, or a same-package function/method resolved
// one call deep) must contain at least one registered exit path:
//
//   - a channel operation tied to an owner: a send, a close, a receive
//     (stop/done channels, `<-ctx.Done()`), or ranging over a channel
//     (draining an owner's work queue);
//   - a deferred lifecycle call: wg.Done, p.Exit, sched.endBrowse — or a
//     deferred function literal that deregisters (contains a delete or a
//     lifecycle call), the in-doubt watcher's retire pattern;
//   - a request/response completion: Process.Reply or ReplyErr, which
//     resolve a waiter the owner is blocked on.
//
// Channel operations inside a nested `go` statement do not count for the
// outer goroutine (the nested one is checked on its own). Spawns of
// function values or cross-package functions cannot be resolved
// syntactically and are skipped. Genuinely fire-and-forget goroutines
// (bounded retransmit kicks, accept loops that end when the listener
// closes) must carry a //lint:allow spawnlifecycle with the reason the
// leak is bounded.
package spawnlifecycle

import (
	"go/ast"
	"go/types"

	"encompass/internal/analysis/lint"
)

// Analyzer is the spawnlifecycle analyzer.
var Analyzer = &lint.Analyzer{
	Name: "spawnlifecycle",
	Doc:  "flags go statements whose goroutine has no registered exit path (done channel, waitgroup/lifecycle defer, or reply)",
	Run:  run,
}

// monitoredPkgs are the runtime packages whose goroutines takeover and
// respawn must be able to observe. The experiment/benchmark harnesses
// (experiments, cmd/*) run to completion and are not monitored.
var monitoredPkgs = map[string]bool{
	"msg": true, "tmf": true, "paxoscommit": true, "audit": true,
	"discproc": true, "expand": true, "pair": true, "appserver": true,
	"mfg": true, "lock": true, "load": true, "dst": true, "workload": true,
}

// lifecycleCalls are the deferred methods that register an exit with an
// owner: waitgroup arithmetic, the msg.Process exit protocol, and the
// DISCPROCESS browse-counter retire.
var lifecycleCalls = map[string]bool{"Done": true, "Exit": true, "endBrowse": true}

func run(pass *lint.Pass) error {
	if !monitoredPkgs[pass.Pkg.Name()] {
		return nil
	}
	decls := map[string]*ast.FuncDecl{}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) { decls[fn.Name] = fn.Decl })

	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			gs, isGo := n.(*ast.GoStmt)
			if !isGo {
				return true
			}
			body, resolved := spawnedBody(pass, decls, gs.Call)
			if !resolved {
				return true
			}
			if !hasRegisteredExit(pass, body) {
				pass.Reportf(gs.Pos(), "goroutine has no registered exit path (done-channel op, deferred waitgroup/lifecycle call, or reply); its death is invisible to takeover/respawn")
			}
			return true
		})
	})
	return nil
}

// spawnedBody resolves the body the go statement runs: a function
// literal, or a same-package function/method declaration one level deep.
func spawnedBody(pass *lint.Pass, decls map[string]*ast.FuncDecl, call *ast.CallExpr) (*ast.BlockStmt, bool) {
	if lit, isLit := call.Fun.(*ast.FuncLit); isLit {
		return lit.Body, true
	}
	if id, isIdent := call.Fun.(*ast.Ident); isIdent {
		if fd := decls[id.Name]; fd != nil {
			return fd.Body, true
		}
		return nil, false
	}
	if _, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call); ok && typeName != "" {
		if fd := decls[typeName+"."+method]; fd != nil {
			return fd.Body, true
		}
	}
	return nil, false
}

// hasRegisteredExit scans body (excluding nested go statements, which are
// checked on their own) for any of the registered exit paths.
func hasRegisteredExit(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine's exits are its own
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.TypesInfo.Types[n.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.DeferStmt:
			if deferRegistersExit(pass, n) {
				found = true
			}
		case *ast.CallExpr:
			if isCloseOrReply(pass, n) {
				found = true
			}
		}
		return !found
	})
	return found
}

// deferRegistersExit reports whether the deferred call is a lifecycle
// call, or a function literal that deregisters.
func deferRegistersExit(pass *lint.Pass, d *ast.DeferStmt) bool {
	if sel, isSel := d.Call.Fun.(*ast.SelectorExpr); isSel && lifecycleCalls[sel.Sel.Name] {
		return true
	}
	lit, isLit := d.Call.Fun.(*ast.FuncLit)
	if !isLit {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return !found
		}
		switch f := call.Fun.(type) {
		case *ast.Ident:
			if f.Name == "delete" {
				found = true
			}
		case *ast.SelectorExpr:
			if lifecycleCalls[f.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isCloseOrReply reports whether call is close(ch) or a Reply/ReplyErr
// request completion.
func isCloseOrReply(pass *lint.Pass, call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name == "close"
	case *ast.SelectorExpr:
		return f.Sel.Name == "Reply" || f.Sel.Name == "ReplyErr"
	}
	return false
}
