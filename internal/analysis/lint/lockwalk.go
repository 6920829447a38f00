package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HeldLock describes one mutex the lexical walk believes is held.
type HeldLock struct {
	// Key identifies the mutex expression, e.g. "m.heldMu" or "s.mu".
	Key string
	// Rank identifies the mutex for the ordering allowlist as
	// "OwnerType.field" (or "var:name" for non-field mutexes).
	Rank string
	// Pos is where the lock was acquired.
	Pos token.Pos
}

// MutexOpKind classifies a call's effect on the held set.
type MutexOpKind int

const (
	MutexNone   MutexOpKind = iota
	MutexLock               // Lock, RLock, TryLock (treated as acquired)
	MutexUnlock             // Unlock, RUnlock
)

// MutexOp classifies call as a sync.Mutex/sync.RWMutex operation. Matching
// is by receiver type name so analyzer testdata can use the real sync
// package without path games. Lock/Unlock promoted from an embedded
// sync.Mutex are recognized too: the key/rank then name the embedding
// struct, which is the expression the code actually locks through.
func MutexOp(info *types.Info, call *ast.CallExpr) (kind MutexOpKind, key, rank string) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return MutexNone, "", ""
	}
	selection, isMethod := info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return MutexNone, "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = MutexLock
	case "Unlock", "RUnlock":
		kind = MutexUnlock
	default:
		return MutexNone, "", ""
	}
	typeName := NamedTypeName(selection.Recv())
	if typeName != "Mutex" && typeName != "RWMutex" {
		// Promoted method: the receiver is the embedding struct, but the
		// method itself is declared on sync.Mutex/RWMutex.
		fn, isFunc := selection.Obj().(*types.Func)
		if !isFunc {
			return MutexNone, "", ""
		}
		sig, isSig := fn.Type().(*types.Signature)
		if !isSig || sig.Recv() == nil {
			return MutexNone, "", ""
		}
		if declared := NamedTypeName(sig.Recv().Type()); declared != "Mutex" && declared != "RWMutex" {
			return MutexNone, "", ""
		}
	}
	return kind, types.ExprString(sel.X), rankOf(info, sel.X)
}

// rankOf names the mutex for the ordering allowlist: "OwnerType.field"
// when the mutex is a struct field, "var:name" otherwise.
func rankOf(info *types.Info, recv ast.Expr) string {
	if sel, isSel := recv.(*ast.SelectorExpr); isSel {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
			if owner := NamedTypeName(selection.Recv()); owner != "" {
				return owner + "." + sel.Sel.Name
			}
		}
		return "var:" + sel.Sel.Name
	}
	if id, isIdent := recv.(*ast.Ident); isIdent {
		return "var:" + id.Name
	}
	return "var:" + types.ExprString(recv)
}

// WalkHeld walks one function body in lexical order, tracking the set of
// held mutexes, and invokes fn for every CallExpr with the locks held at
// that point — for a Lock call, the set does NOT yet include the lock
// being acquired. Function literals are separate execution contexts (they
// run later, usually on another goroutine) and are walked with an empty
// held set. `defer mu.Unlock()` leaves the mutex held for the rest of the
// body. The tracking is lexical with one path refinement: a block that
// cannot fall through (an if body or switch/select case ending in a
// terminating statement — the pervasive `if bad { mu.Unlock(); return }`
// shape) has its lock effects confined to the block, since the code after
// it only runs when the block did not. Everything else is the straight-
// line approximation, with the //lint:allow escape hatch for the rest.
func WalkHeld(info *types.Info, body *ast.BlockStmt, fn func(call *ast.CallExpr, held []HeldLock)) {
	if body == nil {
		return
	}
	var held []HeldLock
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// Fresh context; the literal's body sees no outer locks held.
			WalkHeld(info, n.Body, fn)
			return
		case *ast.DeferStmt:
			if kind, _, _ := MutexOp(info, n.Call); kind == MutexUnlock {
				return // deferred unlock: mutex stays held to end of body
			}
			// Other deferred calls still get reported with the current set.
			for _, arg := range n.Call.Args {
				walk(arg)
			}
			fn(n.Call, held)
			return
		case *ast.IfStmt:
			if n.Init != nil {
				walk(n.Init)
			}
			walk(n.Cond)
			walkConfined(&held, n.Body, terminates(n.Body.List), walk)
			if blk, isBlk := n.Else.(*ast.BlockStmt); isBlk {
				walkConfined(&held, blk, terminates(blk.List), walk)
			} else if n.Else != nil {
				walk(n.Else) // else-if: recurse as its own IfStmt
			}
			return
		case *ast.CaseClause:
			walkConfined(&held, n, terminates(n.Body), walk)
			return
		case *ast.CommClause:
			walkConfined(&held, n, terminates(n.Body), walk)
			return
		case *ast.CallExpr:
			// Inner calls evaluate before the outer one.
			if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel {
				walk(sel.X)
			} else {
				walk(n.Fun)
			}
			for _, arg := range n.Args {
				walk(arg)
			}
			fn(n, held)
			kind, key, rank := MutexOp(info, n)
			switch kind {
			case MutexLock:
				held = append(held, HeldLock{Key: key, Rank: rank, Pos: n.Pos()})
			case MutexUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].Key == key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return
		}
		// Generic traversal in source order.
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			if child == nil {
				return false
			}
			walk(child)
			return false
		})
	}
	walk(body)
}

// walkConfined walks a block's children; when confined (the block cannot
// fall through) the held set is restored afterwards, so lock effects on a
// terminating path do not leak into the code that runs only when the path
// was not taken.
func walkConfined(held *[]HeldLock, n ast.Node, confined bool, walk func(ast.Node)) {
	var snapshot []HeldLock
	if confined {
		snapshot = append([]HeldLock(nil), *held...)
	}
	ast.Inspect(n, func(child ast.Node) bool {
		if child == n {
			return true
		}
		if child == nil {
			return false
		}
		walk(child)
		return false
	})
	if confined {
		*held = snapshot
	}
}

// terminates reports whether a statement list cannot fall through: its
// last statement is a return, a goto, or a call to panic. This is the
// subset of Go's terminating-statement rule the codebase's early-exit
// lock sections actually use.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, isCall := last.X.(*ast.CallExpr); isCall {
			if id, isIdent := call.Fun.(*ast.Ident); isIdent && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// WalkHeldNodes is WalkHeld generalized from calls to arbitrary nodes:
// fn fires for every node in lexical pre-order with the locks held at that
// point, which is what field-access analyses (guardedby) need. The held
// set follows the same rules as WalkHeld — function literals run later and
// see an empty set, `defer mu.Unlock()` keeps the mutex held to the end of
// the body, and a Lock call's own node does not yet include the lock being
// acquired.
func WalkHeldNodes(info *types.Info, body *ast.BlockStmt, fn func(n ast.Node, held []HeldLock)) {
	if body == nil {
		return
	}
	var held []HeldLock
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			fn(n, held)
			// Fresh context; the literal's body sees no outer locks held.
			WalkHeldNodes(info, n.Body, fn)
			return
		case *ast.DeferStmt:
			fn(n, held)
			if kind, _, _ := MutexOp(info, n.Call); kind == MutexUnlock {
				return // deferred unlock: mutex stays held to end of body
			}
			walk(n.Call)
			return
		case *ast.IfStmt:
			fn(n, held)
			if n.Init != nil {
				walk(n.Init)
			}
			walk(n.Cond)
			walkConfined(&held, n.Body, terminates(n.Body.List), walk)
			if blk, isBlk := n.Else.(*ast.BlockStmt); isBlk {
				walkConfined(&held, blk, terminates(blk.List), walk)
			} else if n.Else != nil {
				walk(n.Else) // else-if: recurse as its own IfStmt
			}
			return
		case *ast.CaseClause:
			fn(n, held)
			walkConfined(&held, n, terminates(n.Body), walk)
			return
		case *ast.CommClause:
			fn(n, held)
			walkConfined(&held, n, terminates(n.Body), walk)
			return
		case *ast.CallExpr:
			fn(n, held)
			if sel, isSel := n.Fun.(*ast.SelectorExpr); isSel {
				walk(sel.X)
			} else {
				walk(n.Fun)
			}
			for _, arg := range n.Args {
				walk(arg)
			}
			kind, key, rank := MutexOp(info, n)
			switch kind {
			case MutexLock:
				held = append(held, HeldLock{Key: key, Rank: rank, Pos: n.Pos()})
			case MutexUnlock:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].Key == key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
			return
		}
		fn(n, held)
		ast.Inspect(n, func(child ast.Node) bool {
			if child == n {
				return true
			}
			if child == nil {
				return false
			}
			walk(child)
			return false
		})
	}
	walk(body)
}
