// Package nodeterminism guards the byte-identical determinism oracles.
// The DiscWorkers stress oracle (PR 4), the lossy-link chaos soak (PR 3),
// and the DST fault-schedule explorer (PR 7) assert that a seeded run
// replays byte-identically; Gray & Lamport's point that commit protocols
// fail on the unexercised path only has teeth if the seeded simulation
// actually replays the same way twice. Flagged in the seeded simulation
// packages (workload, expand, dst, paxoscommit):
//
//   - time.Now — called, or captured as a value (workload.Driver's
//     `now := d.Now; if now == nil { now = time.Now }` seam): wall-clock
//     values leaking into simulation decisions make replays diverge;
//     thread the simulated clock or measure latency only (and say so in a
//     //lint:allow nodeterminism reason);
//   - the global math/rand functions (rand.Intn, rand.Shuffle, ...):
//     shared unseeded state — every random draw must come from an
//     explicitly seeded *rand.Rand;
//   - rand.NewSource seeds that do not derive from a run seed: a literal
//     or ambient value silently decouples a component from the root seed;
//     derive child seeds with dst.SubSeed(root, label);
//   - wall-clock laundering: a same-package helper whose body (or whose
//     callees' bodies, transitively) reach time.Now taints every call to
//     it, so wrapping the clock in a helper two calls deep is still
//     caught. A //lint:allow on the underlying clock read declares it
//     benign (e.g. latency measurement) and stops the propagation;
//   - map iteration feeding an accumulator: in the emitting packages a
//     `for k := range m` whose body appends to a slice or map is flagged
//     unless the destination is sorted afterwards in the same function —
//     iteration order would otherwise leak into routes, reports, or
//     frames.
package nodeterminism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"encompass/internal/analysis/lint"
)

// Analyzer is the nodeterminism analyzer.
var Analyzer = &lint.Analyzer{
	Name: "nodeterminism",
	Doc:  "flags wall-clock reads (direct or laundered through helpers), global rand draws, unseeded rand sources, and order-dependent map iteration in the seeded simulation packages",
	Run:  run,
}

// seededPkgs are the simulation packages whose behaviour must replay
// byte-identically from a seed. dst is the fault-schedule explorer (a
// schedule and its verdict must be pure functions of the root seed),
// workload's driver runs the seeded open-loop terminal schedules and the
// bank's seeded transaction mix, and paxoscommit's acceptor/retry paths
// run inside DST schedules.
var seededPkgs = map[string]bool{
	"workload": true, "expand": true, "dst": true, "paxoscommit": true,
}

// emitPkgs additionally build reports/routes/frames whose contents must
// not depend on map order.
var emitPkgs = map[string]bool{
	"workload": true, "expand": true, "experiments": true, "obs": true,
	"dst": true, "paxoscommit": true,
}

// globalRandConstructors are the math/rand functions that do NOT touch
// the global generator state.
var globalRandConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func run(pass *lint.Pass) error {
	seeded := seededPkgs[pass.Pkg.Name()]
	emitting := emitPkgs[pass.Pkg.Name()]
	if !seeded && !emitting {
		return nil
	}
	var taint map[string]string
	if seeded {
		taint = taintedFuncs(pass)
	}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		if seeded {
			checkClockAndRand(pass, fn)
			checkSeedProvenance(pass, fn)
			checkLaundering(pass, fn, taint)
		}
		if emitting {
			checkMapEmission(pass, fn)
		}
	})
	return nil
}

func checkClockAndRand(pass *lint.Pass, fn *lint.FuncInfo) {
	// Selector expressions that are the operator of a call — those are
	// the calls themselves, reported below, not value captures.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, isCall := n.(*ast.CallExpr); isCall {
			callFuns[call.Fun] = true
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			pkgPath, name, ok := lint.CalleePkgFunc(pass.TypesInfo, n)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "time" && name == "Now":
				pass.Reportf(n.Pos(), "time.Now in seeded simulation package %s: wall-clock input breaks byte-identical replay", pass.Pkg.Name())
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !globalRandConstructors[name]:
				pass.Reportf(n.Pos(), "global rand.%s draws from unseeded shared state; use an explicitly seeded *rand.Rand", name)
			}
		case *ast.SelectorExpr:
			if callFuns[ast.Expr(n)] {
				return true
			}
			if pkgPath, name, ok := pkgFuncRef(pass.TypesInfo, n); ok && pkgPath == "time" && name == "Now" {
				pass.Reportf(n.Pos(), "time.Now captured as a value in seeded simulation package %s: wall-clock input breaks byte-identical replay", pass.Pkg.Name())
			}
		}
		return true
	})
}

// pkgFuncRef resolves pkg.Name without requiring a call around it.
func pkgFuncRef(info *types.Info, sel *ast.SelectorExpr) (pkgPath, name string, ok bool) {
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pkgName, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pkgName.Imported().Path(), sel.Sel.Name, true
}

// checkSeedProvenance requires every rand.NewSource argument to derive
// from a run seed: the expression must mention a seed-named value or a
// SubSeed derivation.
func checkSeedProvenance(pass *lint.Pass, fn *lint.FuncInfo) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		pkgPath, name, ok := lint.CalleePkgFunc(pass.TypesInfo, call)
		if !ok || name != "NewSource" || (pkgPath != "math/rand" && pkgPath != "math/rand/v2") || len(call.Args) == 0 {
			return true
		}
		if !seedDerived(call.Args[0]) {
			pass.Reportf(call.Pos(), "rand.NewSource argument does not derive from a run seed; derive child seeds with dst.SubSeed(root, label)")
		}
		return true
	})
}

// seedDerived reports whether the expression mentions a seed-named value
// or a SubSeed call anywhere in its subtree.
func seedDerived(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if strings.Contains(strings.ToLower(n.Name), "seed") {
				found = true
			}
		case *ast.SelectorExpr:
			if strings.Contains(strings.ToLower(n.Sel.Name), "seed") {
				found = true
			}
		}
		return !found
	})
	return found
}

// taintedFuncs computes, package-locally and transitively, the functions
// whose execution reaches an unallowed time.Now (called or captured).
// The value is a short provenance note for the diagnostic. //lint:allow
// nodeterminism directives on the underlying clock read stop propagation:
// the code has declared that read is not a simulation input.
func taintedFuncs(pass *lint.Pass) map[string]string {
	allowed := lint.AllowedLines(pass.Fset, pass.Files, "nodeterminism")
	direct := map[string]string{}
	calls := map[string][]string{}
	lint.ForEachFunc(pass, func(fn *lint.FuncInfo) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			sel, isSel := n.(*ast.SelectorExpr)
			if isSel {
				if pkgPath, name, ok := pkgFuncRef(pass.TypesInfo, sel); ok && pkgPath == "time" && name == "Now" {
					posn := pass.Fset.Position(sel.Pos())
					if !allowed[posn.Filename+":"+strconv.Itoa(posn.Line)] {
						direct[fn.Name] = "reaches time.Now at line " + strconv.Itoa(posn.Line)
					}
				}
				return true
			}
			if call, isCall := n.(*ast.CallExpr); isCall {
				if callee := localCallee(pass, call); callee != "" {
					calls[fn.Name] = append(calls[fn.Name], callee)
				}
			}
			return true
		})
	})
	// Fixed point: a caller of a tainted function is tainted.
	tainted := direct
	for changed := true; changed; {
		changed = false
		for caller, callees := range calls {
			if _, already := tainted[caller]; already {
				continue
			}
			for _, callee := range callees {
				if _, bad := tainted[callee]; bad {
					tainted[caller] = "via " + callee + ", which " + tainted[callee]
					changed = true
					break
				}
			}
		}
	}
	return tainted
}

// checkLaundering reports calls to same-package helpers that reach the
// wall clock: the helper two calls deep is as nondeterministic as the
// direct read.
func checkLaundering(pass *lint.Pass, fn *lint.FuncInfo, taint map[string]string) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		callee := localCallee(pass, call)
		if callee == "" {
			return true
		}
		if why, bad := taint[callee]; bad {
			pass.Reportf(call.Pos(), "call to %s launders the wall clock into the seeded sim path (%s)", callee, why)
		}
		return true
	})
}

// localCallee resolves a call to a same-package function or method name
// ("runRound" or "Bank.OneTx"), "" otherwise.
func localCallee(pass *lint.Pass, call *ast.CallExpr) string {
	if id, isIdent := call.Fun.(*ast.Ident); isIdent {
		if obj, isFunc := pass.TypesInfo.Uses[id].(*types.Func); isFunc && obj.Pkg() == pass.Pkg {
			return id.Name
		}
		return ""
	}
	if _, typeName, method, ok := lint.CalleeMethod(pass.TypesInfo, call); ok && typeName != "" {
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if obj, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); isFunc && obj.Pkg() == pass.Pkg {
				return typeName + "." + method
			}
		}
	}
	return ""
}

// checkMapEmission flags `for k := range m` over a map whose body appends
// into an accumulator that is not subsequently sorted in the same
// function.
func checkMapEmission(pass *lint.Pass, fn *lint.FuncInfo) {
	// Gather sort calls in the function: sort.<Fn>(arg...) keyed by the
	// printed form of the first argument.
	sorted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if pkgPath, _, ok := lint.CalleePkgFunc(pass.TypesInfo, call); ok && (pkgPath == "sort" || pkgPath == "slices") && len(call.Args) > 0 {
			sorted[types.ExprString(call.Args[0])] = true
		}
		return true
	})

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, isRange := n.(*ast.RangeStmt)
		if !isRange || !lint.IsMapType(pass.TypesInfo.Types[rng.X].Type) {
			return true
		}
		ast.Inspect(rng.Body, func(b ast.Node) bool {
			asg, isAsg := b.(*ast.AssignStmt)
			if !isAsg || len(asg.Rhs) != 1 {
				return true
			}
			call, isCall := asg.Rhs[0].(*ast.CallExpr)
			if !isCall {
				return true
			}
			if id, isIdent := call.Fun.(*ast.Ident); !isIdent || id.Name != "append" {
				return true
			}
			dest := types.ExprString(asg.Lhs[0])
			if sorted[dest] {
				return true
			}
			pass.Reportf(asg.Pos(), "append to %q inside range over map: iteration order leaks into the result; sort %q afterwards or iterate sorted keys", dest, dest)
			return true
		})
		return true
	})
}
