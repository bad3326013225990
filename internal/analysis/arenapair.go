package analysis

import (
	"go/ast"
	"go/types"
)

// ArenaPair enforces the arena ownership contract statically: every
// buffer drawn from an exec.Arena (Tuples, Ints, Uint32s or Uint64s)
// must reach the matching Put (PutTuples, PutInts, PutUint32s or
// PutUint64s) on every path through the acquiring function, or be
// explicitly handed off — returned, stored, or passed along, which
// transfers the obligation with the value.
//
// This is the same bug class the differential oracle catches at run
// time via Arena.Outstanding (PR 5 found a real mid-cancellation leak
// that way); the analyzer catches the structural half at lint time:
// dropped or blank-bound buffers, buffers that are never put back, and
// returns between an un-deferred acquire and its final Put — the error
// and cancellation exits where leaks actually hide.
var ArenaPair = &Analyzer{
	Name: "arenapair",
	Doc:  "every exec.Arena buffer reaches its Put on all paths, or is explicitly handed off",
	Run:  runArenaPair,
}

func runArenaPair(pass *Pass) {
	spec := &pairSpec{
		what:        "arena buffer",
		verb:        "released",
		acquire:     arenaAcquire,
		resultIndex: 0,
		release:     arenaRelease,
		releaseHint: func(varName string) string {
			return "release it with defer arena.Put...(" + varName + ") (or hand it off)"
		},
	}
	forEachFunctionBody(pass, func(body *ast.BlockStmt) { checkPairs(pass, body, spec) })
}

// arenaAcquireNames / arenaReleaseNames are the paired method sets: the
// uint32/uint64 getters joined Tuples and Ints when the hash tables
// started drawing their slot arrays from the arena.
var arenaAcquireNames = map[string]bool{
	"Tuples": true, "Ints": true, "Uint32s": true, "Uint64s": true,
}

var arenaReleaseNames = map[string]bool{
	"PutTuples": true, "PutInts": true, "PutUint32s": true, "PutUint64s": true,
}

// arenaAcquire matches arena.Tuples(n), arena.Ints(n), arena.Uint32s(n)
// and arena.Uint64s(n).
func arenaAcquire(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !arenaAcquireNames[sel.Sel.Name] {
		return "", false
	}
	obj, recv, ok := methodOn(info, sel)
	if !ok || recv != "Arena" || !pkgPathIs(obj, "exec") {
		return "", false
	}
	return renderCall(sel), true
}

// arenaRelease matches the buffer passed to arena.PutTuples(buf),
// arena.PutInts(buf), arena.PutUint32s(buf) or arena.PutUint64s(buf) —
// the tracked value is an argument here, not the receiver.
func arenaRelease(info *types.Info, id *ast.Ident, parents []ast.Node) (ast.Node, bool, bool) {
	call, ok := parentNode(parents, 0).(*ast.CallExpr)
	if !ok {
		return nil, false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false, false
	}
	if !arenaReleaseNames[sel.Sel.Name] {
		return nil, false, false
	}
	argMatches := false
	for _, arg := range call.Args {
		if arg == ast.Expr(id) {
			argMatches = true
		}
	}
	if !argMatches {
		return nil, false, false
	}
	obj, recv, ok := methodOn(info, sel)
	if !ok || recv != "Arena" || !pkgPathIs(obj, "exec") {
		return nil, false, false
	}
	_, deferred := parentNode(parents, 1).(*ast.DeferStmt)
	return call, deferred, true
}

// forEachFunctionBody applies fn to every function and method body in
// the package (function literals are analyzed by their enclosing
// walk's scope rules, not separately).
func forEachFunctionBody(pass *Pass, fn func(body *ast.BlockStmt)) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					fn(n.Body)
				}
				return false
			case *ast.FuncLit:
				fn(n.Body)
				return false
			}
			return true
		})
	}
}

// renderCall renders "recv.Method" for messages.
func renderCall(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}
