package analysis

import (
	"go/ast"
	"go/types"
)

// SpillClose enforces the spill-file lifecycle statically: every
// writer created with spill.Manager.Create must be closed on every
// path through the creating function (Close writes the count+checksum
// trailer and untracks the file — an unclosed writer is both a leaked
// descriptor and a spill file that will fail verification on read).
// Handing the writer off — returning it, storing it, passing it on —
// transfers the obligation, same as arenapair.
//
// PR 7 audits these paths dynamically (fault injection asserts zero
// leaked files on every error exit); this analyzer pins the structural
// part at lint time, in particular returns between Create and the
// final Close — exactly where an error exit forgets the writer.
var SpillClose = &Analyzer{
	Name: "spillclose",
	Doc:  "every spill.Manager writer is closed on all paths, or explicitly handed off",
	Run:  runSpillClose,
}

func runSpillClose(pass *Pass) {
	spec := &pairSpec{
		what:        "spill writer",
		verb:        "released",
		acquire:     spillAcquire,
		resultIndex: 0,
		release:     spillRelease,
		benign:      spillBenignUse,
		releaseHint: func(varName string) string {
			return "release it with " + varName + ".Close() (deferred, or on every exit)"
		},
	}
	forEachFunctionBody(pass, func(body *ast.BlockStmt) { checkPairs(pass, body, spec) })
}

// spillAcquire matches m.Create(name) on a spill.Manager; the tracked
// value is the first result of the (writer, error) pair.
func spillAcquire(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Create" {
		return "", false
	}
	obj, recv, ok := methodOn(info, sel)
	if !ok || recv != "Manager" || !pkgPathIs(obj, "spill") {
		return "", false
	}
	return renderCall(sel), true
}

// spillRelease matches w.Close() on the tracked writer.
func spillRelease(info *types.Info, id *ast.Ident, parents []ast.Node) (ast.Node, bool, bool) {
	sel, ok := parentNode(parents, 0).(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) || sel.Sel.Name != "Close" {
		return nil, false, false
	}
	call, ok := parentNode(parents, 1).(*ast.CallExpr)
	if !ok || call.Fun != ast.Expr(sel) {
		return nil, false, false
	}
	obj, recv, ok := methodOn(info, sel)
	if !ok || recv != "Writer" || !pkgPathIs(obj, "spill") {
		return nil, false, false
	}
	_, deferred := parentNode(parents, 2).(*ast.DeferStmt)
	return call, deferred, true
}

// spillBenignUse keeps tracking through the writer's non-closing
// methods (Write, Bytes, ...): using the writer is not disposing of it.
func spillBenignUse(info *types.Info, id *ast.Ident, parents []ast.Node) bool {
	sel, ok := parentNode(parents, 0).(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return false
	}
	call, ok := parentNode(parents, 1).(*ast.CallExpr)
	if !ok || call.Fun != ast.Expr(sel) {
		return false
	}
	obj, recv, ok := methodOn(info, sel)
	return ok && recv == "Writer" && pkgPathIs(obj, "spill")
}
