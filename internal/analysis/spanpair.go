package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanPair enforces the tracing layer's pairing contract: every span
// opened with a Begin* call on a trace shard must be ended on every
// path through the enclosing function — ideally via defer, otherwise
// with no return statement between Begin and the final End. An open
// span that is never ended silently vanishes from the Perfetto
// timeline (Shard.Begin records nothing until End appends), so a leak
// here is a malformed trace that no test ever sees.
//
// A span value that escapes the function — returned, stored, or passed
// on — transfers the obligation to the receiver and is not reported.
var SpanPair = &Analyzer{
	Name: "spanpair",
	Doc:  "every trace span Begin* must have a matching End reachable on all paths",
	Run:  runSpanPair,
}

func runSpanPair(pass *Pass) {
	spec := &pairSpec{
		what:        "span",
		verb:        "ended",
		acquire:     spanBegin,
		release:     spanEnd,
		benign:      spanMethod,
		releaseHint: func(varName string) string { return "end it with defer " + varName + ".End()" },
	}
	forEachFunctionBody(pass, func(body *ast.BlockStmt) { checkPairs(pass, body, spec) })
}

// spanBegin matches a Begin* method or function of a trace-layer
// package (import path's last element "trace", matching both
// mmjoin/internal/trace and the golden-test stubs).
func spanBegin(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !strings.HasPrefix(sel.Sel.Name, "Begin") {
		return "", false
	}
	if !pkgPathIs(info.Uses[sel.Sel], "trace") {
		return "", false
	}
	return renderCall(sel), true
}

// spanEnd matches sp.End*() on the tracked span, deferred or direct.
func spanEnd(info *types.Info, id *ast.Ident, parents []ast.Node) (ast.Node, bool, bool) {
	call, ok := spanCall(id, parents)
	if !ok || !strings.HasPrefix(call.Fun.(*ast.SelectorExpr).Sel.Name, "End") {
		return nil, false, false
	}
	_, deferred := parentNode(parents, 2).(*ast.DeferStmt)
	return call, deferred, true
}

// spanMethod keeps tracking through the span's other methods (AddBytes,
// SetWait, ...): using the span is not ending it.
func spanMethod(info *types.Info, id *ast.Ident, parents []ast.Node) bool {
	_, ok := spanCall(id, parents)
	return ok
}

// spanCall matches a method call on the tracked span: sp.M(...).
func spanCall(id *ast.Ident, parents []ast.Node) (*ast.CallExpr, bool) {
	sel, ok := parentNode(parents, 0).(*ast.SelectorExpr)
	if !ok || sel.X != ast.Expr(id) {
		return nil, false
	}
	call, ok := parentNode(parents, 1).(*ast.CallExpr)
	return call, ok && call.Fun == ast.Expr(sel)
}
