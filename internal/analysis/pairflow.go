package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pairflow is the shared acquire/release engine behind spanpair,
// arenapair and spillclose. It makes two passes per function body:
//
//  1. find acquire calls and how their result is bound — a dropped or
//     blank-bound result can never be released and is reported
//     immediately; binding into a field, index or multi-value context
//     other than the tracked index hands ownership off;
//  2. classify every use of the bound variable: a release call (by
//     deferral, or directly), a benign read (indexing, len/cap, range,
//     self-reslice), or anything else — which conservatively counts as
//     an ownership handoff and silences the check (returns, struct
//     stores and calls transfer the obligation to the receiver, the
//     exact contract exec.Arena and spill.Manager document).
//
// A tracked variable that is never released and never handed off is
// reported; a variable released directly (not deferred) additionally
// gets every return statement between acquire and final release
// reported, because those paths — typically error and cancellation
// exits — leak the resource. That is the static twin of the oracle's
// runtime Arena.Outstanding and spill-file leak checks.
type pairSpec struct {
	// what names the resource in messages, e.g. "arena buffer".
	what string
	// verb is the release's past participle in messages: "released",
	// or "ended" for spans.
	verb string
	// acquire classifies call as an acquisition; the string is the
	// rendered call for messages (e.g. "arena.Tuples").
	acquire func(info *types.Info, call *ast.CallExpr) (string, bool)
	// resultIndex is the position of the tracked value when the call's
	// results are destructured (spill.Manager.Create returns
	// (*Writer, error): index 0).
	resultIndex int
	// release classifies a use of the tracked identifier. It returns
	// the releasing node and whether the release sits under a defer.
	release func(info *types.Info, id *ast.Ident, parents []ast.Node) (node ast.Node, deferred, ok bool)
	// benign optionally recognizes extra ownership-preserving uses
	// beyond the engine's defaults (e.g. non-closing method calls on
	// the resource).
	benign func(info *types.Info, id *ast.Ident, parents []ast.Node) bool
	// releaseHint ends every message with the fix, given the variable
	// name, e.g. "release it with v.Close()".
	releaseHint func(varName string) string
}

// checkPairs runs the acquire/release analysis over one function body.
func checkPairs(pass *Pass, body *ast.BlockStmt, spec *pairSpec) {
	info := pass.Pkg.Info
	if info == nil {
		return
	}
	type acquisition struct {
		call *ast.CallExpr
		obj  types.Object
		// errObj is the error result bound alongside the resource (for
		// (value, error) acquires): returns inside an `if errObj != nil`
		// guard run with a nil resource and are not leaks.
		errObj types.Object
		name   string
	}
	var acquired []*acquisition
	walkFunctionScope(body, func(n ast.Node, parents []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		name, ok := spec.acquire(info, call)
		if !ok {
			return
		}
		switch parent := parentNode(parents, 0).(type) {
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of %s dropped: the %s can never be %s", name, spec.what, spec.verb)
		case *ast.AssignStmt:
			idx := -1
			if len(parent.Rhs) == 1 && parent.Rhs[0] == ast.Expr(call) {
				// buf := a.Tuples(n)  or  w, err := m.Create(name)
				idx = spec.resultIndex
			} else {
				for i, rhs := range parent.Rhs {
					if rhs == ast.Expr(call) {
						idx = i
					}
				}
			}
			if idx < 0 || idx >= len(parent.Lhs) {
				return
			}
			id, ok := parent.Lhs[idx].(*ast.Ident)
			if !ok {
				return // stored into a field or index: handed off
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "result of %s assigned to blank: the %s can never be %s", name, spec.what, spec.verb)
				return
			}
			a := &acquisition{call: call, name: name}
			if obj := info.Defs[id]; obj != nil {
				a.obj = obj
			} else if obj := info.Uses[id]; obj != nil {
				a.obj = obj
			}
			if len(parent.Rhs) == 1 {
				for i, lhs := range parent.Lhs {
					lid, ok := lhs.(*ast.Ident)
					if !ok || i == idx {
						continue
					}
					if obj := info.ObjectOf(lid); obj != nil && obj.Type() != nil && obj.Type().String() == "error" {
						a.errObj = obj
					}
				}
			}
			if a.obj != nil {
				acquired = append(acquired, a)
			}
		default:
			// Argument, return value, composite literal, ...: ownership
			// moves with the value.
		}
	})

	for _, a := range acquired {
		var deferred, escaped bool
		var releases []ast.Node
		walkFunctionScope(body, func(n ast.Node, parents []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok || info.Uses[id] != a.obj {
				return
			}
			if node, def, ok := spec.release(info, id, parents); ok {
				if def {
					deferred = true
				} else {
					releases = append(releases, node)
				}
				return
			}
			if benignUse(info, id, parents, a.obj) {
				return
			}
			if spec.benign != nil && spec.benign(info, id, parents) {
				return
			}
			escaped = true
		})
		if !escaped {
			// A use inside a nested function literal shares the variable
			// but not the control flow; the closure owns the obligation.
			escaped = usedInNestedFuncLit(body, info, a.obj)
		}
		var lastRelease ast.Node
		for _, r := range releases {
			if lastRelease == nil || r.Pos() > lastRelease.Pos() {
				lastRelease = r
			}
		}
		varName := objName(a.obj)
		switch {
		case deferred:
		case escaped:
		case lastRelease == nil:
			pass.Reportf(a.call.Pos(), "%s from %s is never %s; %s", spec.what, a.name, spec.verb, spec.releaseHint(varName))
		default:
			reportPairEarlyReturns(pass, body, info, a.call.End(), lastRelease, releases, a.errObj, spec, a.name, varName)
		}
	}
}

// reportPairEarlyReturns flags returns positioned between an
// un-deferred acquire and its final release — the error and
// cancellation exits that leak the resource. Three shapes are exempt:
// a return that itself performs a release (`return w.Close()`), a
// return inside the `if err != nil` guard of the acquire's own error
// result (the resource was never handed out there), and a return
// preceded in its own block by a straight-line release (`w.Close();
// return werr`) — that path has already paid its debt.
func reportPairEarlyReturns(pass *Pass, body *ast.BlockStmt, info *types.Info, after token.Pos, lastRelease ast.Node, releases []ast.Node, errObj types.Object, spec *pairSpec, acquireName, varName string) {
	before := lastRelease.Pos()
	var walk func(n ast.Node, exempt bool)
	walk = func(n ast.Node, exempt bool) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		if blk, ok := n.(*ast.BlockStmt); ok {
			ex := exempt
			for _, st := range blk.List {
				walk(st, ex)
				if !ex && straightLineRelease(st, releases) {
					ex = true
				}
			}
			return
		}
		if ifs, ok := n.(*ast.IfStmt); ok && isErrNilGuard(info, ifs.Cond, errObj) {
			walk(ifs.Init, exempt)
			walk(ifs.Body, true)
			walk(ifs.Else, exempt)
			return
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			if ret.Pos() <= after || ret.Pos() >= before || exempt {
				return
			}
			for _, r := range releases {
				if ret.Pos() <= r.Pos() && r.End() <= ret.End() {
					return // the return releases on its way out
				}
			}
			pass.Reportf(ret.Pos(), "return leaks the %s from %s (%s later at line %d); %s",
				spec.what, acquireName, spec.verb, pass.Pkg.Fset.Position(before).Line, spec.releaseHint(varName))
			return
		}
		for _, child := range childNodes(n) {
			walk(child, exempt)
		}
	}
	walk(body, false)
}

// straightLineRelease reports whether st performs a release without
// branching — an expression or assignment statement whose span covers
// one of the release nodes. Releases buried under control flow do not
// count: only a release every path through st must execute.
func straightLineRelease(st ast.Stmt, releases []ast.Node) bool {
	switch st.(type) {
	case *ast.ExprStmt, *ast.AssignStmt:
	default:
		return false
	}
	for _, r := range releases {
		if st.Pos() <= r.Pos() && r.End() <= st.End() {
			return true
		}
	}
	return false
}

// isErrNilGuard matches `errObj != nil` (in any operand order).
func isErrNilGuard(info *types.Info, cond ast.Expr, errObj types.Object) bool {
	if errObj == nil || info == nil {
		return false
	}
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
		id, ok := pair[0].(*ast.Ident)
		if ok && info.ObjectOf(id) == errObj && isNilExpr(info, pair[1]) {
			return true
		}
	}
	return false
}

// benignUse reports uses that neither release nor transfer ownership:
// element access, iteration, length/capacity reads, copies out of the
// buffer, and the `buf = buf[:n]` self-reslice.
func benignUse(info *types.Info, id *ast.Ident, parents []ast.Node, obj types.Object) bool {
	switch parent := parentNode(parents, 0).(type) {
	case *ast.IndexExpr:
		return parent.X == ast.Expr(id)
	case *ast.RangeStmt:
		return parent.X == ast.Expr(id)
	case *ast.CallExpr:
		if fun, ok := parent.Fun.(*ast.Ident); ok {
			switch builtinName(info, fun) {
			case "len", "cap", "copy", "clear", "min", "max":
				return true
			}
		}
	case *ast.SliceExpr:
		if parent.X != ast.Expr(id) {
			return false
		}
		// Only the self-reslice keeps ownership: buf = buf[:n].
		if asg, ok := parentNode(parents, 1).(*ast.AssignStmt); ok && asg.Tok == token.ASSIGN && len(asg.Lhs) == 1 {
			if lhs, ok := asg.Lhs[0].(*ast.Ident); ok && info.ObjectOf(lhs) == obj {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		// The variable on the left of a plain reassignment is not a
		// use of the resource; the old value must already be gone.
		for _, lhs := range parent.Lhs {
			if lhs == ast.Expr(id) {
				return true
			}
		}
		// `_ = x` keeps ownership exactly where it was: an assignment
		// to blank transfers nothing.
		for i, rhs := range parent.Rhs {
			if rhs != ast.Expr(id) || i >= len(parent.Lhs) {
				continue
			}
			if lhs, ok := parent.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
				return true
			}
		}
	}
	return false
}

// usedInNestedFuncLit reports whether obj is referenced inside a
// function literal nested in body.
func usedInNestedFuncLit(body ast.Node, info *types.Info, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok || found {
			return !found
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return false
	})
	return found
}

// pkgPathIs reports whether obj's package path is exactly name or ends
// in "/name" — matching both the real mmjoin/internal packages and the
// golden-test stubs.
func pkgPathIs(obj types.Object, name string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == name || len(path) > len(name) && path[len(path)-len(name)-1] == '/' && path[len(path)-len(name):] == name
}

// methodOn resolves sel as a method call selector and reports its
// name, defining package, and receiver base type name.
func methodOn(info *types.Info, sel *ast.SelectorExpr) (obj types.Object, recvType string, ok bool) {
	if info == nil {
		return nil, "", false
	}
	fn := info.Uses[sel.Sel]
	if fn == nil {
		return nil, "", false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return nil, "", false
	}
	t := sig.Recv().Type()
	if p, okp := t.(*types.Pointer); okp {
		t = p.Elem()
	}
	named, okn := t.(*types.Named)
	if !okn {
		return nil, "", false
	}
	return fn, named.Obj().Name(), true
}

func objName(obj types.Object) string {
	if obj == nil {
		return "span"
	}
	return obj.Name()
}

// walkFunctionScope walks n's subtree with a parent stack, skipping
// nested function literals (they are separate pairing scopes).
func walkFunctionScope(body ast.Node, visit func(n ast.Node, parents []ast.Node)) {
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return
		}
		visit(n, stack)
		stack = append(stack, n)
		for _, child := range childNodes(n) {
			walk(child)
		}
		stack = stack[:len(stack)-1]
	}
	walk(body)
}

// parentNode returns the i-th enclosing node from the top of the
// parent stack.
func parentNode(parents []ast.Node, i int) ast.Node {
	idx := len(parents) - 1 - i
	if idx < 0 {
		return nil
	}
	return parents[idx]
}

// childNodes lists n's direct children via ast.Inspect's first level.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			out = append(out, m)
		}
		return false
	})
	return out
}
