package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spanend enforces the tracing span lifecycle: a span returned by
// StartSpan/StartAlways must be ended on every path out of the function
// that started it, or the span never reaches the trace ring — worse, a
// sampled root span that is never ended pins its children forever, so the
// leak is silent until /v1/traces goes quiet under load.
//
// The check is path-sensitive over the function body: every return (and
// the fall-off end) reachable after the start must have passed an End()
// call. `defer sp.End()` — directly or inside a deferred closure — covers
// all paths. Obligations transfer with the value: spans assigned to
// struct fields, passed to calls, returned, or otherwise escaping are the
// holder's problem and are not flagged here.
var Spanend = &Analyzer{
	Name: "spanend",
	Run:  runSpanend,
}

// spanStatus is the per-path obligation lattice, tracked as a bitmask of
// the statuses a path may be in.
const (
	spanUnstarted = 1 << iota // start site not executed on this path
	spanStarted               // started, End() still owed
	spanEnded                 // End() has run
)

// spanStartCall reports whether call is StartSpan/StartAlways returning
// (_, *Span) — matched by name plus result shape, so the real
// internal/obs API and fixture mini-APIs both qualify.
func spanStartCall(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	if fn == nil || (fn.Name() != "StartSpan" && fn.Name() != "StartAlways") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	ptr, ok := sig.Results().At(sig.Results().Len() - 1).Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

func runSpanend(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkSpanFunc(pass, body)
			}
			return true
		})
	}
}

// spanVar is one span-typed local started in the function under check.
type spanVar struct {
	obj   types.Object
	start token.Pos // first start assignment, for reporting
}

// checkSpanFunc finds the span variables a function starts and verifies
// each is ended on every path. Nested function literals are checked on
// their own visit; here they only matter as escape/defer sites.
func checkSpanFunc(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo

	// Pass 1: collect span variables from `_, sp := StartSpan(...)`-shaped
	// assignments to plain local identifiers. Blank and field targets are
	// out of scope (no local obligation / obligation moved to the struct).
	vars := map[types.Object]*spanVar{}
	startAssigns := map[*ast.Ident]bool{} // LHS idents of start assignments
	walkSkipFuncLits(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) < 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !spanStartCall(info, call) {
			return
		}
		id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return
		}
		startAssigns[id] = true
		if _, seen := vars[obj]; !seen {
			vars[obj] = &spanVar{obj: obj, start: as.Pos()}
		}
	})
	if len(vars) == 0 {
		return
	}

	// Pass 2: classify every other use. Allowed without transferring the
	// obligation: sp.End()/sp.SetAttr()/sp.MarkSlow() calls, nil
	// comparisons and `_ = sp`, which discards the value without ending
	// it. Anything else (argument, return value, reassignment from a
	// non-start expression, closure capture beyond a deferred End)
	// escapes — the obligation moved with the value, so the variable is
	// dropped rather than misreported.
	consumed := map[*ast.Ident]bool{}
	deferred := map[types.Object]bool{}
	markMethodUse := func(call *ast.CallExpr) types.Object {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil || vars[obj] == nil {
			return nil
		}
		switch sel.Sel.Name {
		case "End", "SetAttr", "MarkSlow":
			consumed[id] = true
			if sel.Sel.Name == "End" {
				return obj
			}
		}
		return nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			markMethodUse(node)
		case *ast.DeferStmt:
			// defer sp.End() — or a deferred closure calling sp.End() —
			// covers every subsequent path.
			if obj := markMethodUse(node.Call); obj != nil {
				deferred[obj] = true
			}
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						if obj := markMethodUse(c); obj != nil {
							deferred[obj] = true
						}
					}
					return true
				})
			}
		case *ast.AssignStmt:
			for i, lhs := range node.Lhs {
				if l, ok := lhs.(*ast.Ident); ok && l.Name == "_" && len(node.Rhs) == len(node.Lhs) {
					if id, ok := node.Rhs[i].(*ast.Ident); ok && vars[info.Uses[id]] != nil {
						consumed[id] = true
					}
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.EQL || node.Op == token.NEQ {
				for _, side := range []ast.Expr{node.X, node.Y} {
					if id, ok := side.(*ast.Ident); ok && vars[info.Uses[id]] != nil {
						consumed[id] = true
					}
				}
			}
		}
		return true
	})
	for obj := range vars {
		if spanVarEscapes(info, body, obj, startAssigns, consumed) {
			delete(vars, obj)
		}
	}

	// Pass 3: path evaluation per remaining variable.
	for obj, sv := range vars {
		if deferred[obj] {
			continue
		}
		ev := &spanEval{pass: pass, info: info, obj: obj, sv: sv}
		out := ev.stmts(body.List, spanUnstarted)
		if out&spanStarted != 0 && !ev.reported {
			pass.Reportf(sv.start,
				"span %s is not ended on the fall-through path; call End() before the function returns or defer it",
				obj.Name())
		}
	}
}

// walkSkipFuncLits visits nodes of body without descending into nested
// function literals (they are separate functions with their own check).
func walkSkipFuncLits(body *ast.BlockStmt, fn func(n ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// spanVarEscapes reports whether obj has any use that moves the End
// obligation elsewhere: every occurrence must be a start-assignment
// target or one of the consumed (method call / nil comparison) idents.
func spanVarEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object, startAssigns map[*ast.Ident]bool, consumed map[*ast.Ident]bool) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if info.Defs[id] == obj {
			return true // declaration site
		}
		if info.Uses[id] != obj {
			return true
		}
		if !startAssigns[id] && !consumed[id] {
			escapes = true
		}
		return true
	})
	return escapes
}

// spanEval evaluates the possible span statuses along every control-flow
// path. Sets flow forward through statements; branches union; returns
// with a started status are findings.
type spanEval struct {
	pass     *Pass
	info     *types.Info
	obj      types.Object
	sv       *spanVar
	reported bool
}

func (e *spanEval) stmts(list []ast.Stmt, in int) int {
	set := in
	for _, s := range list {
		set = e.stmt(s, set)
		if set == 0 { // no fall-through (return/branch on every path)
			return 0
		}
	}
	return set
}

func (e *spanEval) stmt(s ast.Stmt, in int) int {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if e.isStart(st) {
			return spanStarted
		}
		return in
	case *ast.ExprStmt:
		if e.isEndCall(st.X) {
			return spanEnded
		}
		return in
	case *ast.ReturnStmt:
		e.atExit(st.Pos(), in)
		return 0
	case *ast.BranchStmt:
		// break/continue/goto leave the enclosing construct without
		// exiting the function; treating them as path ends is the
		// conservative non-reporting choice.
		return 0
	case *ast.BlockStmt:
		return e.stmts(st.List, in)
	case *ast.LabeledStmt:
		return e.stmt(st.Stmt, in)
	case *ast.IfStmt:
		if st.Init != nil {
			in = e.stmt(st.Init, in)
		}
		// A nil span is one that was never sampled: inside `if sp == nil`
		// (or the else of `if sp != nil`) nothing is owed.
		thenIn, elseIn := in, in
		switch e.nilCheck(st.Cond) {
		case token.EQL: // sp == nil
			thenIn = spanUnstarted
		case token.NEQ: // sp != nil
			elseIn = spanUnstarted
		}
		out := e.stmts(st.Body.List, thenIn)
		if st.Else != nil {
			out |= e.stmt(st.Else, elseIn)
		} else {
			out |= elseIn
		}
		return out
	case *ast.ForStmt:
		if st.Init != nil {
			in = e.stmt(st.Init, in)
		}
		return e.loop(st.Body, in)
	case *ast.RangeStmt:
		return e.loop(st.Body, in)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return e.switchStmt(s, in)
	case *ast.SelectStmt:
		out := 0
		for _, c := range st.Body.List {
			out |= e.stmts(c.(*ast.CommClause).Body, in)
		}
		if out == 0 {
			out = in
		}
		return out
	default:
		return in
	}
}

// loop runs the body to a fixed point (the status set is a 3-bit mask, so
// two passes suffice) and unions with the zero-iteration path.
func (e *spanEval) loop(body *ast.BlockStmt, in int) int {
	set := in
	for i := 0; i < 3; i++ {
		next := set | e.stmts(body.List, set)
		if next == set {
			break
		}
		set = next
	}
	return set
}

func (e *spanEval) switchStmt(s ast.Stmt, in int) int {
	var body *ast.BlockStmt
	var init ast.Stmt
	hasDefault := false
	switch st := s.(type) {
	case *ast.SwitchStmt:
		body, init = st.Body, st.Init
	case *ast.TypeSwitchStmt:
		body, init = st.Body, st.Init
	}
	if init != nil {
		in = e.stmt(init, in)
	}
	out := 0
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		out |= e.stmts(cc.Body, in)
	}
	if !hasDefault {
		out |= in
	}
	return out
}

// nilCheck classifies cond as `e.obj == nil` (token.EQL), `e.obj != nil`
// (token.NEQ), or neither (token.ILLEGAL).
func (e *spanEval) nilCheck(cond ast.Expr) token.Token {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return token.ILLEGAL
	}
	matches := func(x, y ast.Expr) bool {
		id, ok := x.(*ast.Ident)
		if !ok || e.info.Uses[id] != e.obj {
			return false
		}
		n, ok := y.(*ast.Ident)
		return ok && n.Name == "nil"
	}
	if matches(be.X, be.Y) || matches(be.Y, be.X) {
		return be.Op
	}
	return token.ILLEGAL
}

// isStart reports whether the assignment is a start site for e.obj.
func (e *spanEval) isStart(as *ast.AssignStmt) bool {
	if len(as.Rhs) != 1 || len(as.Lhs) < 1 {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !spanStartCall(e.info, call) {
		return false
	}
	id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok {
		return false
	}
	return e.info.Defs[id] == e.obj || e.info.Uses[id] == e.obj
}

// isEndCall reports whether expr is e.obj.End().
func (e *spanEval) isEndCall(expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && e.info.Uses[id] == e.obj
}

// atExit reports a function exit reached while the span may still be
// started. One finding per variable keeps the output readable.
func (e *spanEval) atExit(pos token.Pos, set int) {
	if set&spanStarted == 0 || e.reported {
		return
	}
	e.reported = true
	e.pass.Reportf(pos,
		"span %s (started at %s) is not ended on this return path; call End() before returning or defer it",
		e.obj.Name(), e.pass.Fset.Position(e.sv.start))
}
