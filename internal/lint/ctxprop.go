package lint

import "go/ast"

// Ctxprop enforces context propagation through library code. The engine's
// protocol guarantees lean on every blocking wait — worker-slot
// acquisition, vertex-lock waits, group-commit waits, replication
// reconnects — being bounded by the caller's context; a
// context.Background() buried in a library package silently detaches the
// wait from whatever deadline the caller thought applied. Entry points
// (package main) and tests own their lifetimes and are exempt; the few
// deliberate context-free public wrappers carry //lglint:ignore ctxprop
// with the reason.
var Ctxprop = &Analyzer{
	Name: "ctxprop",
	Run:  runCtxprop,
}

func runCtxprop(pass *Pass) {
	if pass.Pkg.Name() == "main" {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if !isPkgFunc(obj, "context", "Background", "TODO") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"context.%s in library code: accept a context parameter and propagate it instead",
				obj.Name())
			return true
		})
	}
}
