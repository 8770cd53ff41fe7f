// Package lint holds the project's static analyzers: mechanical checks
// for the durability, locking and tracing invariants the engine's
// correctness argument rests on (paper §5's commit protocol and §6's
// recovery), each one a defect the race detector cannot see:
//
//	durablefs  durable files go through the disk.Backend seam
//	ctxprop    library code propagates caller contexts
//	syncerr    wal/disk never drop fsync/Close errors
//	lockhold   no blocking while holding an mvcc stripe lock
//	spanend    obs spans are ended on every path out of the starter
//
// `go test ./internal/lint/` runs them: TestRepoLintClean holds the whole
// module at zero findings, and each analyzer has a fixture test under
// testdata/src. Suppress a deliberate exception with
// `//lglint:ignore <analyzer> <reason>` on the finding's line or the line
// above; the reason is mandatory.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"livegraph/internal/lint/loader"
)

// Analyzer checks one invariant, one package at a time.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lglint:ignore
	// directives. Lower-case, no spaces.
	Name string
	Run  func(*Pass)
}

// All is every analyzer.
var All = []*Analyzer{
	Durablefs,
	Ctxprop,
	Syncerr,
	Lockhold,
	Spanend,
}

// Pass is one analyzer's view of one package.
type Pass struct {
	*loader.Package
	analyzer string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	Position token.Position
	Message  string
}

// lint runs the analyzers over pkgs, drops the findings a
// //lglint:ignore directive suppresses, and returns the rest, malformed
// directives included.
func lint(pkgs []*loader.Package, analyzers []*Analyzer) []Finding {
	var found []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{Package: pkg, analyzer: a.Name, findings: &found})
		}
	}
	ignored, kept := ignores(pkgs)
	for _, f := range found {
		if !ignored.suppresses(f) {
			kept = append(kept, f)
		}
	}
	return kept
}

// --- shared type-inspection helpers ---

// callee resolves the function or method a call expression invokes, or nil.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether obj is the package-level function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath string, names ...string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// pkgPathBase returns the last element of an import path.
func pkgPathBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// recvNamed returns the named type of a method's receiver (unwrapping one
// pointer), or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOn reports whether fn is a method named one of names on the
// named type typeName declared in a package whose path's last element is
// pkgBase (matching both the real module layout and testdata fixtures).
func isMethodOn(fn *types.Func, pkgBase, typeName string, names ...string) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Name() != typeName || pkgPathBase(named.Obj().Pkg().Path()) != pkgBase {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// returnsError reports whether fn's last result is the error type.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
