package lint

import "go/ast"

// Syncerr enforces error handling on the durability-critical call surface
// of the WAL and disk packages. Commit acknowledgement is a durability
// promise: if an fsync/msync/Close on a WAL segment or checkpoint file
// fails and the error is dropped, the engine acks a commit that may not
// survive a crash. In internal/wal and internal/disk, the error result of
// Close/Sync/SyncDir/Fsync/Msync/Flush must be consumed — returned,
// checked, or (on error-cleanup paths where an earlier error already
// wins) explicitly discarded with `_ =`, which keeps the decision visible
// in review. Bare call statements, defers and go statements are findings.
var Syncerr = &Analyzer{
	Name: "syncerr",
	Run:  runSyncerr,
}

// syncerrFuncs are the method/function names whose error results carry
// durability outcomes.
var syncerrFuncs = []string{"Close", "Sync", "SyncDir", "Fsync", "Msync", "Flush"}

// syncerrPackage limits the analyzer to the durability layer: the real
// packages are livegraph/internal/wal and livegraph/internal/disk, and
// fixtures mirror the same final path elements.
func syncerrPackage(path string) bool {
	base := pkgPathBase(path)
	return base == "wal" || base == "disk"
}

func runSyncerr(pass *Pass) {
	if !syncerrPackage(pass.Pkg.Path()) {
		return
	}
	check := func(call *ast.CallExpr, how string) {
		fn := callee(pass.TypesInfo, call)
		if fn == nil || !returnsError(fn) {
			return
		}
		named := false
		for _, n := range syncerrFuncs {
			if fn.Name() == n {
				named = true
				break
			}
		}
		if !named {
			return
		}
		pass.Reportf(call.Pos(),
			"error result of %s is dropped%s; handle it or discard explicitly with _ =",
			fn.FullName(), how)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok {
					check(call, "")
				}
			case *ast.DeferStmt:
				check(stmt.Call, " in defer")
			case *ast.GoStmt:
				check(stmt.Call, " in go statement")
			}
			return true
		})
	}
}
