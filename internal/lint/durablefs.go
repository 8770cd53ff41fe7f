package lint

import "go/ast"

// Durablefs enforces the crash-consistency seam PR 6 introduced: every
// byte that must survive a crash reaches the filesystem through
// disk.Backend (OpenLog/CreateAtomic/Remove/SyncDir) or the atomic-file
// helpers (WriteFileAtomic/AtomicFile), which fsync before rename and
// fsync the directory after. A raw os.Create at a final path, or an
// os.Rename without the surrounding fsyncs, is exactly the checkpoint-swap
// bug class fixed by hand in PR 6 — so outside internal/disk those
// functions may not be referenced at all. Deliberately non-durable output
// (e.g. the benchmark's result files) uses //lglint:ignore durablefs <reason>.
var Durablefs = &Analyzer{
	Name: "durablefs",
	Run:  runDurablefs,
}

func runDurablefs(pass *Pass) {
	// The seam itself is the one place allowed to use the raw calls; like
	// syncerr's scoping, the final path element identifies it so testdata
	// fixtures named "disk" are exempt under the same rule.
	if pkgPathBase(pass.Pkg.Path()) == "disk" {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			// The os functions that create, replace or remove filesystem
			// entries without the seam's fsync discipline.
			if !isPkgFunc(obj, "os", "Create", "Rename", "WriteFile", "OpenFile", "Remove") {
				return true
			}
			pass.Reportf(sel.Pos(),
				"os.%s bypasses the crash-consistency seam; durable files must go through disk.Backend (CreateAtomic/WriteFileAtomic/Remove + SyncDir)",
				obj.Name())
			return true
		})
	}
}
