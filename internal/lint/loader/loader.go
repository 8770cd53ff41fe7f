// Package loader type-checks the packages internal/lint analyzes without any
// dependency outside the standard library. It shells out to `go list
// -deps -export` for package discovery and compiled export data (built by
// the go command's cache, so this works fully offline), parses each target
// package's sources, and type-checks them with the stdlib gc importer
// resolving every import through that export data.
package loader

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked package: the unit an analyzer sees.
type Package struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
}

// Result holds the loaded packages plus the export-data index, which the
// lint tests reuse to type-check fixture packages that import both the
// standard library and this module's packages.
type Result struct {
	Fset  *token.FileSet
	Roots []*Package // pattern-matched packages, dependency order

	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// Load lists patterns (e.g. "./...") from dir, and parses + type-checks
// every matched non-test package.
func Load(dir string, patterns ...string) (*Result, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	res := &Result{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
	}
	var roots []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Export != "" {
			res.exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !p.DepOnly {
			pp := p
			roots = append(roots, &pp)
		}
	}
	res.imp = importer.ForCompiler(res.Fset, "gc", res.lookup)

	for _, p := range roots {
		pkg, err := res.check(p.Dir, p.GoFiles, p.ImportPath)
		if err != nil {
			return nil, err
		}
		res.Roots = append(res.Roots, pkg)
	}
	return res, nil
}

// lookup resolves an import path to its export data for the gc importer.
func (r *Result) lookup(path string) (io.ReadCloser, error) {
	f, ok := r.exports[path]
	if !ok {
		return nil, fmt.Errorf("loader: no export data for %q", path)
	}
	return os.Open(f)
}

// CheckDir parses and type-checks a standalone directory of Go files (a
// test fixture) under the given import path, resolving its imports through
// the already-listed export data. Files are checked in name order so
// diagnostics are deterministic.
func (r *Result) CheckDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	return r.check(dir, files, importPath)
}

// check parses the named files from dir and type-checks them as one package.
func (r *Result) check(dir string, fileNames []string, importPath string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(r.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: r.imp}
	pkg, err := conf.Check(importPath, r.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", importPath, err)
	}
	return &Package{Fset: r.Fset, Files: files, Pkg: pkg, TypesInfo: info}, nil
}
