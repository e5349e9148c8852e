// Package load type-checks module packages for the racelint suite
// without golang.org/x/tools: `go list -deps -export -json` supplies
// package metadata and compiled export data for every dependency, and
// each target package is then parsed and type-checked from source with
// an export-data importer.  This is the same strategy
// golang.org/x/tools/go/packages uses for its LoadSyntax mode, cut to
// the stdlib.
package load

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
	"strings"
)

// Package is one type-checked module package.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Module     *struct{ Main bool }
	Error      *struct{ Err string }
}

// ModuleRoot walks up from dir to the enclosing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("load: no go.mod above " + dir)
		}
		dir = parent
	}
}

// goList runs `go list -deps -export -json` on the patterns in dir and
// decodes the stream.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,CgoFiles,Export,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter returns a go/types importer resolving import paths
// through compiled export data files.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// Packages loads, parses, and type-checks the module packages matching
// patterns (as `go list` resolves them, e.g. "./..."), rooted at dir.
// Only non-test Go files are analyzed — test files belong to separate
// vet units and carry no published invariants of their own.
func Packages(fset *token.FileSet, dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listPackage
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo; the stdlib loader cannot analyze it", t.ImportPath)
		}
		files, err := ParseDirFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg, info, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, &Package{Path: t.ImportPath, Dir: t.Dir, Files: files, Types: pkg, Info: info})
	}
	return out, nil
}

// ParseDirFiles parses the named files from dir, comments included.
func ParseDirFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Check type-checks one package's files with full use/def/selection
// resolution.
func Check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("load: type-checking %s: %w", path, err)
	}
	return pkg, info, nil
}

// StdImporter returns an importer for fixture packages whose imports
// are resolvable by `go list` from dir — the analysistest harness uses
// it to type-check testdata packages against real stdlib (and module)
// export data.
//
// The export data comes from a `go list` subprocess, whose reads the
// test cache never sees, so StdImporter stats the Go files of every
// module package among the imports and their dependencies itself: the
// go command records a test's file stats as its inputs, so editing one
// of those packages reruns a cached fixture test instead of replaying
// its old result.
func StdImporter(fset *token.FileSet, dir string, importPaths []string) (types.Importer, error) {
	exports := make(map[string]string)
	if len(importPaths) > 0 {
		listed, err := goList(dir, importPaths)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if p.Module != nil && p.Module.Main {
				for _, name := range p.GoFiles {
					if _, err := os.Stat(filepath.Join(p.Dir, name)); err != nil {
						return nil, fmt.Errorf("load: %s: %w", p.ImportPath, err)
					}
				}
			}
		}
	}
	return exportImporter(fset, exports), nil
}
