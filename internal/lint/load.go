package lint

import (
	"bytes"
	"encoding/json"
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
	"slices"
)

// pkg is one loaded, typechecked module package.
type pkg struct {
	importPath string
	files      []*ast.File
	info       *types.Info
	tpkg       *types.Package
	// inTestFiles are in-package test files (package foo, *_test.go)
	// and extFiles are external-test files (package foo_test). Both may
	// import packages that import foo — legal for `go test`, which
	// builds test variants — so they are typechecked tolerantly after
	// every base package.
	inTestFiles []*ast.File
	extFiles    []*ast.File
	// isTest marks the tolerantly-typechecked test variants appended
	// after the base packages; module-wide analyzers skip them (their
	// type info may be partial).
	isTest bool
}

// listedPkg is the part of one `go list -json` record the loader reads.
type listedPkg struct {
	ImportPath, Dir, Export, ForTest   string
	Match                              []string
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// loadModule parses and typechecks every package of the module rooted
// at dir. The go tool answers what is a package, which of its files a
// build compiles and in what order packages typecheck: one
//
//	go list -e -json -deps -test -export -tags soak ./...
//
// lists the module's packages in dependency order with the files `go
// build -tags soak` and `go test` select (testdata, vendor, _- and
// .-prefixed directories and nested modules stay out, as for `./...`),
// and the export data the gc importer reads for every other package.
// Module packages are typechecked from source into one types universe:
// the call graph follows *types.Func identity across packages. Finding
// positions are dir joined with the path below it, relative when dir is.
func loadModule(dir string) ([]*pkg, *token.FileSet, *directives, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-e", "-json", "-deps", "-test", "-export", "-tags", "soak", "./...")
	cmd.Dir, cmd.Stderr = dir, &stderr
	listing, err := cmd.Output()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lint: go list: %v %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	root, _ := filepath.Abs(dir) // cannot fail: exec resolved dir this way to start go list

	// The record stream names every package once per build it is part
	// of: the module's own packages carry a Match and no ForTest; test
	// variants, test mains and dependencies are only export data here.
	fset := token.NewFileSet()
	dirs := &directives{byFile: map[string][]allowDirective{}}
	exports := map[string]string{}
	var parsed []*pkg
	for dec := json.NewDecoder(bytes.NewReader(listing)); dec.More(); {
		var lp listedPkg
		if err := dec.Decode(&lp); err != nil {
			return nil, nil, nil, fmt.Errorf("lint: go list: %v", err)
		}
		exports[lp.ImportPath] = lp.Export
		if len(lp.Match) == 0 || lp.ForTest != "" {
			continue
		}
		rel, _ := filepath.Rel(root, lp.Dir) // both absolute: cannot fail
		var files []*ast.File
		for _, name := range slices.Concat(lp.GoFiles, lp.TestGoFiles, lp.XTestGoFiles) {
			f, err := parser.ParseFile(fset, filepath.Join(dir, rel, name), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("lint: parse: %v", err)
			}
			files = append(files, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if analyzer, reason, ok := parseAllow(c.Text); ok {
						dirs.add(allowDirective{pos: fset.Position(c.Pos()), analyzer: analyzer, reason: reason})
					}
				}
			}
		}
		g, t := len(lp.GoFiles), len(lp.GoFiles)+len(lp.TestGoFiles)
		parsed = append(parsed, &pkg{importPath: lp.ImportPath, files: files[:g], inTestFiles: files[g:t], extFiles: files[t:]})
	}

	imp := &moduleImporter{
		module: map[string]*types.Package{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if exports[path] == "" {
				return nil, fmt.Errorf("go list reported no export data for %s", path)
			}
			return os.Open(exports[path])
		}),
	}
	var out []*pkg
	// Pass 1: base packages, in dependency order, strict — the real
	// code must typecheck cleanly or the findings are untrustworthy.
	for _, p := range parsed {
		if len(p.files) == 0 {
			continue
		}
		tp, info, err := typecheck(p.importPath, p.files, fset, imp, false)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: typecheck %s: %v", p.importPath, err)
		}
		p.tpkg, p.info = tp, info
		imp.module[p.importPath] = tp
		out = append(out, p)
	}
	// Pass 2: test files, tolerantly. An in-package test variant may be
	// imported-from indirectly (a dependency that imports the base
	// package yields a second, distinct types.Package for the same
	// path), which can produce spurious identity errors go test would
	// not report — so errors are swallowed and the analyzers simply
	// skip any expression left untyped.
	for _, p := range parsed {
		if len(p.inTestFiles) > 0 {
			files := append(append([]*ast.File{}, p.files...), p.inTestFiles...)
			_, info, _ := typecheck(p.importPath, files, fset, imp, true)
			out = append(out, &pkg{importPath: p.importPath, files: p.inTestFiles, info: info, isTest: true})
		}
		if len(p.extFiles) > 0 {
			_, info, _ := typecheck(p.importPath+"_test", p.extFiles, fset, imp, true)
			out = append(out, &pkg{importPath: p.importPath, files: p.extFiles, info: info, isTest: true})
		}
	}
	return out, fset, dirs, nil
}

func typecheck(path string, files []*ast.File, fset *token.FileSet, imp types.Importer, tolerant bool) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	if tolerant {
		conf.Error = func(error) {} // keep going; info stays partial
	}
	tp, err := conf.Check(path, fset, files, info)
	if tolerant {
		err = nil
	}
	return tp, info, err
}

// moduleImporter resolves intra-module imports against the packages
// typechecked so far and everything else from go list's export data.
type moduleImporter struct {
	std    types.Importer
	module map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}
