package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// ExtraBuildTags are custom build tags treated as enabled when the
// loader evaluates //go:build constraints. The soak tier (the nightly
// fault grid behind `-tags soak`) must stay under analysis: a
// nondeterministic soak test is still a flaky test.
var ExtraBuildTags = []string{"soak"}

// pkg is one loaded, typechecked module package.
type pkg struct {
	importPath string
	files      []*ast.File
	info       *types.Info
	tpkg       *types.Package
	// inTestFiles are in-package test files (package foo, *_test.go)
	// and extFiles are external-test files (package foo_test). Both may
	// import packages that import foo — legal for `go test`, which
	// builds test variants — so they are excluded from the dependency
	// order and typechecked tolerantly after every base package.
	inTestFiles []*ast.File
	extFiles    []*ast.File
	// isTest marks the tolerantly-typechecked test variants appended
	// after the base packages; module-wide analyzers skip them (their
	// type info may be partial).
	isTest bool

	determinismScoped bool
}

// loadModule parses and typechecks every package under the module
// rooted at dir, using only the standard library: module sources are
// discovered by walking the tree, intra-module imports are resolved
// against the packages loaded here (in dependency order), and standard
// library imports fall back to the source importer. No go/packages, no
// build cache, no network.
//
// Files excluded by build constraints — a //go:build (or legacy
// // +build) line, or a _GOOS/_GOARCH filename suffix — that does not
// match the host's GOOS/GOARCH plus ExtraBuildTags are skipped, by
// go/build's own MatchFile and so exactly as `go build` would skip
// them: platform-specific twin files do not collide in the
// typechecker. Files guarded by the tags in ExtraBuildTags (the soak
// tier) stay in: a nondeterministic soak test is still a flaky test.
func loadModule(dir string) ([]*pkg, *token.FileSet, *directives, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, nil, nil, err
	}
	pkgDirs, err := findPackageDirs(dir)
	if err != nil {
		return nil, nil, nil, err
	}

	buildCtx := build.Default
	buildCtx.BuildTags = ExtraBuildTags
	fset := token.NewFileSet()
	dirs := newDirectives()
	parsed := make(map[string]*pkg) // import path -> pkg (files parsed, not yet typechecked)
	for _, pd := range pkgDirs {
		rel, err := filepath.Rel(dir, pd)
		if err != nil {
			return nil, nil, nil, err
		}
		ip := modPath
		if rel != "." {
			ip = modPath + "/" + filepath.ToSlash(rel)
		}
		p := &pkg{importPath: ip}
		entries, err := os.ReadDir(pd)
		if err != nil {
			return nil, nil, nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			if ok, err := buildCtx.MatchFile(pd, e.Name()); err != nil {
				return nil, nil, nil, fmt.Errorf("lint: %v", err)
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(pd, e.Name()), nil, parser.ParseComments)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("lint: parse: %v", err)
			}
			p.files = append(p.files, f)
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if analyzer, reason, ok := parseAllow(c.Text); ok {
						dirs.add(allowDirective{pos: fset.Position(c.Pos()), analyzer: analyzer, reason: reason})
					}
				}
			}
		}
		p.files, p.inTestFiles, p.extFiles = splitTestFiles(fset, p.files)
		if len(p.files)+len(p.inTestFiles)+len(p.extFiles) > 0 {
			parsed[ip] = p
		}
	}

	// The dependency order considers non-test files only.
	order, err := topoOrder(parsed)
	if err != nil {
		return nil, nil, nil, err
	}

	std := importer.ForCompiler(fset, "source", nil)
	done := make(map[string]*types.Package)
	imp := &moduleImporter{std: std, module: done}
	var out []*pkg
	// Pass 1: base packages, in dependency order, strict — the real
	// code must typecheck cleanly or the findings are untrustworthy.
	for _, ip := range order {
		p := parsed[ip]
		if len(p.files) == 0 {
			continue
		}
		tp, info, err := typecheck(ip, p.files, fset, imp, false)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("lint: typecheck %s: %v", ip, err)
		}
		p.tpkg = tp
		p.info = info
		done[ip] = tp
		out = append(out, p)
	}
	// Pass 2: test files, tolerantly. An in-package test variant may be
	// imported-from indirectly (a dependency that imports the base
	// package yields a second, distinct types.Package for the same
	// path), which can produce spurious identity errors go test would
	// not report — so errors are swallowed and the analyzers simply
	// skip any expression left untyped.
	for _, ip := range order {
		p := parsed[ip]
		if len(p.inTestFiles) > 0 {
			files := append(append([]*ast.File{}, p.files...), p.inTestFiles...)
			_, info, _ := typecheck(ip, files, fset, imp, true)
			out = append(out, &pkg{
				importPath: ip,
				files:      p.inTestFiles,
				info:       info,
				isTest:     true,
			})
		}
		if len(p.extFiles) > 0 {
			_, info, _ := typecheck(ip+"_test", p.extFiles, fset, imp, true)
			out = append(out, &pkg{
				importPath: ip,
				files:      p.extFiles,
				info:       info,
				isTest:     true,
			})
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

// splitTestFiles separates non-test files, in-package test files
// (package foo, *_test.go) and external test files (package foo_test).
func splitTestFiles(fset *token.FileSet, files []*ast.File) (base, inTest, ext []*ast.File) {
	var baseName string
	for _, f := range files {
		if !strings.HasSuffix(f.Name.Name, "_test") {
			baseName = f.Name.Name
			break
		}
	}
	for _, f := range files {
		isTest := strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
		switch {
		case isTest && baseName != "" && f.Name.Name == baseName+"_test":
			ext = append(ext, f)
		case isTest:
			inTest = append(inTest, f)
		default:
			base = append(base, f)
		}
	}
	return base, inTest, ext
}

// moduleImporter resolves intra-module imports against the packages
// typechecked so far and defers everything else to the stdlib source
// importer.
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

// topoOrder sorts parsed packages so every package follows its
// intra-module imports.
func topoOrder(parsed map[string]*pkg) ([]string, error) {
	deps := make(map[string][]string, len(parsed))
	for ip, p := range parsed {
		seen := map[string]bool{}
		for _, f := range p.files {
			for _, im := range f.Imports {
				path, err := strconv.Unquote(im.Path.Value)
				if err != nil {
					continue
				}
				if _, ok := parsed[path]; ok && path != ip && !seen[path] {
					seen[path] = true
					deps[ip] = append(deps[ip], path)
				}
			}
		}
		sort.Strings(deps[ip])
	}
	names := make([]string, 0, len(parsed))
	for ip := range parsed { //lint:allow maprange — sorted immediately below
		names = append(names, ip)
	}
	sort.Strings(names)

	const (
		white = iota
		grey
		black
	)
	color := map[string]int{}
	var order []string
	var visit func(ip string) error
	visit = func(ip string) error {
		switch color[ip] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", ip)
		}
		color[ip] = grey
		for _, d := range deps[ip] {
			if err := visit(d); err != nil {
				return err
			}
		}
		color[ip] = black
		order = append(order, ip)
		return nil
	}
	for _, ip := range names {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// modulePath reads the module declaration from go.mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lint: %v", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// findPackageDirs walks the module for directories containing Go files,
// skipping hidden directories, testdata, and vendor.
func findPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}
