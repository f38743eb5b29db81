package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the hotalloc
// analyzer walks. It is deliberately conservative where Go's dynamism
// forces a choice:
//
//   - Direct calls and concrete method calls resolve to their single
//     callee.
//   - Interface method calls resolve to *every* module type that
//     implements the interface — a superset of the dynamic targets, so
//     a violation can never hide behind an interface.
//   - Calls through function values (closures, func fields, TickFunc)
//     are not resolved; the few hot-path uses (Trace hooks, Every
//     samplers) are contractually observe-only and remain covered by
//     the -race matrix.
//
// One comment directive feeds the graph: `//lint:hot` marks a function
// as a hot-path root for the hotalloc analyzer.
type module struct {
	dir  string
	fset *token.FileSet
	pkgs []*pkg // base packages only (strictly typechecked)

	funcs map[*types.Func]*funcNode

	// implCache memoizes interface-method resolution.
	implCache map[implKey][]*types.Func

	namedTypes []*types.Named
}

type funcNode struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *pkg
	hot  bool
	// calls are the resolved static targets of every call expression in
	// the body (every implementation, for a dynamic-dispatch call), in
	// source order.
	calls []*types.Func
}

type implKey struct {
	iface *types.Interface
	name  string
}

// buildModule indexes every function of the module's base packages and
// resolves their call edges.
func buildModule(dir string, fset *token.FileSet, pkgs []*pkg) *module {
	m := &module{
		dir: dir, fset: fset,
		funcs:     map[*types.Func]*funcNode{},
		implCache: map[implKey][]*types.Func{},
	}
	for _, p := range pkgs {
		if p.isTest || p.tpkg == nil {
			continue
		}
		m.pkgs = append(m.pkgs, p)
	}
	// Index named types (for interface resolution) and function decls.
	for _, p := range m.pkgs {
		scope := p.tpkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					m.namedTypes = append(m.namedTypes, named)
				}
			}
		}
		for _, file := range p.files {
			for _, decl := range file.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := p.info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				m.funcs[obj] = &funcNode{obj: obj, decl: d, pkg: p,
					hot: hasDirective(d.Doc, "//lint:hot")}
			}
		}
	}
	for _, node := range m.funcs { //lint:allow maprange — edge building is order-independent
		m.resolveCalls(node)
	}
	return m
}

// methodOf returns the method named name in the full (pointer) method
// set of named, if declared in this module.
func (m *module) methodOf(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), false, named.Obj().Pkg(), name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, inModule := m.funcs[fn]; !inModule {
		return nil
	}
	return fn
}

// implementations returns every module method that can be the dynamic
// target of a call to iface's method name, sorted for determinism.
func (m *module) implementations(iface *types.Interface, name string) []*types.Func {
	key := implKey{iface: iface, name: name}
	if impls, ok := m.implCache[key]; ok {
		return impls
	}
	var impls []*types.Func
	for _, named := range m.namedTypes {
		if types.IsInterface(named) {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		if fn := m.methodOf(named, name); fn != nil {
			impls = append(impls, fn)
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].FullName() < impls[j].FullName() })
	m.implCache[key] = impls
	return impls
}

// resolveCalls walks one function body and records its outgoing edges.
func (m *module) resolveCalls(node *funcNode) {
	if node.decl.Body == nil {
		return
	}
	info := node.pkg.info
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if fn, ok := info.Uses[fun].(*types.Func); ok {
				node.calls = append(node.calls, fn.Origin())
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[fun]; ok && (sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr) {
				fn := sel.Obj().(*types.Func).Origin()
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					node.calls = append(node.calls, m.implementations(iface, fn.Name())...)
				} else {
					node.calls = append(node.calls, fn)
				}
			} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				// Package-qualified call (pkg.Func).
				node.calls = append(node.calls, fn.Origin())
			}
		}
		return true
	})
}

// hotRoots returns the //lint:hot functions, sorted.
func (m *module) hotRoots() []*funcNode {
	var roots []*funcNode
	for _, node := range m.funcs { //lint:allow maprange — sorted immediately below
		if node.hot {
			roots = append(roots, node)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].obj.FullName() < roots[j].obj.FullName() })
	return roots
}

// hasDirective reports whether the comment group contains a line whose
// directive prefix matches (exactly, or followed by explanatory text).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	return doc != nil && slices.ContainsFunc(doc.List, func(c *ast.Comment) bool {
		return c.Text == directive || strings.HasPrefix(c.Text, directive+" ")
	})
}

// funcDisplay renders a compact human-readable function name:
// pkg.(*Recv).Name or pkg.Name.
func funcDisplay(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		pkgName = fn.Pkg().Name() + "."
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return pkgName + "(" + ptr + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}
