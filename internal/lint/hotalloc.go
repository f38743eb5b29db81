package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// HotAllocPackages bounds the hotalloc reachability walk to the
// packages that execute per-cycle; generators, observability and
// command-line layers allocate legitimately.
var HotAllocPackages = []string{
	"repro/internal/sim",
	"repro/internal/coherence",
	"repro/internal/noc",
	"repro/internal/cpu",
	"repro/internal/mem",
	"repro/internal/core",
	"repro/internal/fault",
}

// allowFileName is looked up at the analyzed module's root.
const allowFileName = "hotalloc.allow"

// hotalloc is the zero-alloc guardrail for ROADMAP item "raw speed":
// it reports heap-allocation constructs in the declared hot set — every
// function marked `//lint:hot` (the engine tick loop, the node phases,
// cache lookup, the NoC deliver paths) plus everything reachable from
// them through the call graph within HotAllocPackages.
//
// Reported construct kinds:
//
//	make    — make() of a slice/map/chan
//	new     — new()
//	append  — append() (may grow the backing array)
//	closure — a func literal (captures escape to the heap)
//	fmt     — any fmt.* call (formats allocate)
//	concat  — non-constant string concatenation (+ / +=)
//	box     — a non-pointer-shaped value converted to an interface
//	lit     — &CompositeLit (escapes to the heap when it leaves scope)
//
// A statement list whose last statement is a panic call is cold — a
// correct run never enters it — so nothing inside it is reported: the
// diagnostic a protocol-violation panic formats is not a hot-path
// allocation.
//
// Findings are suppressed by the committed hotalloc.allow file at the
// analyzed module's root, one entry per function+kind:
//
//	<func full name> <kind> — <reason>
//
// e.g. `(*repro/internal/sim.Port[T]).Send append — backing array is
// reused after warm-up`. Granularity is per function and kind (not per
// line) so unrelated edits do not churn the file. An entry without a
// reason, and an entry matching no current finding (stale), are
// themselves findings: the file must stay an honest worklist.
func hotalloc(m *module) []Finding {
	allow, allowFindings, err := loadAllowFile(filepath.Join(m.dir, allowFileName))
	if err != nil {
		return []Finding{{Pos: token.Position{Filename: filepath.Join(m.dir, allowFileName)},
			Analyzer: "hotalloc", Message: err.Error()}}
	}
	hot := map[string]bool{}
	for _, ip := range HotAllocPackages {
		hot[ip] = true
	}

	// Reachability: hot roots always count; traversal stays inside the
	// hot packages.
	reach := map[*funcNode]bool{}
	var queue []*funcNode
	for _, root := range m.hotRoots() {
		if !reach[root] {
			reach[root] = true
			queue = append(queue, root)
		}
	}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		for _, callee := range node.calls {
			next := m.funcs[callee]
			if next == nil || reach[next] || !hot[next.pkg.importPath] {
				continue
			}
			reach[next] = true
			queue = append(queue, next)
		}
	}

	nodes := make([]*funcNode, 0, len(reach))
	for node := range reach { //lint:allow maprange — sorted immediately below
		nodes = append(nodes, node)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].obj.FullName() < nodes[j].obj.FullName() })

	var findings []Finding
	used := map[string]bool{}
	for _, node := range nodes {
		for _, site := range allocSites(node) {
			key := node.obj.FullName() + " " + site.kind
			if _, ok := allow[key]; ok {
				used[key] = true
				continue
			}
			findings = append(findings, Finding{
				Pos:      m.fset.Position(site.pos),
				Analyzer: "hotalloc",
				Message: fmt.Sprintf("%s on the hot path (%s): %s; eliminate it or add `%s %s — <reason>` to %s",
					site.what, funcDisplay(node.obj), site.detail, node.obj.FullName(), site.kind, allowFileName),
			})
		}
	}
	// Stale entries: the worklist must shrink when the code improves.
	for key, line := range allow { //lint:allow maprange — findings are sorted by the caller
		if !used[key] {
			findings = append(findings, Finding{
				Pos:      token.Position{Filename: filepath.Join(m.dir, allowFileName), Line: line},
				Analyzer: "hotalloc",
				Message:  fmt.Sprintf("stale allowlist entry %q matches no current finding; delete it", key),
			})
		}
	}
	return append(findings, allowFindings...)
}

// loadAllowFile parses hotalloc.allow: blank lines and #-comments are
// skipped; each entry is "<func> <kind> <reason>". Entries missing a
// reason are reported. Returns key -> line number.
func loadAllowFile(path string) (map[string]int, []Finding, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]int{}, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("hotalloc allowlist: %v", err)
	}
	allow := map[string]int{}
	var findings []Finding
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pos := token.Position{Filename: path, Line: i + 1}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			findings = append(findings, Finding{Pos: pos, Analyzer: "hotalloc",
				Message: fmt.Sprintf("malformed allowlist entry %q; want `<func> <kind> — <reason>`", line)})
			continue
		}
		key := fields[0] + " " + fields[1]
		reason := strings.TrimSpace(strings.TrimLeft(strings.Join(fields[2:], " "), "-—– "))
		if reason == "" {
			findings = append(findings, Finding{Pos: pos, Analyzer: "hotalloc",
				Message: fmt.Sprintf("allowlist entry %q has no reason; the reason is the worklist note", key)})
			continue
		}
		allow[key] = i + 1
	}
	return allow, findings, nil
}

// allocSite is one detected allocation construct.
type allocSite struct {
	pos    token.Pos
	kind   string // allowlist key suffix
	what   string // finding headline
	detail string // actionable hint
}

// allocSites scans one function body for allocation constructs.
func allocSites(node *funcNode) []allocSite {
	if node.decl.Body == nil {
		return nil
	}
	info := node.pkg.info
	var sites []allocSite
	add := func(pos token.Pos, kind, what, detail string) {
		sites = append(sites, allocSite{pos: pos, kind: kind, what: what, detail: detail})
	}
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BlockStmt:
			return !endsInPanic(info, e.List)
		case *ast.CaseClause:
			return !endsInPanic(info, e.Body)
		case *ast.CallExpr:
			scanCall(info, e, add)
		case *ast.FuncLit:
			add(e.Pos(), "closure", "func literal", "captured variables escape to the heap; hoist the closure or pass state explicitly")
			return false // the literal's body is not the hot function's own code
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isNonConstString(info, e) {
				add(e.Pos(), "concat", "string concatenation", "each + allocates a new string; avoid building strings per cycle")
			}
		case *ast.AssignStmt:
			if e.Tok == token.ADD_ASSIGN && len(e.Lhs) == 1 && isStringType(info.Types[e.Lhs[0]].Type) {
				add(e.Pos(), "concat", "string concatenation", "+= on a string allocates; avoid building strings per cycle")
			}
			scanAssignBox(info, e, add)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
					add(e.Pos(), "lit", "&composite literal", "escapes to the heap when it outlives the frame; consider pooling or reuse")
				}
			}
		case *ast.CompositeLit:
			scanLitBox(info, e, add)
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].pos < sites[j].pos })
	return sites
}

// endsInPanic reports whether the statement list's last statement is a
// call of the builtin panic.
func endsInPanic(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	st, ok := list[len(list)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := st.X.(*ast.CallExpr)
	return ok && builtinName(info, call) == "panic"
}

// builtinName returns the name of the builtin call calls, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// scanCall classifies builtin allocators, fmt calls, conversions to
// interface, and interface-typed arguments.
func scanCall(info *types.Info, call *ast.CallExpr, add func(pos token.Pos, kind, what, detail string)) {
	fun := ast.Unparen(call.Fun)
	if name := builtinName(info, call); name != "" {
		switch name {
		case "make":
			add(call.Pos(), "make", "make()", "allocates; hoist the buffer out of the per-cycle path")
		case "new":
			add(call.Pos(), "new", "new()", "allocates; hoist or pool the object")
		case "append":
			add(call.Pos(), "append", "append()", "may grow the backing array; preallocate or bound the queue")
		}
		return
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				add(call.Pos(), "fmt", "fmt."+sel.Sel.Name+" call", "formatting allocates (and boxes every operand); format off the hot path")
				return // don't double-report its operands as boxes
			}
		}
	}
	// Conversion to an interface type: T(x) where T is an interface.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			add(call.Pos(), "box", "interface conversion", "a non-pointer value stored in an interface allocates")
		}
		return
	}
	// Interface-typed parameters.
	sig, ok := typeOf(info, fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic():
			pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if types.IsInterface(pt) && boxes(info, arg) {
			add(arg.Pos(), "box", "interface argument", "a non-pointer value passed as an interface allocates")
		}
	}
}

// scanAssignBox flags plain assignments of non-pointer concrete values
// into interface-typed targets.
func scanAssignBox(info *types.Info, st *ast.AssignStmt, add func(pos token.Pos, kind, what, detail string)) {
	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i := range st.Lhs {
		if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := typeOf(info, st.Lhs[i])
		if lt != nil && types.IsInterface(lt) && boxes(info, st.Rhs[i]) {
			add(st.Rhs[i].Pos(), "box", "interface assignment", "a non-pointer value stored in an interface allocates")
		}
	}
}

// scanLitBox flags struct-literal fields of interface type initialized
// with non-pointer concrete values (e.g. a uint64 into an `any` field).
func scanLitBox(info *types.Info, lit *ast.CompositeLit, add func(pos token.Pos, kind, what, detail string)) {
	tv, ok := info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldByName := func(name string) *types.Var {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return st.Field(i)
			}
		}
		return nil
	}
	for i, elt := range lit.Elts {
		var ft types.Type
		value := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			f := fieldByName(key.Name)
			if f == nil {
				continue
			}
			ft = f.Type()
			value = kv.Value
		} else if i < st.NumFields() {
			ft = st.Field(i).Type()
		} else {
			continue
		}
		if types.IsInterface(ft) && boxes(info, value) {
			add(value.Pos(), "box", "interface field", "a non-pointer value stored in an interface field allocates")
		}
	}
}

// boxes reports whether storing expr into an interface allocates: the
// expression's type is concrete and not pointer-shaped, and it is not
// the untyped nil.
func boxes(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if t.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}

func typeOf(info *types.Info, expr ast.Expr) types.Type {
	if tv, ok := info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil // constant folding produces no runtime concat
}
