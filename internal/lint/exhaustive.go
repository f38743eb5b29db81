package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// exhaustive requires every switch over coherence.LineState to either
// carry a default clause or name all four protocol states (Shared,
// Owned, Exclusive, Modified), so that adding a state — as MOESI's
// Owned once was added to MESI's four — forces a revisit of every
// transition decision instead of silently falling through. Invalid is
// exempt from the coverage requirement: most switches sit behind a
// hit/lookup guard and legitimately never see an invalid line.
// This analyzer runs module-wide, tests included.
type exhaustive struct{}

func (exhaustive) name() string { return "exhaustive" }

func (exhaustive) doc() string {
	return "LineState switches name every protocol state or carry a default (module-wide)"
}

// lineStates maps the required constant values to their names,
// mirroring coherence.LineState (Invalid = 0 is exempt).
var lineStates = map[int64]string{
	1: "Shared", 2: "Owned", 3: "Exclusive", 4: "Modified",
}

func (e exhaustive) check(p *pkg, report func(token.Pos, string)) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			tv, ok := p.info.Types[sw.Tag]
			if !ok || !isLineState(tv.Type) {
				return true
			}
			covered := map[int64]bool{}
			hasDefault := false
			for _, stmt := range sw.Body.List {
				cc, ok := stmt.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
					continue
				}
				for _, expr := range cc.List {
					if cv := p.info.Types[expr].Value; cv != nil && cv.Kind() == constant.Int {
						if v, exact := constant.Int64Val(cv); exact {
							covered[v] = true
						}
					}
				}
			}
			if hasDefault {
				return true
			}
			var missing []string
			for v, name := range lineStates { //lint:allow maprange — sorted immediately below
				if !covered[v] {
					missing = append(missing, name)
				}
			}
			if len(missing) > 0 {
				sort.Strings(missing)
				report(sw.Pos(), fmt.Sprintf("switch over coherence.LineState has no default and misses %s; "+
					"name every state or add a default so new states cannot fall through silently",
					strings.Join(missing, ", ")))
			}
			return true
		})
	}
}

func isLineState(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "repro/internal/coherence" && obj.Name() == "LineState"
}
