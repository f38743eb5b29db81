package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maprange forbids `for ... := range m` over a map in simulation
// packages. Go randomizes map iteration order on purpose, so any
// simulator decision reached inside such a loop — which message to
// send first, which block to check first — varies run to run even with
// identical seeds. The fix is to collect and sort the keys, keep an
// explicit gauge/counter, or — only when the loop is provably
// order-independent (pure accumulation into an order-insensitive
// value) — suppress with `//lint:allow maprange <why>`.
func maprange(p *pkg, report func(token.Pos, string)) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				report(rs.Pos(), "range over a map iterates in randomized order; "+
					"sort the keys first, or suppress with //lint:allow maprange <why> if provably order-independent")
			}
			return true
		})
	}
}
