package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// walltimeFuncs are the time functions that read or wait on the host's
// clock.
var walltimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true, "Sleep": true,
}

// walltime forbids reading the host's clock in simulation packages.
// The simulator's only clock is the cycle counter; a wall-clock read
// that influences behaviour makes runs irreproducible, and one that
// doesn't belongs in cmd/ where results are reported.
func walltime(p *pkg, report func(token.Pos, string)) {
	forEachSelector(p, func(sel *ast.SelectorExpr, pkgPath string) {
		if pkgPath == "time" && walltimeFuncs[sel.Sel.Name] {
			report(sel.Pos(), "wall-clock access time."+sel.Sel.Name+
				" in a simulation package; simulated time is the only clock allowed here")
		}
	})
}

// globalrandAllowed are the math/rand functions that construct an
// explicit generator rather than using the global one.
var globalrandAllowed = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// globalrand forbids math/rand's package-level convenience functions in
// simulation packages: they share one process-global generator, so any
// draw perturbs every other draw's sequence, and since Go 1.20 the
// global generator is seeded randomly at startup. Deterministic code
// must thread an explicit rand.New(rand.NewSource(seed)).
func globalrand(p *pkg, report func(token.Pos, string)) {
	forEachSelector(p, func(sel *ast.SelectorExpr, pkgPath string) {
		if pkgPath != "math/rand" && pkgPath != "math/rand/v2" {
			return
		}
		obj := p.info.Uses[sel.Sel]
		if _, isFunc := obj.(*types.Func); !isFunc || globalrandAllowed[sel.Sel.Name] {
			return
		}
		report(sel.Pos(), "rand."+sel.Sel.Name+
			" uses the process-global generator; use an explicitly seeded rand.New(rand.NewSource(seed))")
	})
}

// forEachSelector calls f for every package-qualified selector
// (pkg.Name) in the package, with the imported package's path.
func forEachSelector(p *pkg, f func(sel *ast.SelectorExpr, pkgPath string)) {
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			f(sel, pn.Imported().Path())
			return true
		})
	}
}
