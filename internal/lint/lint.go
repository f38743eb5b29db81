// Package lint implements the repository's custom static analyzers.
// They enforce the property every result in this study depends on:
// *the simulator is a deterministic function of its configuration and
// seed*. Two runs with the same flags must produce bit-identical
// statistics, and the model checker's replay-based search is only sound
// if re-running a choice path reproduces the same state.
//
// Determinism analyzers, run on every repro/internal package but this
// one and obs/prof (inDeterminismScope), test files included:
//
//   - walltime: forbids reading the wall clock (time.Now, time.Since,
//     timers). Simulated time is the only clock the simulator may see.
//   - globalrand: forbids math/rand's package-level functions, whose
//     process-global generator is shared, lockstep-dependent and (since
//     Go 1.20) seeded randomly at startup. Explicit rand.New(
//     rand.NewSource(seed)) generators are fine.
//   - maprange: forbids ranging over a map, whose iteration order is
//     deliberately randomized by the runtime — any simulator behaviour
//     reached through such a loop differs run to run. Iterate a sorted
//     key slice instead, or suppress a provably order-independent loop
//     with `//lint:allow maprange <reason>`.
//
// Module-wide analyzer (built on the call graph in callgraph.go):
//
//   - hotalloc: reports heap-allocation constructs (make, new, append,
//     closures, fmt calls, string concatenation, interface boxing,
//     escaping composite literals) in code reachable from functions
//     marked `//lint:hot`. Findings are suppressed per function+kind by
//     the committed hotalloc.allow file, whose entries must carry a
//     reason — the file is the zero-alloc worklist, and a new
//     allocation on a hot path fails the gate.
//
// Suppressions: `//lint:allow <analyzer> <reason>` (reason required; a
// reasonless or unknown-analyzer allow is itself reported, as analyzer
// "directive") on the finding's line or the line directly above it.
//
// Loading: the go tool decides what is analyzed. One `go list -deps
// -test -export -tags soak ./...` names the module's packages and their
// files exactly as `go build -tags soak` and `go test` select them —
// the soak tier stays under analysis, since a nondeterministic soak
// test is still a flaky test — and supplies the export data of the
// standard library. The module itself is typechecked from source with
// go/parser and go/types only — no external analysis framework — so the
// gate runs anywhere the Go toolchain does.
package lint

import (
	"cmp"
	"fmt"
	"go/token"
	"slices"
	"strings"
)

// inDeterminismScope reports whether the determinism analyzers apply
// to a package: every package under repro/internal feeds a simulation
// result, or replays one (fault campaigns, the -jobs pool, workload
// generators), except the analyzers themselves and obs/prof, whose job
// is to read the host's clock and heap. Seeded generators
// (rand.New(rand.NewSource(seed))) pass globalrand anywhere.
func inDeterminismScope(importPath string) bool {
	rest, ok := strings.CutPrefix(importPath, "repro/internal/")
	return ok && rest != "lint" && rest != "obs/prof"
}

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// determinismChecks are the per-package analyzers, each under the name
// its findings and //lint:allow directives carry. They run on the
// packages inDeterminismScope admits, test files included.
var determinismChecks = []struct {
	name  string
	check func(p *pkg, report func(pos token.Pos, msg string))
}{
	{"walltime", walltime},
	{"globalrand", globalrand},
	{"maprange", maprange},
}

// Run loads every package of the module rooted at dir, typechecks it,
// and runs every analyzer: the determinism checks, hotalloc and the
// //lint:allow hygiene check. Findings come back sorted by position.
// Test files are analyzed too: a nondeterministic test is a flaky test.
func Run(dir string) ([]Finding, error) {
	pkgs, fset, dirs, err := loadModule(dir)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, p := range pkgs {
		if !inDeterminismScope(p.importPath) {
			continue
		}
		for _, c := range determinismChecks {
			c.check(p, func(pos token.Pos, msg string) {
				position := fset.Position(pos)
				if !dirs.suppressed(c.name, position) {
					findings = append(findings, Finding{Pos: position, Analyzer: c.name, Message: msg})
				}
			})
		}
	}
	for _, f := range hotalloc(buildModule(dir, fset, pkgs)) {
		if !dirs.suppressed("hotalloc", f.Pos) {
			findings = append(findings, f)
		}
	}
	findings = append(findings, dirs.hygieneFindings()...)
	slices.SortFunc(findings, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename), cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column), strings.Compare(a.Analyzer, b.Analyzer))
	})
	return findings, nil
}

// isAnalyzer reports whether a //lint:allow directive names an analyzer
// that can be suppressed.
func isAnalyzer(name string) bool {
	for _, c := range determinismChecks {
		if c.name == name {
			return true
		}
	}
	return name == "hotalloc"
}

// allowDirective is one parsed suppression comment.
type allowDirective struct {
	pos      token.Position
	analyzer string
	reason   string
}

// directives holds every suppression comment of the module, keyed by
// file so same-numbered lines of different files cannot shadow each
// other.
type directives struct {
	byFile map[string][]allowDirective
}

func (d *directives) add(a allowDirective) {
	d.byFile[a.pos.Filename] = append(d.byFile[a.pos.Filename], a)
}

// suppressed reports whether a directive for the analyzer appears on
// the finding's line or the line directly above it. A //lint:allow
// without a reason does not suppress — the reason is the audit trail.
func (d *directives) suppressed(analyzer string, pos token.Position) bool {
	return slices.ContainsFunc(d.byFile[pos.Filename], func(a allowDirective) bool {
		return a.analyzer == analyzer && a.reason != "" && (a.pos.Line == pos.Line || a.pos.Line == pos.Line-1)
	})
}

// hygieneFindings reports malformed //lint:allow directives: a missing
// reason (the directive then suppresses nothing) or an unknown analyzer
// name (usually a typo that silently disarms the suppression).
func (d *directives) hygieneFindings() []Finding {
	var out []Finding
	for _, as := range d.byFile { //lint:allow maprange — findings are sorted by the caller
		for _, a := range as {
			switch {
			case !isAnalyzer(a.analyzer):
				out = append(out, Finding{Pos: a.pos, Analyzer: "directive",
					Message: fmt.Sprintf("//lint:allow names unknown analyzer %q; the suppression is inert", a.analyzer)})
			case a.reason == "":
				out = append(out, Finding{Pos: a.pos, Analyzer: "directive",
					Message: "//lint:allow needs a reason (`//lint:allow " + a.analyzer + " <why>`); a reasonless allow suppresses nothing"})
			}
		}
	}
	return out
}

// parseAllow extracts analyzer and reason from a //lint:allow comment,
// returning ok=false if the comment is not one. The reason may lead
// with a dash or em-dash separator, which is stripped.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	const prefix = "//lint:allow"
	rest, found := strings.CutPrefix(text, prefix)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return "", "", true // malformed: no analyzer; hygiene reports it
	}
	analyzer = rest
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		analyzer, reason = rest[:i], strings.TrimSpace(rest[i:])
	}
	reason = strings.TrimSpace(strings.TrimLeft(reason, "-—– "))
	return analyzer, reason, true
}
