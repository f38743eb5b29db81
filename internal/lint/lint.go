// Package lint implements the repository's custom static analyzers.
// They enforce the property every result in this study depends on:
// *the simulator is a deterministic function of its configuration and
// seed*. Two runs with the same flags must produce bit-identical
// statistics, and the model checker's replay-based search is only sound
// if re-running a choice path reproduces the same state.
//
// Per-package analyzers (scoped to the simulation packages listed in
// DeterminismPackages unless noted):
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
//   - exhaustive: module-wide; a switch over coherence.LineState must
//     either have a default clause or cover every protocol state
//     (Shared, Owned, Exclusive, Modified) so adding a state revisits
//     every transition decision. Invalid is exempt: hit-guarded
//     switches legitimately never see it.
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
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// DeterminismPackages are the import paths whose behaviour feeds
// simulation results; the determinism analyzers apply only here.
// Workload generators (internal/trace) pass globalrand because they
// draw from explicitly seeded rand.New(rand.NewSource(seed))
// generators, which the analyzer permits.
var DeterminismPackages = []string{
	"repro/internal/sim",
	"repro/internal/coherence",
	"repro/internal/noc",
	"repro/internal/cpu",
	"repro/internal/mem",
	"repro/internal/core",
	"repro/internal/trace",
	"repro/internal/modelcheck",
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

// analyzer inspects one typechecked package and reports findings.
type analyzer interface {
	name() string
	doc() string
	check(p *pkg, report func(pos token.Pos, msg string))
}

// moduleAnalyzer inspects the whole module at once (it needs the
// cross-package call graph) and returns its findings directly.
type moduleAnalyzer interface {
	name() string
	doc() string
	checkModule(m *module) []Finding
}

// pkgAnalyzers and modAnalyzers together are the roster, in the order
// -list prints them.
var pkgAnalyzers = []analyzer{walltime{}, globalrand{}, maprange{}, exhaustive{}}
var modAnalyzers = []moduleAnalyzer{hotalloc{}}

// AnalyzerInfo names one analyzer for the -list roster.
type AnalyzerInfo struct {
	Name string
	Doc  string
}

// Roster returns every selectable analyzer with its one-line doc, in
// display order. (The framework-level "directive" hygiene findings are
// always on and not selectable.)
func Roster() []AnalyzerInfo {
	var out []AnalyzerInfo
	for _, a := range pkgAnalyzers {
		out = append(out, AnalyzerInfo{Name: a.name(), Doc: a.doc()})
	}
	for _, a := range modAnalyzers {
		out = append(out, AnalyzerInfo{Name: a.name(), Doc: a.doc()})
	}
	return out
}

// Options controls a Run.
type Options struct {
	// Only restricts the run to the named analyzers. Empty means all.
	// Unknown names are an error (the CLI turns it into exit 2).
	Only []string
}

// RunOpts loads every package of the module rooted at dir, typechecks
// it, and runs the selected analyzers (all, when opts names none).
// Findings come back sorted by position. Test files are analyzed too: a
// nondeterministic test is a flaky test.
func RunOpts(dir string, opts Options) ([]Finding, error) {
	selected, err := selectAnalyzers(opts.Only)
	if err != nil {
		return nil, err
	}
	pkgs, fset, dirs, err := loadModule(dir)
	if err != nil {
		return nil, err
	}
	determinism := make(map[string]bool, len(DeterminismPackages))
	for _, p := range DeterminismPackages {
		determinism[p] = true
	}
	var findings []Finding
	for _, p := range pkgs {
		p.determinismScoped = determinism[p.importPath]
		for _, a := range pkgAnalyzers {
			if !selected[a.name()] {
				continue
			}
			a := a
			a.check(p, func(pos token.Pos, msg string) {
				position := fset.Position(pos)
				if dirs.suppressed(a.name(), position) {
					return
				}
				findings = append(findings, Finding{Pos: position, Analyzer: a.name(), Message: msg})
			})
		}
	}
	if anySelected(selected, modAnalyzers) {
		m := buildModule(dir, fset, pkgs)
		for _, a := range modAnalyzers {
			if !selected[a.name()] {
				continue
			}
			for _, f := range a.checkModule(m) {
				if dirs.suppressed(a.name(), f.Pos) {
					continue
				}
				findings = append(findings, f)
			}
		}
	}
	// Directive hygiene runs only on full runs so `-only globalrand`
	// answers exactly the question it was asked.
	if len(opts.Only) == 0 {
		findings = append(findings, dirs.hygieneFindings()...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// selectAnalyzers resolves an -only list against the roster, rejecting
// unknown names.
func selectAnalyzers(only []string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, info := range Roster() {
		known[info.Name] = true
	}
	if len(only) == 0 {
		return known, nil
	}
	selected := map[string]bool{}
	for _, name := range only {
		if !known[name] {
			var names []string
			for _, info := range Roster() {
				names = append(names, info.Name)
			}
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", name, strings.Join(names, ", "))
		}
		selected[name] = true
	}
	return selected, nil
}

func anySelected(selected map[string]bool, as []moduleAnalyzer) bool {
	for _, a := range as {
		if selected[a.name()] {
			return true
		}
	}
	return false
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
	known  map[string]bool // analyzer names, for hygiene checks
}

func newDirectives() *directives {
	d := &directives{byFile: map[string][]allowDirective{}, known: map[string]bool{}}
	for _, info := range Roster() {
		d.known[info.Name] = true
	}
	return d
}

func (d *directives) add(a allowDirective) {
	d.byFile[a.pos.Filename] = append(d.byFile[a.pos.Filename], a)
}

// suppressed reports whether a directive for the analyzer appears on
// the finding's line or the line directly above it. A //lint:allow
// without a reason does not suppress — the reason is the audit trail.
func (d *directives) suppressed(analyzer string, pos token.Position) bool {
	for _, a := range d.byFile[pos.Filename] {
		if a.analyzer == analyzer && a.reason != "" && (a.line() == pos.Line || a.line() == pos.Line-1) {
			return true
		}
	}
	return false
}

func (a allowDirective) line() int { return a.pos.Line }

// hygieneFindings reports malformed //lint:allow directives: a missing
// reason (the directive then suppresses nothing) or an unknown analyzer
// name (usually a typo that silently disarms the suppression).
func (d *directives) hygieneFindings() []Finding {
	var out []Finding
	for _, as := range d.byFile { //lint:allow maprange — findings are sorted by the caller
		for _, a := range as {
			switch {
			case !d.known[a.analyzer]:
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
