package lint

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestTagmodConstraints holds the loader to the go tool's file set.
// tagmod declares the same symbols in a soak-tagged file (included —
// the module is listed with -tags soak), a falsetag-tagged file and a
// !soak file (both excluded), plus a _linux/_windows filename pair. It
// also carries two directories `go build ./...` never compiles: a
// _-prefixed internal/sim/_scratch holding a type error, and a nested
// module at internal/nested whose package imports other/a, a path only
// that module resolves. The module only loads — and only the enabled
// file's finding is reported — if every one of those decisions is the
// go tool's.
func TestTagmodConstraints(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "tagmod"))
	if err != nil {
		t.Fatalf("tagmod does not load; the loader analyzes files the build does not: %v", err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, filepath.Base(f.Pos.Filename)+":"+itoa(f.Pos.Line)+":"+f.Analyzer)
	}
	want := []string{"on_soak.go:11:walltime"} // the soak-tagged wall-clock read, nothing else
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n got %v\nwant %v", got, want)
	}
}
