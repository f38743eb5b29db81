package lint

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestTagmodConstraints is the regression test for the loader's former
// build-constraint blindness: tagmod declares the same symbols in a
// soak-tagged file (included — soak is in ExtraBuildTags), a
// falsetag-tagged file and a !soak file (both excluded), plus a
// _linux/_windows filename pair. The module only typechecks — and only
// the enabled file's finding is reported — if constraints are
// evaluated the way the go tool does.
func TestTagmodConstraints(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "tagmod"))
	if err != nil {
		t.Fatalf("tagmod does not load; constraint evaluation is broken: %v", err)
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
