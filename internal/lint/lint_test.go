package lint

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixtureFindings runs the analyzers over the fixture module and
// returns findings as "<base-file>:<line>:<analyzer>" strings.
func fixtureFindings(t *testing.T) []string {
	t.Helper()
	findings, err := Run(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, filepath.Base(f.Pos.Filename)+":"+itoa(f.Pos.Line)+":"+f.Analyzer)
	}
	return got
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestFixtureFindings(t *testing.T) {
	want := []string{
		"plan.go:8:walltime",   // time.Now in internal/fault, in scope by rule
		"bad.go:12:walltime",   // time.Now
		"bad.go:13:walltime",   // time.Since
		"bad.go:18:globalrand", // rand.Intn on the global generator
		"bad.go:28:maprange",   // unsorted map range
	}
	got := fixtureFindings(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n got %v\nwant %v", got, want)
	}
}

// TestFixtureAllowedForms spells out what must NOT be flagged: seeded
// generators, slice ranges, suppressed map ranges, wall clock outside
// the determinism scope.
func TestFixtureAllowedForms(t *testing.T) {
	got := fixtureFindings(t)
	for _, f := range got {
		for _, banned := range []string{
			"bad.go:22",                // rand.New(rand.NewSource(seed))
			"bad.go:32",                // suppressed map range
			"bad.go:35",                // slice range
			"bad.go:46",                // suppressed key-collection loop
			"bad.go:56",                // range over sortedKeys(m): a slice
			"main.go:12", "main.go:14", // wall clock + map range outside internal/
			"prof.go:10", // wall clock in internal/obs/prof
		} {
			if strings.HasPrefix(f, strings.SplitN(banned, ":", 2)[0]+":"+strings.SplitN(banned, ":", 2)[1]+":") {
				t.Errorf("false positive: %s", f)
			}
		}
	}
}

// TestFixtureMessages checks the findings carry actionable advice.
func TestFixtureMessages(t *testing.T) {
	findings, err := Run(filepath.Join("testdata", "badmod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		switch f.Analyzer {
		case "maprange":
			if !strings.Contains(f.Message, "//lint:allow maprange") {
				t.Errorf("maprange message lacks the suppression hint: %s", f.Message)
			}
		case "globalrand":
			if !strings.Contains(f.Message, "NewSource") {
				t.Errorf("globalrand message lacks the seeded-generator hint: %s", f.Message)
			}
		}
	}
}

// TestFindingsSorted verifies the deterministic output order the
// analyzers themselves demand of the simulator.
func TestFindingsSorted(t *testing.T) {
	a := fixtureFindings(t)
	b := fixtureFindings(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%v\n%v", a, b)
	}
}

// TestRepositoryIsClean gates the repo on its own analyzers: the tree
// that ships this test must have zero findings.
func TestRepositoryIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	// go list reads the module's directories in its own process, out of
	// the test cache's sight. Opening every package directory and its
	// ancestors here puts their listings into the cache key, so a cached
	// pass cannot outlive a newly added file or package.
	cmd := exec.Command("go", "list", "-e", "-tags", "soak", "-f", "{{.Dir}}", "./...")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		for ; strings.HasPrefix(dir, root); dir = filepath.Dir(dir) {
			if _, err := os.ReadDir(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
}
