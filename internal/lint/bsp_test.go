package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// bspFindings runs all analyzers over testdata/bspmod and returns
// "<base-file>:<line>:<analyzer>" strings.
func bspFindings(t *testing.T) ([]string, []Finding) {
	t.Helper()
	findings, err := Run(filepath.Join("testdata", "bspmod"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, filepath.Base(f.Pos.Filename)+":"+itoa(f.Pos.Line)+":"+f.Analyzer)
	}
	return got, findings
}

// TestBSPFixtureFindings pins the exact firing set of hotalloc and the
// directive hygiene checks over the bspmod fixture.
func TestBSPFixtureFindings(t *testing.T) {
	want := []string{
		"allow.go:16:directive", // //lint:allow without a reason
		"allow.go:21:directive", // //lint:allow with an unknown analyzer
		"hot.go:34:hotalloc",    // make in Grow
		"hot.go:40:hotalloc",    // fmt call reached from Grow
		"hot.go:45:hotalloc",    // closure in Drain
		"hot.go:47:hotalloc",    // new in Drain
		"hot.go:49:hotalloc",    // string concat in Drain
		"hot.go:52:hotalloc",    // interface-assignment boxing in Drain
		"hot.go:54:hotalloc",    // &composite literal in Drain
		"hot.go:62:hotalloc",    // interface-argument boxing in Report
		"hot.go:86:hotalloc",    // fmt call in Check's clause that returns normally
	}
	got, _ := bspFindings(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n got %v\nwant %v", got, want)
	}
}

// TestBSPFixtureNegatives spells out what must NOT fire: allocations
// off the hot set, allowlisted appends, suppressed findings.
func TestBSPFixtureNegatives(t *testing.T) {
	got, _ := bspFindings(t)
	for _, f := range got {
		for _, banned := range []string{
			"hot.go:17:",               // allocation-free Lookup
			"hot.go:27:",               // Push's append is allowlisted
			"hot.go:70:", "hot.go:71:", // coldPath is not hot-reachable
			"hot.go:79:", "hot.go:83:", // Check's block and clause that end in panic are cold
			"allow.go:10:", // suppressed by //lint:allow with a reason
		} {
			if strings.HasPrefix(f, banned) {
				t.Errorf("false positive: %s", f)
			}
		}
	}
}

// TestBSPFixtureMessages checks hotalloc findings carry the
// remediation context that makes them actionable.
func TestBSPFixtureMessages(t *testing.T) {
	_, findings := bspFindings(t)
	var sawAllowHint bool
	for _, f := range findings {
		if f.Analyzer == "hotalloc" && strings.Contains(f.Message, "hotalloc.allow") {
			sawAllowHint = true
		}
	}
	if !sawAllowHint {
		t.Error("no hotalloc finding points at hotalloc.allow")
	}
}

// TestHotallocAllowlistHygiene copies bspmod into a temp dir, corrupts
// its allowlist with a stale and a reasonless entry, and expects both
// to surface as findings while valid suppression keeps working.
func TestHotallocAllowlistHygiene(t *testing.T) {
	dir := copyModule(t, filepath.Join("testdata", "bspmod"))
	allowPath := filepath.Join(dir, "hotalloc.allow")
	extra := "(*repro/internal/sim.ring).Gone make — this function no longer exists\n" +
		"(*repro/internal/sim.ring).Grow make\n"
	appendFile(t, allowPath, extra)

	findings, err := Run(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sawStale, sawNoReason, sawPushAppend bool
	for _, f := range findings {
		if f.Analyzer != "hotalloc" {
			continue
		}
		if strings.Contains(f.Message, "stale allowlist entry") && strings.Contains(f.Message, "Gone") {
			sawStale = true
		}
		if strings.Contains(f.Message, "has no reason") && strings.Contains(f.Message, "Grow") {
			sawNoReason = true
		}
		if strings.Contains(f.Message, "Push") {
			sawPushAppend = true
		}
	}
	if !sawStale {
		t.Error("stale allowlist entry not reported")
	}
	if !sawNoReason {
		t.Error("reasonless allowlist entry not reported")
	}
	if sawPushAppend {
		t.Error("valid allowlist entry stopped suppressing Push's append")
	}
}

func TestParseAllow(t *testing.T) {
	for _, c := range []struct {
		in, analyzer, reason string
		ok                   bool
	}{
		{"//lint:allow maprange — order-independent sum", "maprange", "order-independent sum", true},
		{"//lint:allow maprange order-independent sum", "maprange", "order-independent sum", true},
		{"//lint:allow maprange", "maprange", "", true},
		{"//lint:allow", "", "", true},
		{"//lint:allowmaprange", "", "", false},
		{"// lint:allow maprange", "", "", false},
		{"// regular comment", "", "", false},
	} {
		analyzer, reason, ok := parseAllow(c.in)
		if analyzer != c.analyzer || reason != c.reason || ok != c.ok {
			t.Errorf("parseAllow(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.in, analyzer, reason, ok, c.analyzer, c.reason, c.ok)
		}
	}
}

// copyModule clones a fixture module into a temp dir so a test can
// mutate it.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

func appendFile(t *testing.T, path, text string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, text...), 0o644); err != nil {
		t.Fatal(err)
	}
}
