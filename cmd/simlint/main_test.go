package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = "../../internal/lint/testdata/bspmod"

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(t, "-C", fixture); code != 1 {
		t.Errorf("fixture with findings: exit %d, want 1", code)
	}
	if code, _, stderr := runCLI(t, "-C", "no/such/dir"); code != 2 {
		t.Errorf("bad dir: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if code, _, _ := runCLI(t, "-C", "../../internal/lint/testdata/tagmod",
		"-only", "maprange"); code != 0 {
		t.Errorf("clean restricted run: exit non-zero, want 0")
	}
}

func TestListRoster(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{"walltime", "globalrand", "maprange", "exhaustive", "hotalloc"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, stdout)
		}
	}
	if lines := strings.Count(strings.TrimSpace(stdout), "\n") + 1; lines != 5 {
		t.Errorf("-list printed %d lines, want 5:\n%s", lines, stdout)
	}
}

func TestOnlyUnknownName(t *testing.T) {
	code, _, stderr := runCLI(t, "-C", fixture, "-only", "nosuch")
	if code != 2 {
		t.Errorf("-only nosuch: exit %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown analyzer "nosuch"`) || !strings.Contains(stderr, "hotalloc") {
		t.Errorf("-only nosuch stderr should name the roster: %q", stderr)
	}
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", fixture, "-json", "-only", "hotalloc")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) != 9 {
		t.Fatalf("got %d findings, want 9: %+v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != "hotalloc" || filepath.Base(f.File) != "hot.go" || f.Line == 0 {
			t.Fatalf("unexpected finding: %+v", f)
		}
	}
}

func TestJSONEmptyArrayWhenClean(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", "../../internal/lint/testdata/tagmod",
		"-json", "-only", "maprange")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Fatalf("clean -json run should print an empty array, got %q", stdout)
	}
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "findings.json")
	code, stdout, _ := runCLI(t, "-C", fixture, "-json", "-o", path, "-only", "hotalloc")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stdout != "" {
		t.Errorf("-o should leave stdout empty, got %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var arr []map[string]any
	if err := json.Unmarshal(data, &arr); err != nil || len(arr) != 9 {
		t.Fatalf("file content bad (err %v): %s", err, data)
	}
}

func TestAnnotations(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", fixture, "-annotate", "-o", os.DevNull, "-only", "hotalloc")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "::error file=") || !strings.Contains(stdout, ",line=") {
		t.Errorf("-annotate output lacks workflow commands:\n%s", stdout)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.HasPrefix(line, "::error file=") {
			t.Errorf("stray non-annotation line on stdout with -o set: %q", line)
		}
	}
}

// TestPathsFollowC runs from the repository root, as CI does: every
// finding's file, in -json and in the -annotate lines, is the -C
// argument joined with the file's path inside the module — relative, so
// the annotations land on the diff.
func TestPathsFollowC(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	const dir = "internal/lint/testdata/badmod"

	code, stdout, _ := runCLI(t, "-json", "-C", dir)
	if code != 1 {
		t.Fatalf("-json: exit %d, want 1", code)
	}
	var findings []struct {
		File string `json:"file"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("-json output does not parse: %v\n%s", err, stdout)
	}
	if len(findings) != 7 {
		t.Fatalf("got %d findings, want 7: %+v", len(findings), findings)
	}
	code, stdout, _ = runCLI(t, "-annotate", "-o", os.DevNull, "-C", dir)
	if code != 1 {
		t.Fatalf("-annotate: exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != len(findings) {
		t.Fatalf("%d annotation lines for %d findings:\n%s", len(lines), len(findings), stdout)
	}
	for i, f := range findings {
		if !strings.HasPrefix(f.File, dir+"/") {
			t.Errorf("finding file %q does not begin with %s/", f.File, dir)
		}
		if want := "::error file=" + f.File + ",line="; !strings.HasPrefix(lines[i], want) {
			t.Errorf("annotation %q does not begin with %q", lines[i], want)
		}
	}
}

func TestAnnotationEscaping(t *testing.T) {
	got := escapeData("50% of a\nmulti-line message")
	if strings.ContainsAny(got, "\n") || !strings.Contains(got, "%25") || !strings.Contains(got, "%0A") {
		t.Errorf("escapeData broken: %q", got)
	}
}
