package main

import (
	"bytes"
	"os"
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

// findingLines splits simlint's stdout into its findings, one per line.
func findingLines(stdout string) []string {
	if stdout = strings.TrimSpace(stdout); stdout == "" {
		return nil
	}
	return strings.Split(stdout, "\n")
}

func TestExitCodes(t *testing.T) {
	if code, _, _ := runCLI(t, "-C", fixture); code != 1 {
		t.Errorf("fixture with findings: exit %d, want 1", code)
	}
	if code, _, stderr := runCLI(t, "-C", "no/such/dir"); code != 2 {
		t.Errorf("bad dir: exit %d, want 2 (stderr %q)", code, stderr)
	}
	if code, stdout, _ := runCLI(t, "-C", "../../internal/lint/testdata/tagmod",
		"-only", "maprange"); code != 0 || stdout != "" {
		t.Errorf("clean restricted run: exit %d, stdout %q; want 0 and nothing", code, stdout)
	}
}

// TestOnlyKeepsOneAnalyzer: -only keeps that analyzer's findings alone,
// one line each.
func TestOnlyKeepsOneAnalyzer(t *testing.T) {
	code, stdout, _ := runCLI(t, "-C", fixture, "-only", "hotalloc")
	lines := findingLines(stdout)
	if code != 1 || len(lines) != 9 {
		t.Fatalf("-only hotalloc: exit %d, %d findings, want 1 and 9:\n%s", code, len(lines), stdout)
	}
	for _, l := range lines {
		if !strings.Contains(l, "/hot.go:") || !strings.Contains(l, ": [hotalloc] ") {
			t.Errorf("unexpected finding: %q", l)
		}
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

// TestPathsFollowC runs from the repository root, as CI does: every
// finding's file is the -C argument joined with the file's path inside
// the module.
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

	code, stdout, _ := runCLI(t, "-C", dir)
	lines := findingLines(stdout)
	if code != 1 || len(lines) != 7 {
		t.Fatalf("exit %d, %d findings, want 1 and 7:\n%s", code, len(lines), stdout)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, dir+"/") {
			t.Errorf("finding %q does not begin with %s/", l, dir)
		}
	}
}
