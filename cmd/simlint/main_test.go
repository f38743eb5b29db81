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
	// Every analyzer runs on every invocation: there is no flag to
	// list or select them.
	for _, flag := range [][]string{{"-list"}, {"-only", "hotalloc"}} {
		code, stdout, stderr := runCLI(t, append([]string{"-C", fixture}, flag...)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined: "+flag[0]) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2 and an undefined-flag error", flag, code, stdout, stderr)
		}
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
	if code != 1 || len(lines) != 5 {
		t.Fatalf("exit %d, %d findings, want 1 and 5:\n%s", code, len(lines), stdout)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, dir+"/") {
			t.Errorf("finding %q does not begin with %s/", l, dir)
		}
	}
}
