package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestStrayArgumentRejected pins that a stray positional token — almost
// always a misplaced flag — is refused like the other CLIs refuse it,
// not silently ignored: the test re-executes itself as mctrace.
func TestStrayArgumentRejected(t *testing.T) {
	if os.Getenv("MCTRACE_TEST_RUN_MAIN") == "1" {
		os.Args = []string{"mctrace", "-cpus", "2", "-ops", "10", "extra"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStrayArgumentRejected$")
	cmd.Env = append(os.Environ(), "MCTRACE_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState.ExitCode() != 1 || !strings.Contains(string(out), `unexpected argument "extra"`) {
		t.Fatalf("mctrace extra: err = %v, output:\n%s", err, out)
	}
}
