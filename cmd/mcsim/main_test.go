package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestRejectPositional(t *testing.T) {
	if err := rejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	// A forgotten flag value (`mcsim -fault -cpus 4`) leaves later
	// tokens positional; they must be refused, not silently ignored.
	for _, args := range [][]string{{"ocean"}, {"-cpus"}, {"4", "-v"}} {
		if err := rejectPositional(args); err == nil {
			t.Errorf("rejectPositional(%q) = nil, want error", args)
		}
	}
}

// TestShardsFlagRejected pins that the removed -shards option is an
// unknown flag, not a silently accepted no-op: the test re-executes
// itself as mcsim and expects the flag package's usage exit.
func TestShardsFlagRejected(t *testing.T) {
	if os.Getenv("MCSIM_TEST_RUN_MAIN") == "1" {
		os.Args = []string{"mcsim", "-bench", "counter", "-cpus", "2", "-incs", "5", "-shards", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardsFlagRejected$")
	cmd.Env = append(os.Environ(), "MCSIM_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Fatalf("mcsim -shards 2: err = %v, output:\n%s", err, out)
	}
}
