package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

func TestParseSizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"4,16,32,64", []int{4, 16, 32, 64}},
		{"16", []int{16}},
		{" 8 , 2 ", []int{2, 8}},
		// Duplicates collapse and the axis is sorted, so the grid and
		// the figure tables contain each CPU count exactly once.
		{"16,4,16", []int{4, 16}},
		{"64,32,16,4,4", []int{4, 16, 32, 64}},
	}
	for _, c := range cases {
		got, err := parseSizes(c.in)
		if err != nil {
			t.Errorf("parseSizes(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseSizes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseSizesRejectsBadInput(t *testing.T) {
	for _, in := range []string{"", "0", "65", "-4", "four", "4,,8", "4;8"} {
		if got, err := parseSizes(in); err == nil {
			t.Errorf("parseSizes(%q) = %v, want error", in, got)
		}
	}
}

func TestRejectPositional(t *testing.T) {
	if err := rejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	for _, args := range [][]string{{"fig4"}, {"-quick"}, {"4,16"}} {
		if err := rejectPositional(args); err == nil {
			t.Errorf("rejectPositional(%q) = nil, want error", args)
		}
	}
}

// A flag token leaking into the -sizes value (e.g. `-sizes -quick` with
// the intended axis forgotten) must be called out as a misplaced flag,
// not reported as a generic bad count.
func TestParseSizesRejectsFlagTokens(t *testing.T) {
	for _, in := range []string{"-quick", "4,-jobs", "-exp", "-sizes", "--chart,8"} {
		got, err := parseSizes(in)
		if err == nil {
			t.Errorf("parseSizes(%q) = %v, want error", in, got)
			continue
		}
		if !strings.Contains(err.Error(), "looks like a flag") {
			t.Errorf("parseSizes(%q) error %q does not identify the token as a flag", in, err)
		}
	}
}

// TestShardsFlagRejected pins that the removed -shards option is an
// unknown flag, not a silently accepted no-op: the test re-executes
// itself as sweep and expects the flag package's usage exit.
func TestShardsFlagRejected(t *testing.T) {
	if os.Getenv("SWEEP_TEST_RUN_MAIN") == "1" {
		os.Args = []string{"sweep", "-exp", "table2", "-shards", "2"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardsFlagRejected$")
	cmd.Env = append(os.Environ(), "SWEEP_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -shards") {
		t.Fatalf("sweep -shards 2: err = %v, output:\n%s", err, out)
	}
}
