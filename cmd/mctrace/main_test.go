package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the real command: with MCTRACE_TEST_ARGS
// set, the test binary is mctrace with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MCTRACE_TEST_ARGS"); ok {
		os.Args = append([]string{"mctrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mctrace re-executes the test binary as mctrace and returns its exit
// code and combined output.
func mctrace(t *testing.T, args string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MCTRACE_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mctrace %s: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestStrayArgumentRejected pins that a stray positional token — almost
// always a misplaced flag — is refused like the other CLIs refuse it,
// not silently ignored.
func TestStrayArgumentRejected(t *testing.T) {
	code, out := mctrace(t, "-cpus 2 -ops 10 extra")
	if code != 1 || !strings.Contains(out, `unexpected argument "extra"`) {
		t.Fatalf("mctrace extra: exit %d, output:\n%s", code, out)
	}
}

// TestBadFlagValuesRejected pins that a value no stream machine can be
// built from is refused before anything is built: -think -1 used to
// wrap to 2^64-1 cycles of think time, a fraction outside [0,1] was
// taken as is, and an unknown pattern surfaced from inside the
// generator closure after the platform was wired.
func TestBadFlagValuesRejected(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
		want string
	}{
		{"-think -1", 2, `invalid value "-1" for flag -think`},
		{"-store 1.5", 1, "-store 1.5 is not a fraction"},
		{"-store -0.1", 1, "-store -0.1 is not a fraction"},
		{"-hot 2", 1, "-hot 2 is not a fraction"},
		{"-hot NaN", 1, "-hot NaN is not a fraction"},
		{"-pattern zigzag", 1, `unknown pattern "zigzag" (valid: uniform, hotspot, sparse, dense, rmw)`},
		{"-protocol mesi", 1, `unknown protocol "mesi"`},
		{"-cpus 0", 1, "bad CPU count 0 (need 1..64)"},
		{"-cpus 65", 1, "bad CPU count 65 (need 1..64)"},
	} {
		if code, out := mctrace(t, c.args); code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("mctrace %s: exit %d, want %d and %q in:\n%s", c.args, code, c.code, c.want, out)
		}
	}
}

// TestEveryProtocolAndPatternRuns pins the accepted side: all four
// protocols core builds (MOESI used to be refused) and every stock
// pattern complete their references.
func TestEveryProtocolAndPatternRuns(t *testing.T) {
	for _, args := range []string{
		"-protocol wti -pattern uniform", "-protocol wtu -pattern hotspot",
		"-protocol wb -pattern sparse", "-protocol moesi -pattern dense", "-protocol moesi -pattern rmw",
	} {
		code, out := mctrace(t, args+" -cpus 2 -ops 50 -think 0")
		if code != 0 || !strings.Contains(out, "cpus=2 ops=100\n") {
			t.Errorf("mctrace %s: exit %d, output:\n%s", args, code, out)
		}
	}
}
