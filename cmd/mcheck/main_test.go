package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the real command: with MCHECK_TEST_ARGS
// set, the test binary is mcheck with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MCHECK_TEST_ARGS"); ok {
		os.Args = append([]string{"mcheck"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestExitCodes pins the three outcomes a caller (make mcheck, CI)
// tells apart: 0 = no violation, 1 = a violation was found and
// reported, 2 = the invocation was refused before anything ran.
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args string
		code int
		want string
	}{
		{"-protocol wti -swap=false -max-states 200", 0, "bounded at 200 states"},
		{"-protocol mesi -swap=false -max-states 50", 0, "mcheck WB:"},
		{"-protocol wti -swap=false -fault drop-inval", 1, "FAIL [deadlock]"},
		{"-protocol nope", 2, `unknown -protocol "nope" (valid: wti|wtu|wb|moesi|both|all)`},
		// A stray token used to be ignored (mcheck wti checked "both"),
		// and -addrs 0 silently became one address.
		{"wti", 2, `unexpected argument "wti"`},
		{"-addrs 0", 2, "-addrs 0: need at least one scoped word"},
		// Scopes the encodings cannot hold used to be explored wrongly:
		// 17^4 joint choices taken modulo 65536, a 17th written value
		// lost from its 16-bit ghost set.
		{"-protocol wti -cpus 4 -addrs 4 -ops 1 -max-states 20000", 2, "a choice holds at most 65536"},
		{"-protocol wti -swap=false -ops 1 -vals 1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17", 2, "a ghost set holds at most 16"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "MCHECK_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			t.Fatalf("mcheck %s: %v", c.args, err)
		}
		if code := cmd.ProcessState.ExitCode(); code != c.code || !strings.Contains(string(out), c.want) {
			t.Errorf("mcheck %s: exit %d, want %d and %q; output:\n%s", c.args, code, c.code, c.want, out)
		}
	}
}
