package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/obs/prof"
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
	if err := prof.RejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	for _, args := range [][]string{{"fig4"}, {"-quick"}, {"4,16"}} {
		if err := prof.RejectPositional(args); err == nil {
			t.Errorf("RejectPositional(%q) = nil, want error", args)
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

// TestMain lets a test run the real command: with SWEEP_TEST_ARGS set,
// the test binary is sweep with those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SWEEP_TEST_ARGS"); ok {
		os.Args = append([]string{"sweep"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweep re-executes the test binary as sweep and returns its exit code
// and combined output.
func sweep(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SWEEP_TEST_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("sweep %v: %v", args, err)
	return 0, ""
}

// TestShardsFlagRejected pins that every removed option, -shards the
// first of them, is an unknown flag, not a silently accepted no-op.
func TestShardsFlagRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-shards", "2"},
		{"-resources", "25ms"},
		{"-pprof-http", "localhost:0"},
	} {
		code, out := sweep(t, "-exp", "table2", c.flag, c.value)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+c.flag) {
			t.Errorf("sweep %s %s: exit %d, output:\n%s", c.flag, c.value, code, out)
		}
	}
}

// TestIgnoredFlagsRejected pins that a flag the selected experiment
// would not read is refused by name instead of silently dropped, and
// that an unknown experiment is answered with the table's names.
func TestIgnoredFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "table2", "-fault", "drop=0.01,seed=7"}, "-fault"},
		{[]string{"-exp", "all", "-fault", "drop=0.01,seed=7"}, "-fault"},
		{[]string{"-exp", "table2", "-obs-interval", "1000"}, "-obs-interval"},
		{[]string{"-exp", "table2", "-obs-interval", "1000", "-obs-dir", dir}, "-obs-interval"},
		{[]string{"-exp", "table1", "-obs-interval", "1000", "-obs-dir", dir}, "-obs-dir"},
		{[]string{"-exp", "fig4", "-obs-dir", dir}, "-obs-dir requires -obs-interval"},
		{[]string{"-exp", "nosuch"}, strings.Join(exp.Names(), ", ")},
	} {
		code, out := sweep(t, c.args...)
		if code != 2 || !strings.Contains(out, c.want) {
			t.Errorf("sweep %v: exit %d, want 2 and %q in:\n%s", c.args, code, c.want, out)
		}
	}
}

// TestObserveCoversEveryExperiment pins that -obs-interval/-obs-dir
// reach the points of a non-grid experiment — stream benches included,
// which used to exit 0 having written nothing — one CSV per point,
// named by keys that differ.
func TestObserveCoversEveryExperiment(t *testing.T) {
	for _, c := range []struct {
		exp  string
		want []string
	}{
		{"strictsc", []string{
			"ocean_WTI_arch2_n16.csv", "ocean_WTI_arch2_n16_strictsc.csv",
			"water_WTI_arch2_n16.csv", "water_WTI_arch2_n16_strictsc.csv",
		}},
		{"bestworst", []string{
			"rmw_WB_arch2_n16.csv", "rmw_WTI_arch2_n16.csv",
			"sparse_WB_arch2_n16.csv", "sparse_WTI_arch2_n16.csv",
		}},
	} {
		dir := t.TempDir()
		if code, out := sweep(t, "-exp", c.exp, "-quick", "-obs-interval", "1000", "-obs-dir", dir); code != 0 {
			t.Fatalf("%s: exit %d:\n%s", c.exp, code, out)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, f := range files {
			names = append(names, filepath.Base(f))
			// The probes average over the CPUs; a machine without
			// interpreters must not make that a division by zero.
			if data, err := os.ReadFile(f); err != nil || strings.Contains(string(data), "NaN") || strings.Contains(string(data), "Inf") {
				t.Errorf("%s: unreadable or non-finite samples (err %v)", f, err)
			}
		}
		if !reflect.DeepEqual(names, c.want) {
			t.Errorf("%s: obs files = %v, want %v", c.exp, names, c.want)
		}
	}
}
