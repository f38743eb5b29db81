package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/obs/prof"
)

func TestRejectPositional(t *testing.T) {
	if err := prof.RejectPositional(nil); err != nil {
		t.Errorf("no leftover args: %v", err)
	}
	// A forgotten flag value (`mcsim -fault -cpus 4`) leaves later
	// tokens positional; they must be refused, not silently ignored.
	for _, args := range [][]string{{"ocean"}, {"-cpus"}, {"4", "-v"}} {
		if err := prof.RejectPositional(args); err == nil {
			t.Errorf("RejectPositional(%q) = nil, want error", args)
		}
	}
}

// TestMain lets a test re-execute this binary as mcsim itself: with
// MCSIM_TEST_ARGS set, it runs main on those arguments and exits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("MCSIM_TEST_ARGS"); ok {
		os.Args = append([]string{"mcsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs mcsim with args in a child process and returns its
// combined output and exit code.
func runMain(t *testing.T, args string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "MCSIM_TEST_ARGS="+args)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("mcsim %s: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestShardsFlagRejected pins that every removed option, -shards the
// first of them, is an unknown flag, not a silently accepted no-op: the
// flag package's usage exit.
func TestShardsFlagRejected(t *testing.T) {
	for _, c := range []struct{ flag, value string }{
		{"-shards", "2"},
		{"-resources", "25ms"},
		{"-resources-csv", "x.csv"},
		{"-pprof-http", "localhost:0"},
		// The text message log: -obs-trace carries every injection.
		{"-trace", "10"},
		{"-trace-rx", ""},
		// The open-page DRAM model: every bank costs MemLatency.
		{"-rowbytes", "1024"},
	} {
		out, code := runMain(t, "-bench counter -cpus 2 -incs 5 "+c.flag+" "+c.value)
		if code != 2 || !strings.Contains(out, "flag provided but not defined: "+c.flag) {
			t.Errorf("mcsim %s %s: exit %d, output:\n%s", c.flag, c.value, code, out)
		}
	}
}

// TestProfilingDoesNotPerturbRun is the determinism pin for host-side
// measurement, the profiling counterpart of core's
// TestObserverDoesNotPerturbRun: -json output must be byte-identical
// with and without both profiles, and both profiles must be written.
func TestProfilingDoesNotPerturbRun(t *testing.T) {
	const run = "-bench counter -cpus 2 -incs 5 -json"
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	plain, code := runMain(t, run)
	if code != 0 {
		t.Fatalf("mcsim %s: exit %d, output:\n%s", run, code, plain)
	}
	profiled, code := runMain(t, run+" -cpuprofile "+cpu+" -memprofile "+mem)
	if code != 0 || profiled != plain {
		t.Fatalf("mcsim %s with profiles: exit %d, output differs:\n%s\nvs\n%s", run, code, profiled, plain)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (err %v)", p, err)
		}
	}
}

// TestBadFlagValuesRejected pins that a value no machine can be built
// from is refused up front with a one-line error and exit 1 — not a
// goroutine trace from the workload generator (-cpus 0 used to reach
// codegen.NewRuntime) and not a silent fallback (-noc foo used to
// simulate the GMN).
func TestBadFlagValuesRejected(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-cpus 0", "bad CPU count 0 (need 1..64)"},
		{"-cpus -1", "bad CPU count -1 (need 1..64)"},
		{"-cpus 65", "bad CPU count 65 (need 1..64)"},
		{"-bench counter -cpus 2 -noc foo", `unknown noc "foo"`},
		{"-bench counter -cpus 2 -protocol mesi", `unknown protocol "mesi"`},
		// -json used to return before the -v tables, dropping them.
		{"-bench counter -cpus 2 -json -v", "-v prints tables; it does nothing with -json"},
		// The heap profile file is created before the run, not after it.
		{"-bench counter -cpus 2 -memprofile /no/such/dir/mem.pprof", "prof: open /no/such/dir/mem.pprof: "},
		// The default -ways 1 is the grid's point: no /ways=1 in its key.
		{"-bench counter -cpus 2 -fault bogus", "exp: counter/WTI/arch2/n2/fault=bogus: "},
		{"-bench counter -cpus 2 -ways 2 -fault bogus", "exp: counter/WTI/arch2/n2/ways=2/fault=bogus: "},
		// -bench names a program or a stream; the error lists both.
		{"-bench zigzag", `exp: no program called "zigzag" (programs: ocean, water, lu, counter; streams: sparse, rmw, prodcons, uniform, hotspot, dense)`},
		// A program-size flag the bench does not read used to be ignored.
		{"-bench ocean -cpus 2 -incs 5", "-incs sizes counter; it does nothing with -bench ocean"},
		{"-bench hotspot -cpus 2 -rows 9", "-rows sizes ocean; it does nothing with -bench hotspot"},
		{"-bench counter -cpus 2 -lurows 2", "-lurows sizes lu; it does nothing with -bench counter"},
	} {
		wantOneLineError(t, c.args, c.want)
	}
}

// wantOneLineError checks that mcsim args exits 1 with want on its one
// line of output.
func wantOneLineError(t *testing.T, args, want string) {
	t.Helper()
	out, code := runMain(t, args)
	if code != 1 || !strings.Contains(out, want) || strings.Count(out, "\n") != 1 {
		t.Errorf("mcsim %s: exit %d, want 1 and the one line %q; output:\n%s", args, code, want, out)
	}
}

// TestStreamBenchBadFlagValuesRejected pins that a stream machine, like
// a program's, is refused before its generators are built when no
// machine can be built from the values.
func TestStreamBenchBadFlagValuesRejected(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-bench hotspot -cpus 0", "bad CPU count 0 (need 1..64)"},
		{"-bench sparse -cpus 65", "bad CPU count 65 (need 1..64)"},
		{"-bench uniform -cpus 2 -protocol mesi", `unknown protocol "mesi"`},
		{"-bench dense -cpus 2 -noc foo", `unknown noc "foo"`},
	} {
		wantOneLineError(t, c.args, c.want)
	}
}

// TestStreamBenchStrayArgumentRejected pins that a stray positional
// token after a stream bench is refused, not silently ignored.
func TestStreamBenchStrayArgumentRejected(t *testing.T) {
	wantOneLineError(t, "-bench rmw -cpus 2 extra", `unexpected argument "extra"`)
}

// TestEngineLineReportsPerLayerSkips pins the stderr diagnostic: one
// run says how many of its cycles, drain included, were leaped, per layer
// what share of its ticks the wake contract skipped and how many
// NextWake questions that took, then how many of the run's instructions
// the cores retired ahead of the clock and in how many bursts (the bus
// looks ahead 3 cycles), and how often and for how long they slept in a
// spin; the naive schedule skips nothing and says nothing.
func TestEngineLineReportsPerLayerSkips(t *testing.T) {
	const run = "-bench counter -cpus 4 -incs 5 -noc bus"
	out, code := runMain(t, run)
	line := regexp.MustCompile(`(?m)^engine: \d+ leaps skipped (\d+) of (\d+) cycles \([\d.]+%\); ` +
		`ticks skipped: cpus [\d.]+%, banks [\d.]+%, noc [\d.]+%; ` +
		`asked: cpus \d+, banks \d+, noc \d+ \([\d.]+ per executed cycle\); ` +
		`run ahead: (\d+) of (\d+) instr in (\d+) bursts, (\d+) spin sleeps of (\d+) cycles$`)
	m := line.FindStringSubmatch(out)
	if code != 0 || m == nil {
		t.Fatalf("mcsim %s: exit %d, no engine line in:\n%s", run, code, out)
	}
	var n [7]int
	for i := range n {
		n[i], _ = strconv.Atoi(m[i+1])
	}
	leaped, cycles, ahead, instr, bursts, sleeps, slept := n[0], n[1], n[2], n[3], n[4], n[5], n[6]
	if bursts == 0 || bursts > ahead || ahead >= instr || !strings.Contains(out, fmt.Sprintf(", %d instr\n", instr)) {
		t.Fatalf("mcsim %s: %d of %d instr in %d bursts does not add up in:\n%s", run, ahead, instr, bursts, out)
	}
	if leaped > cycles || sleeps == 0 || slept < sleeps || slept > 4*cycles {
		t.Fatalf("mcsim %s: %d of %d cycles leaped, %d spin sleeps of %d cycles do not add up in:\n%s", run, leaped, cycles, sleeps, slept, out)
	}
	if out, code := runMain(t, run+" -noleap"); code != 0 || strings.Contains(out, "engine:") {
		t.Fatalf("mcsim %s -noleap: exit %d, output:\n%s", run, code, out)
	}
}

// TestVerboseTablesShowEveryCounter pins that -v prints each per-unit
// stats struct as declared: its table is headed by exactly the struct's
// field names, in order, so a counter added to the struct shows without
// an edit here.
func TestVerboseTablesShowEveryCounter(t *testing.T) {
	const run = "-bench counter -cpus 2 -incs 5 -v"
	out, code := runMain(t, run)
	if code != 0 {
		t.Fatalf("mcsim %s: exit %d, output:\n%s", run, code, out)
	}
	lines := strings.Split(out, "\n")
	for _, c := range []struct {
		title string
		typ   reflect.Type
	}{
		{"per-CPU", reflect.TypeFor[cpu.Stats]()},
		{"per-dcache", reflect.TypeFor[coherence.DCacheStats]()},
		{"per-bank", reflect.TypeFor[coherence.MemStats]()},
	} {
		var want []string
		for _, f := range reflect.VisibleFields(c.typ) {
			want = append(want, f.Name)
		}
		i := slices.Index(lines, "== "+c.title+" ==")
		if i < 0 || i+1 == len(lines) {
			t.Errorf("mcsim %s: no %s table in:\n%s", run, c.title, out)
		} else if got := strings.Fields(lines[i+1]); !slices.Equal(got, want) {
			t.Errorf("%s header %q, want the fields of %v %q", c.title, got, c.typ, want)
		}
	}
}

// TestStreamBenchRuns pins that a stream bench is a -bench like any
// program: its machine runs with every mcsim flag, and each completed
// reference counts as one instruction (prodcons: 4000 per CPU).
func TestStreamBenchRuns(t *testing.T) {
	const run = "-bench prodcons -cpus 2 -json"
	out, code := runMain(t, run)
	if code != 0 || !strings.Contains(out, `"instructions": 8000,`) {
		t.Fatalf("mcsim %s: exit %d, output:\n%s", run, code, out)
	}
}

// TestFaultPlanOutput pins what a fault plan adds to a run's output:
// -json's fault block, every counter of it live under a plan carrying
// every directive and its plan in canonical form, and the same counts in
// the text headline's [fault: ...] suffix. A run without -fault has
// neither.
func TestFaultPlanOutput(t *testing.T) {
	const run = "-bench counter -cpus 2 -incs 5"
	const plan = "seed=3,dup=0.02,bankstall=0.01:8,drop=0.02,delay=0.05:4"
	var got struct{ Fault map[string]any }
	out, code := runMain(t, run+" -json -fault "+plan)
	if err := json.Unmarshal([]byte(out), &got); code != 0 || err != nil {
		t.Fatalf("mcsim -json -fault: exit %d, %v, output:\n%s", code, err, out)
	}
	f := got.Fault
	if f["plan"] != "drop=0.02,delay=0.05:4,dup=0.02,bankstall=0.01:8,seed=3" {
		t.Errorf("plan %q, want the canonical spec", f["plan"])
	}
	for _, k := range []string{"drops", "retransmits", "backoff_cycles", "delayed", "delay_cycles",
		"dups", "dups_suppressed", "stall_windows", "stall_cycles"} {
		if v, ok := f[k].(float64); !ok || v == 0 {
			t.Errorf("fault block %s = %v, want a count above 0", k, f[k])
		}
	}
	if len(f) != 10 {
		t.Errorf("fault block has %d fields, want 10: %v", len(f), f)
	}
	text, code := runMain(t, run+" -fault "+plan)
	suffix := fmt.Sprintf(" [fault: drops=%v retx=%v delayed=%v dups=%v stalls=%v]",
		f["drops"], f["retransmits"], f["delayed"], f["dups"], f["stall_windows"])
	if headline, _, _ := strings.Cut(text, "\n"); code != 0 || !strings.HasSuffix(headline, suffix) {
		t.Errorf("mcsim -fault: exit %d, headline %q, want it to end %q", code, headline, suffix)
	}
	if out, _ := runMain(t, run+" -json"); strings.Contains(out, `"fault"`) {
		t.Errorf("mcsim -json without -fault has a fault block:\n%s", out)
	}
	if text, _ := runMain(t, run); strings.Contains(text, "[fault:") {
		t.Errorf("mcsim without -fault has a fault suffix:\n%s", text)
	}
}
