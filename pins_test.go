package repro

// Pinned runs: every command line whose output the repository holds
// fixed, in one table. A row names a tool (mcsim, sweep or mcheck), its
// arguments, what of its output it keeps and why it is there. Each kept
// output is held by its SHA-256 in testdata/digests.txt, one line per
// output, except sweep -exp table1's, which testdata/sweep_table1.golden
// holds as full text so that a failure shows what moved.
//
// go test runs the tier-1 rows, each on the scheduled engine. make equiv
// runs this test under the equiv build tag (pins_equiv_test.go): every
// row, the expensive ones too, and every mcsim row a second time under
// -noleap, the naive reference schedule, which must reproduce the same
// committed digest. So one line holds a run both to the naive schedule
// and to the last build that rewrote the file: a change that moves both
// schedules alike fails here too.
//
// The test fails naming every output that moved. After a change that
// means to move them,
//
//	go test -count=1 -run TestPinnedRuns -update .
//	go test -count=1 -tags equiv -run TestPinnedRuns -update .
//
// rewrite the tier-1 lines or every line, and the diff of testdata/
// shows which rows moved.
//
// What stays pinned elsewhere, and why:
//   - internal/core's TestSchedulePinned holds the host-side schedule:
//     ticks executed and skipped, run-ahead bursts, spin sleeps. The
//     digests leave it out on purpose; mcsim prints it only on stderr's
//     engine: line, which the -v rows drop.
//   - internal/modelcheck's state-count pins stay, because they run
//     in-process, under make reach's coverage profile.
//   - benchmark/workloads.go keeps its own copy of the four
//     BENCHMARK.json pins, because only a change to the benchmark may
//     touch it.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt and the table1 golden from this build's output")

// keep is what a row keeps of its run's output.
type keep int

const (
	stdout  keep = iota // stdout as printed
	jsonOut             // -json: the Result on stdout
	verbose             // -v: stdout, then stderr without its host-side engine: line
	traced              // -json stdout and the -obs-trace and -obs-csv files at -obs-interval 500
	states              // mcheck's report without the "exhausted in" wall times
)

// flags are what k adds to a row's arguments.
func (k keep) flags() string {
	switch k {
	case jsonOut:
		return " -json"
	case verbose:
		return " -v"
	case traced:
		return " -json -obs-interval 500 -obs-trace trace.json -obs-csv samples.csv"
	}
	return ""
}

// outputs names the outputs k keeps, each with a digest of its own.
func (k keep) outputs() []string {
	switch k {
	case verbose:
		return []string{"stdout+stderr"}
	case traced:
		return []string{"stdout", "trace.json", "samples.csv"}
	}
	return []string{"stdout"}
}

type pin struct {
	tool, args string
	keep       keep
	equiv      bool   // expensive: runs only under the equiv build tag
	golden     string // held as full text in testdata/<golden>, not by digest
	why        string
}

// command is the row's command line as run, and its name.
func (p pin) command() string { return p.tool + " " + p.args + p.keep.flags() }

// The four BENCHMARK.json workloads, at the sizes benchmark/workloads.go
// runs them.
const (
	pinOceanN4  = "-bench ocean -protocol wti -cpus 4 -rows 32 -iters 32"
	pinWaterN16 = "-bench water -protocol wb -cpus 16 -mols 6 -steps 4"
	pinOceanN64 = "-bench ocean -protocol wti -cpus 64 -rows 4 -iters 2"
	pinMeshN16  = "-bench ocean -protocol wti -cpus 16 -noc mesh -rows 8 -iters 4"
)

// pins is the table. Rows that take longest come first, so that the
// equiv tier's two parallel slots finish close together.
var pins = []pin{
	{tool: "mcheck", args: "-protocol all -cpus 3 -ops 1", keep: states, equiv: true,
		why: "three caches: WTI 276,489, WTU 283,014, WB 407,355 and MOESI 358,278 states, all clean"},
	{tool: "sweep", args: "-exp all -jobs 2", equiv: true,
		why: "the paper's full grid: Tables 1-2, Fig. 4-6 at n = 4, 16, 32, 64 and every ablation"},
	{tool: "mcheck", args: "-protocol all", keep: states, equiv: true,
		why: "the default two-cache scope for every protocol, as CI's modelcheck job runs it"},
	{tool: "sweep", args: "-quick -exp all -sizes 2,4 -csv -jobs 2", equiv: true,
		why: "every experiment's CSV rendering, at the quick scale"},

	{tool: "mcsim", args: pinOceanN4, keep: jsonOut, why: "BENCHMARK.json's ocean_wti_n4"},
	{tool: "mcsim", args: pinWaterN16, keep: jsonOut, why: "BENCHMARK.json's water_wb_n16"},
	{tool: "mcsim", args: pinOceanN64, keep: jsonOut, why: "BENCHMARK.json's ocean_wti_n64"},
	{tool: "mcsim", args: pinMeshN16, keep: jsonOut, why: "BENCHMARK.json's ocean_wti_mesh_n16"},
	{tool: "mcsim", args: pinOceanN4, keep: verbose, equiv: true,
		why: "-v holds what -json lacks: per-bank counters and the NoC's inject stalls, which move when a bank node ticks at another cycle"},
	{tool: "mcsim", args: pinWaterN16, keep: verbose, equiv: true, why: "as the -v row above, for water_wb_n16"},
	{tool: "mcsim", args: pinOceanN64, keep: verbose,
		why: "as the -v row above, for ocean_wti_n64, in tier-1: the saturated banks' inject stalls and per-bank counters, where GMN heads park on full FIFOs"},
	{tool: "mcsim", args: pinOceanN64 + " -fault drop=1e-3,dup=1e-3,seed=3", keep: verbose,
		why: "the saturated pin under a plan: every offer draws from fault.Net's streams, whose network ticks every cycle while anything is in flight"},
	{tool: "mcsim", args: pinMeshN16, keep: verbose, equiv: true, why: "as the -v row above, for ocean_wti_mesh_n16"},

	{tool: "mcsim", args: "-noc mesh -cpus 64 -rows 4 -iters 2", keep: jsonOut,
		why: "the mesh at n64, past the sizes the unit matrices (n <= 4) reach"},
	{tool: "mcsim", args: "-bench water -protocol wb -cpus 16 -noc mesh -mols 2 -steps 1 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,seed=42", keep: jsonOut,
		why: "the mesh under MESI and every link fault; the other mesh rows are WTI and fault-free"},
	{tool: "mcsim", args: "-bench water -protocol wb -arch 1 -cpus 16 -noc mesh -mols 2 -steps 1 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,seed=42", keep: jsonOut,
		why: "arch1 cores run ahead on the mesh's Reach and sleep in spins through the fault layer (823,561 instructions ahead, 3,000 spin sleeps)"},
	{tool: "mcsim", args: "-bench water -protocol wb -cpus 8 -ways 2 -mols 4 -steps 2", keep: jsonOut,
		why: "2-way caches: the core's line window skips LRU stamps; it sleeps in a spin only 347 times"},
	{tool: "mcsim", args: "-bench water -protocol wb -arch 1 -cpus 16 -ways 4 -mols 2 -steps 1", keep: jsonOut,
		why: "4-way arch1 water sleeps in spins 2,945 times: a slept spin's counted hits stamp no line, so the executed last period must leave every stamp where the naive core does"},
	{tool: "mcsim", args: "-cpus 8 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,bankstall=0.005:12,seed=42", keep: jsonOut,
		why: "a fault plan carrying every directive, bankstall included"},
	{tool: "mcsim", args: "-cpus 8 -fault bankstall=0.01:200,seed=5", keep: jsonOut,
		why: "200-cycle bank stalls: the only row whose wakes lie 64 and more cycles ahead, past the engine's 64-bucket wheel"},
	{tool: "mcsim", args: "-bench water -protocol wb -arch 1 -cpus 32 -mols 2 -steps 1", keep: jsonOut,
		why: "spin-dominated arch1 water: 14.7 M instructions in 2.7 Mcyc, leaning on run-ahead and spin sleeps"},
	{tool: "mcsim", args: "-bench ocean -protocol wb -arch 1 -cpus 64 -rows 1 -iters 1", keep: jsonOut,
		why: "arch1 ocean at n64: 1.62 Mcyc, 96% of its instructions retire in spin sleeps"},
	{tool: "mcsim", args: "-bench ocean -protocol wtu -cpus 8 -noc bus", keep: jsonOut,
		why: "WTU on the bus: DataCache.Hit's empty-write-buffer rule and the bus's Reach"},
	{tool: "mcsim", args: "-bench hotspot -protocol moesi -cpus 16", keep: jsonOut,
		why: "a stream machine, whose CPUs sleep through their think time (the unit matrices stop at n = 2)"},
	{tool: "mcsim", args: "-bench prodcons -protocol wtu -cpus 64", keep: jsonOut,
		why: "the other stream machine, at n64"},
	{tool: "mcsim", args: "-bench water -protocol wb -cpus 16 -mols 2 -steps 1 -fault drop=1e-2,delay=1e-2:8,dup=1e-2,seed=7", keep: jsonOut,
		why: "the GMN under a dense plan: staged releases share cycles with fast-path offers, so fault.Net's release order reaches the crossbar"},

	{tool: "mcsim", args: "-bench ocean -protocol wti -arch 1 -cpus 16 -rows 2 -iters 2", keep: traced,
		why: "many overlapping directory transactions, whose trace lanes are placed as each span closes"},
	{tool: "mcsim", args: "-bench water -protocol moesi -arch 1 -cpus 16 -mols 2 -steps 1", keep: traced,
		why: "as the row above, under MOESI"},
	{tool: "mcsim", args: "-bench water -protocol wb -cpus 8 -mols 2 -steps 1 -fault drop=1e-3,delay=1e-3:8,dup=1e-3,seed=42", keep: traced,
		why: "link faults: the latency table holds retry samples, each recorded by the port that lost a transfer"},

	{tool: "mcsim", args: "-bench counter -cpus 4 -incs 50 -protocol wti",
		why: "the text report and the default Config.Describe headline"},
	{tool: "mcsim", args: "-bench ocean -cpus 4 -rows 2 -iters 2 -protocol wb", keep: jsonOut,
		why: "a small write-back point"},
	{tool: "sweep", args: "-quick -exp fig4 -sizes 2,4 -jobs 1",
		why: "the figure table's text, serial"},
	{tool: "sweep", args: "-exp table1", golden: "sweep_table1.golden",
		why: "Table 1, kept as full text so that a failure shows the table"},
}

// exhausted matches mcheck's wall time, the one host-dependent part of
// its report.
var exhausted = regexp.MustCompile(`exhausted in \S+`)

// run runs p, under -noleap when naive, from the binaries in bin in a
// directory of its own, and returns what p keeps, by output name. A run
// that exits non-zero fails the test and prints its stderr.
func (p pin) run(t *testing.T, bin string, naive bool) map[string][]byte {
	args := strings.Fields(p.args + p.keep.flags())
	if naive {
		args = append(args, "-noleap")
	}
	cmd := exec.Command(filepath.Join(bin, p.tool), args...)
	cmd.Dir = t.TempDir()
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", p.tool, strings.Join(args, " "), err, errOut.Bytes())
	}
	switch p.keep {
	case verbose:
		for _, line := range strings.SplitAfter(errOut.String(), "\n") {
			if !strings.HasPrefix(line, "engine: ") {
				out.WriteString(line)
			}
		}
		return map[string][]byte{"stdout+stderr": out.Bytes()}
	case traced:
		kept := map[string][]byte{"stdout": out.Bytes()}
		for _, name := range p.keep.outputs()[1:] {
			b, err := os.ReadFile(filepath.Join(cmd.Dir, name))
			if err != nil {
				t.Fatal(err)
			}
			kept[name] = b
		}
		return kept
	case states:
		return map[string][]byte{"stdout": exhausted.ReplaceAll(out.Bytes(), []byte("exhausted"))}
	}
	return map[string][]byte{"stdout": out.Bytes()}
}

// sum is what an output is held by: its SHA-256, or for a golden row its
// text.
func (p pin) sum(b []byte) string {
	if p.golden != "" {
		return string(b)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// key names one kept output: the output, then the command line.
type key struct{ output, command string }

const digestsFile = "testdata/digests.txt"

func TestPinnedRuns(t *testing.T) {
	// The test binary links none of the code it builds, so go test's
	// result cache would replay a pass after an edit to it. A directory
	// the test reads enters the cache key with each file's size and
	// modification time: read every source directory.
	for _, dir := range []string{"cmd", "internal"} {
		if err := filepath.WalkDir(dir, func(_ string, _ fs.DirEntry, err error) error { return err }); err != nil {
			t.Fatal(err)
		}
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool to build the pinned binaries: %v", err)
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator),
		"repro/cmd/mcsim", "repro/cmd/sweep", "repro/cmd/mcheck")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	want := readPins(t)

	var mu sync.Mutex
	got := map[key]string{}
	var moved []string
	t.Cleanup(func() {
		if *update {
			writePins(t, want, got)
		}
		if len(moved) > 0 {
			t.Errorf("%d pinned output(s) moved:\n  %s\nIf the change means to move them, rerun with -update (pins_test.go says how).",
				len(moved), strings.Join(moved, "\n  "))
		}
	})
	for _, p := range pins {
		if p.equiv && !equivTier {
			continue
		}
		t.Run(p.command(), func(t *testing.T) {
			t.Parallel()
			scheduled := map[string]string{}
			for name, b := range p.run(t, bin, false) {
				scheduled[name] = p.sum(b)
			}
			var naive map[string][]byte
			if equivTier && p.tool == "mcsim" {
				naive = p.run(t, bin, true)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, name := range p.keep.outputs() {
				k := key{name, p.command()}
				got[k] = scheduled[name]
				expect := want[k]
				if *update {
					expect = scheduled[name]
				} else if scheduled[name] != expect {
					moved = append(moved, name+" of "+k.command)
					t.Errorf("%s moved (%s):\n%s", name, p.why, p.diff(scheduled[name], expect))
				}
				if b, ok := naive[name]; ok && p.sum(b) != expect {
					moved = append(moved, name+" of "+k.command+" -noleap")
					t.Errorf("%s under -noleap differs from the pinned run (%s):\n%s", name, p.why, p.diff(p.sum(b), expect))
				}
			}
		})
	}
}

// diff says how an output's sum differs from the committed one.
func (p pin) diff(got, want string) string {
	switch {
	case want == "":
		return "no committed sum; run with -update to record it"
	case p.golden != "":
		return fmt.Sprintf("--- got ---\n%s--- want (testdata/%s) ---\n%s", got, p.golden, want)
	}
	return fmt.Sprintf("sha256 %s, committed %s", got, want)
}

// readPins reads the committed sums: digests.txt's lines and the golden
// rows' files. A line that no row of the table keeps fails the test.
func readPins(t *testing.T) map[key]string {
	want := map[key]string{}
	kept := map[key]bool{}
	for _, p := range pins {
		for _, name := range p.keep.outputs() {
			kept[key{name, p.command()}] = true
		}
		if p.golden == "" {
			continue
		}
		b, err := os.ReadFile(filepath.Join("testdata", p.golden))
		if err != nil && !*update {
			t.Fatal(err)
		}
		if err == nil {
			want[key{"stdout", p.command()}] = string(b)
		}
	}
	f, err := os.Open(digestsFile)
	if err != nil {
		if *update {
			return want
		}
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, rest, _ := strings.Cut(line, " ")
		name, command, _ := strings.Cut(strings.TrimSpace(rest), " ")
		k := key{name, strings.TrimSpace(command)}
		if !kept[k] && !*update {
			t.Errorf("%s: no row keeps %s of %s", digestsFile, k.output, k.command)
		}
		want[k] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writePins rewrites digests.txt in table order, and the golden rows'
// files: this run's sums, and the committed ones of the rows it did not
// run.
func writePins(t *testing.T, want, got map[key]string) {
	var b strings.Builder
	b.WriteString("# SHA-256 of each output TestPinnedRuns (pins_test.go) keeps: sum, output, command line.\n")
	b.WriteString("# Rewritten by: go test -count=1 -tags equiv -run TestPinnedRuns -update .\n")
	for _, p := range pins {
		for _, name := range p.keep.outputs() {
			k := key{name, p.command()}
			sum, ok := got[k]
			if !ok {
				sum, ok = want[k]
			}
			switch {
			case !ok:
			case p.golden != "":
				if err := os.WriteFile(filepath.Join("testdata", p.golden), []byte(sum), 0o644); err != nil {
					t.Error(err)
				}
			default:
				fmt.Fprintf(&b, "%s  %-13s  %s\n", sum, name, k.command)
			}
		}
	}
	if err := os.WriteFile(digestsFile, []byte(b.String()), 0o644); err != nil {
		t.Error(err)
	}
}
