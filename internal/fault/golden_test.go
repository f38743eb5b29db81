// Golden-output regression: with the fault layer compiled in but not
// enabled, the user-facing binaries must produce byte-identical output
// to the pinned pre-fault-layer goldens in testdata/. This is the
// mechanical form of the PR's zero-cost promise — compiling the fault
// machinery must not perturb a single byte of any default run.
//
// To regenerate after an intentional output change:
//
//	go test ./internal/fault/ -run TestGolden -update
package fault_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenRuns pins the exact command lines the goldens were captured
// with: one text and one JSON mcsim point, one quick figure grid
// (serial, so worker scheduling cannot reorder anything), and Table 1.
var goldenRuns = []struct {
	golden string
	cmd    string // package under cmd/ to build
	args   []string
}{
	{"mcsim_counter_wti.golden", "mcsim",
		[]string{"-bench", "counter", "-cpus", "4", "-incs", "50", "-protocol", "wti"}},
	{"mcsim_ocean_wb.golden", "mcsim",
		[]string{"-bench", "ocean", "-cpus", "4", "-rows", "2", "-iters", "2", "-protocol", "wb", "-json"}},
	{"sweep_fig4_quick.golden", "sweep",
		[]string{"-quick", "-exp", "fig4", "-sizes", "2,4", "-jobs", "1"}},
	{"sweep_table1.golden", "sweep",
		[]string{"-exp", "table1"}},
}

func TestGoldenZeroFaultByteIdentity(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH; cannot build the binaries under test")
	}
	bindir := t.TempDir()
	built := map[string]string{}
	for _, r := range goldenRuns {
		if _, ok := built[r.cmd]; ok {
			continue
		}
		bin := filepath.Join(bindir, r.cmd)
		out, err := exec.Command(goBin, "build", "-o", bin, "repro/cmd/"+r.cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", r.cmd, err, out)
		}
		built[r.cmd] = bin
	}
	for _, r := range goldenRuns {
		r := r
		t.Run(r.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(built[r.cmd], r.args...)
			cmd.Stdout = &stdout
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s %v: %v\n%s", r.cmd, r.args, err, stderr.String())
			}
			path := filepath.Join("testdata", r.golden)
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("%s %v output is not byte-identical to %s:\ngot %d bytes, want %d\n--- got ---\n%s\n--- want ---\n%s",
					r.cmd, r.args, path, stdout.Len(), len(want), clip(stdout.String()), clip(string(want)))
			}
		})
	}
}

func clip(s string) string {
	if len(s) > 2048 {
		return s[:2048] + "\n... [clipped]"
	}
	return s
}
