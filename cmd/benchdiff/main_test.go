package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// host A/B fixtures: identical except where a case needs them to
// differ. Bench JSON is hand-built per schema version so the reader's
// v1-v4 tolerance is exercised against realistic shapes; the v2/v3
// shard_scaling sections must load and be ignored.
const hostA = `"go_version":"go1.24.0","goos":"linux","goarch":"amd64","num_cpu":1,"gomaxprocs":1`
const hostB = `"go_version":"go1.24.0","goos":"darwin","goarch":"arm64","num_cpu":8,"gomaxprocs":8`

// v2File renders a schema-v2 BENCH file: engine block duplicating
// workloads[0], as cmd/bench wrote through PR 5.
func v2File(host string, quick bool, oceanMcyc, waterMcyc float64) string {
	return `{
	  "schema_version": 2, ` + host + `, "quick": ` + boolStr(quick) + `,
	  "engine": {"run":"ocean/WTI/arch2/n16","cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `},
	  "workloads": [
	    {"run":"ocean/WTI/arch2/n16","cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `},
	    {"run":"water/WB/arch2/n16","cycles":633887,"wall_ms":600,"mcycles_per_sec":` + f(waterMcyc) + `}
	  ],
	  "sweep": {"jobs":1,"serial_ms":1000,"parallel_ms":900,"speedup":1.11},
	  "shard_scaling": [
	    {"run":"ocean/WTI/arch2/n16","shards":1,"cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `}
	  ]
	}`
}

// v3File renders the deduplicated schema: engine_run instead of the
// engine block, resources blocks present.
func v3File(host string, quick bool, oceanMcyc, waterMcyc float64) string {
	return `{
	  "schema_version": 3, ` + host + `, "quick": ` + boolStr(quick) + `,
	  "engine_run": "ocean/WTI/arch2/n16",
	  "workloads": [
	    {"run":"ocean/WTI/arch2/n16","cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `,
	     "resources":{"samples":5,"heap_alloc_peak":1048576}},
	    {"run":"water/WB/arch2/n16","cycles":633887,"wall_ms":600,"mcycles_per_sec":` + f(waterMcyc) + `}
	  ],
	  "sweep": {"jobs":1,"serial_ms":1000,"parallel_ms":850,"speedup":1.18},
	  "shard_scaling": [
	    {"run":"ocean/WTI/arch2/n16","shards":1,"cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `}
	  ],
	  "resources": {"samples":40,"heap_alloc_peak":2097152}
	}`
}

// v4File renders the current schema: v3 without shard_scaling.
func v4File(host string, quick bool, oceanMcyc, waterMcyc float64) string {
	return `{
	  "schema_version": 4, ` + host + `, "quick": ` + boolStr(quick) + `,
	  "engine_run": "ocean/WTI/arch2/n16",
	  "workloads": [
	    {"run":"ocean/WTI/arch2/n16","cycles":120583,"wall_ms":150,"mcycles_per_sec":` + f(oceanMcyc) + `,
	     "resources":{"samples":5,"heap_alloc_peak":1048576}},
	    {"run":"water/WB/arch2/n16","cycles":633887,"wall_ms":600,"mcycles_per_sec":` + f(waterMcyc) + `}
	  ],
	  "sweep": {"jobs":1,"serial_ms":1000,"parallel_ms":850,"speedup":1.18},
	  "resources": {"samples":40,"heap_alloc_peak":2097152}
	}`
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// TestDiffGate is the table-driven core: synthetic BENCH pairs through
// load + diff, checking gate outcome, skip reason and match counts.
func TestDiffGate(t *testing.T) {
	cases := []struct {
		name       string
		old, new   string
		threshold  float64
		wantSkip   bool
		wantFail   bool
		wantArmed  int // matched runs
		wantLoadOK bool
	}{
		{
			name: "improvement passes",
			old:  v2File(hostA, false, 0.80, 0.90), new: v2File(hostA, false, 0.90, 1.00),
			threshold: 10, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "small regression within threshold passes",
			old:  v2File(hostA, false, 1.00, 1.00), new: v2File(hostA, false, 0.95, 0.99),
			threshold: 10, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "regression beyond threshold fails",
			old:  v2File(hostA, false, 1.00, 1.00), new: v2File(hostA, false, 0.80, 1.00),
			threshold: 10, wantFail: true, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "cross-host regression skips the gate",
			old:  v2File(hostA, false, 1.00, 1.00), new: v2File(hostB, false, 0.50, 0.50),
			threshold: 10, wantSkip: true, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "quick vs full skips the gate",
			old:  v2File(hostA, false, 1.00, 1.00), new: v2File(hostA, true, 0.50, 0.50),
			threshold: 10, wantSkip: true, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "mixed schema v2 old vs v3 new gates normally",
			old:  v2File(hostA, false, 1.00, 1.00), new: v3File(hostA, false, 0.70, 1.05),
			threshold: 10, wantFail: true, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "mixed schema v3 old vs v2 new improvement passes",
			old:  v3File(hostA, false, 0.80, 0.90), new: v2File(hostA, false, 0.88, 0.95),
			threshold: 10, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "mixed schema v3 old vs v4 new gates normally",
			old:  v3File(hostA, false, 1.00, 1.00), new: v4File(hostA, false, 0.70, 1.05),
			threshold: 10, wantFail: true, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "mixed schema v3 old vs v4 new improvement passes",
			old:  v3File(hostA, false, 0.80, 0.90), new: v4File(hostA, false, 0.88, 0.95),
			threshold: 10, wantArmed: 2, wantLoadOK: true,
		},
		{
			name: "malformed JSON refuses to load",
			old:  `{"schema_version": 2, "workloads": [`, new: v2File(hostA, false, 1, 1),
			wantLoadOK: false,
		},
		{
			name: "missing schema_version refuses to load",
			old:  `{"workloads":[{"run":"x","cycles":1,"mcycles_per_sec":1}]}`, new: v2File(hostA, false, 1, 1),
			wantLoadOK: false,
		},
		{
			name: "no runs refuses to load",
			old:  `{"schema_version": 3, ` + hostA + `, "workloads": []}`, new: v2File(hostA, false, 1, 1),
			wantLoadOK: false,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oldPath := filepath.Join(dir, "old.json")
			newPath := filepath.Join(dir, "new.json")
			if err := os.WriteFile(oldPath, []byte(tc.old), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newPath, []byte(tc.new), 0o644); err != nil {
				t.Fatal(err)
			}

			old, errOld := loadBench(oldPath)
			new, errNew := loadBench(newPath)
			if !tc.wantLoadOK {
				if errOld == nil && errNew == nil {
					t.Fatal("load succeeded on a file that must be rejected")
				}
				return
			}
			if errOld != nil || errNew != nil {
				t.Fatalf("load: %v / %v", errOld, errNew)
			}

			rep := diffBench(old, new, tc.threshold)
			if got := rep.SkipReason != ""; got != tc.wantSkip {
				t.Errorf("skip = %v (%q), want %v", got, rep.SkipReason, tc.wantSkip)
			}
			if got := len(rep.Regressions) > 0; got != tc.wantFail {
				t.Errorf("regressions = %v, want fail=%v", rep.Regressions, tc.wantFail)
			}
			if rep.Compared != tc.wantArmed {
				t.Errorf("compared %d runs, want %d", rep.Compared, tc.wantArmed)
			}
			if rep.Table.NumRows() != rep.Compared {
				t.Errorf("table rows %d != compared %d", rep.Table.NumRows(), rep.Compared)
			}
		})
	}
}

// TestDiffUnmatchedRuns: runs present in only one file are reported as
// notes, never gated on.
func TestDiffUnmatchedRuns(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	oldJSON := `{
	  "schema_version": 1, ` + hostA + `, "quick": false,
	  "engine": {"run":"ocean/WTI/arch2/n16","cycles":10,"wall_ms":1,"mcycles_per_sec":1.0},
	  "workloads": [
	    {"run":"ocean/WTI/arch2/n16","cycles":10,"wall_ms":1,"mcycles_per_sec":1.0},
	    {"run":"gone/WTI/arch2/n16","cycles":10,"wall_ms":1,"mcycles_per_sec":1.0}
	  ]
	}`
	if err := os.WriteFile(oldPath, []byte(oldJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(v3File(hostA, false, 0.2, 0.2)), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := loadBench(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	new, err := loadBench(newPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := diffBench(old, new, 10)
	if rep.Compared != 1 {
		t.Errorf("compared %d, want 1 (only the ocean pin matches)", rep.Compared)
	}
	var sawOldOnly, sawNewOnly bool
	for _, n := range rep.Notes {
		if strings.Contains(n, `"gone/WTI/arch2/n16"`) {
			sawOldOnly = true
		}
		if strings.Contains(n, `"water/WB/arch2/n16"`) {
			sawNewOnly = true
		}
	}
	if !sawOldOnly || !sawNewOnly {
		t.Errorf("unmatched-run notes missing: %v", rep.Notes)
	}
	// The matched ocean run regressed 1.0 -> 0.2; the gate must see it.
	if len(rep.Regressions) != 1 {
		t.Errorf("regressions = %v, want exactly the ocean pin", rep.Regressions)
	}
}

// TestV1EngineOnlyFile: a v1 file pruned down to just the engine block
// still diffs (points falls back to the engine run).
func TestV1EngineOnlyFile(t *testing.T) {
	dir := t.TempDir()
	engineOnly := `{
	  "schema_version": 1, ` + hostA + `, "quick": false,
	  "engine": {"run":"ocean/WTI/arch2/n16","cycles":120583,"wall_ms":150,"mcycles_per_sec":0.8}
	}`
	oldPath := filepath.Join(dir, "old.json")
	if err := os.WriteFile(oldPath, []byte(engineOnly), 0o644); err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(newPath, []byte(v3File(hostA, false, 0.9, 1.0)), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := loadBench(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	new, err := loadBench(newPath)
	if err != nil {
		t.Fatal(err)
	}
	rep := diffBench(old, new, 10)
	if rep.Compared != 1 || len(rep.Regressions) != 0 || rep.SkipReason != "" {
		t.Errorf("engine-only diff: compared=%d regressions=%v skip=%q",
			rep.Compared, rep.Regressions, rep.SkipReason)
	}
}
