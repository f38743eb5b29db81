package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtures writes each JSON body under a milestone-style name and
// loads it back through the schema-tolerant reader.
func loadFixtures(t *testing.T, bodies map[string]string, order []string) []*benchFile {
	t.Helper()
	dir := t.TempDir()
	files := make([]*benchFile, 0, len(order))
	for _, name := range order {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(bodies[name]), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := loadBench(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestTrendTrajectory: a three-milestone series across schema versions
// yields one row per run in first-appearance order, "-" cells where a
// milestone lacks the run, and a cumulative first-to-last factor.
func TestTrendTrajectory(t *testing.T) {
	bodies := map[string]string{
		"BENCH_PR1.json": v2File(hostA, false, 0.50, 1.00),
		"BENCH_PR2.json": v2File(hostA, false, 0.75, 0.90),
		"BENCH_PR3.json": v3File(hostA, false, 1.00, 1.10),
	}
	files := loadFixtures(t, bodies, []string{"BENCH_PR1.json", "BENCH_PR2.json", "BENCH_PR3.json"})
	rep := trendBench(files)

	out := rep.Table.Render()
	for _, want := range []string{"PR1", "PR2", "PR3", "trajectory"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered trend missing column %q:\n%s", want, out)
		}
	}
	// ocean doubled 0.50 -> 1.00 across the series.
	if !strings.Contains(out, "2.00x") {
		t.Errorf("ocean trajectory 2.00x missing:\n%s", out)
	}
	// Same host, all runs in all milestones: no notes.
	if len(rep.Notes) != 0 {
		t.Errorf("unexpected notes: %v", rep.Notes)
	}
	// Rows: ocean workload, water workload; the fixtures' shard_scaling
	// points are not read.
	if rep.Table.NumRows() != 2 {
		t.Errorf("rows = %d, want 2\n%s", rep.Table.NumRows(), out)
	}
}

// TestTrendPartialAndCrossHost: runs absent from early milestones get
// "-" cells and a presence note; a host change is flagged but the
// trajectory still prints and nothing fails.
func TestTrendPartialAndCrossHost(t *testing.T) {
	// PR1 lacks the water run and was measured on a different host.
	pr1 := `{
	  "schema_version": 1, ` + hostB + `, "quick": false,
	  "engine": {"run":"ocean/WTI/arch2/n16","cycles":10,"wall_ms":1,"mcycles_per_sec":0.5}
	}`
	bodies := map[string]string{
		"BENCH_PR1.json": pr1,
		"BENCH_PR2.json": v3File(hostA, false, 0.8, 1.0),
	}
	files := loadFixtures(t, bodies, []string{"BENCH_PR1.json", "BENCH_PR2.json"})
	rep := trendBench(files)

	out := rep.Table.Render()
	if !strings.Contains(out, "-") {
		t.Errorf("missing-run cells absent:\n%s", out)
	}
	var sawHost, sawPartial bool
	for _, n := range rep.Notes {
		if strings.Contains(n, "different host") {
			sawHost = true
		}
		if strings.Contains(n, `"water/WB/arch2/n16"`) && strings.Contains(n, "present in 1 of 2") {
			sawPartial = true
		}
	}
	if !sawHost || !sawPartial {
		t.Errorf("notes missing (host=%v partial=%v): %v", sawHost, sawPartial, rep.Notes)
	}
}

// TestMilestoneLabel pins the column-header shortening.
func TestMilestoneLabel(t *testing.T) {
	for path, want := range map[string]string{
		"BENCH_PR6.json":             "PR6",
		"bench/BENCH_PR8.quick.json": "PR8.quick",
		"custom.json":                "custom",
	} {
		if got := milestoneLabel(path); got != want {
			t.Errorf("milestoneLabel(%q) = %q, want %q", path, got, want)
		}
	}
}
