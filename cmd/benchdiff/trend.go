package main

import (
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/stats"
)

// trendReport is the outcome of the -trend mode: the Mcyc/s trajectory
// of every pinned run across an ordered series of milestones.
type trendReport struct {
	Table *stats.Table
	// Notes flag host mismatches and runs missing from some milestones;
	// the trend is informational, so none of them fail the command.
	Notes []string
}

// trendBench renders the milestone trajectory: one row per run key, one
// column per BENCH file (in argument order), cells in Mcyc/s, plus the
// cumulative delta from the first milestone that has the run to the
// last. Wall-clock columns from different hosts are flagged, not
// dropped — the trajectory across a host change is still worth seeing,
// it just is not a like-for-like speedup claim.
func trendBench(files []*benchFile) *trendReport {
	rep := &trendReport{}

	cols := make([]string, 0, len(files)+2)
	cols = append(cols, "run")
	for _, f := range files {
		cols = append(cols, milestoneLabel(f.Path))
	}
	cols = append(cols, "trajectory")
	rep.Table = stats.NewTable(
		fmt.Sprintf("bench trend (%d milestones, Mcyc/s)", len(files)), cols...)

	// Host/scale comparability: flag every file whose normalization
	// fields differ from the newest file's.
	last := files[len(files)-1]
	for _, f := range files[:len(files)-1] {
		if f.hostKey() != last.hostKey() {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s measured on a different host (%s vs %s); its columns are not comparable wall-clock",
				f.Path, f.hostKey(), last.hostKey()))
		}
		if f.Quick != last.Quick {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s measured at a different scale (quick=%v vs quick=%v)",
				f.Path, f.Quick, last.Quick))
		}
	}

	// Row order: first appearance across the milestone series.
	var order []string
	perFile := make([]map[string]runPoint, len(files))
	for i, f := range files {
		perFile[i] = make(map[string]runPoint)
		for _, p := range f.points() {
			k := p.Run
			if _, dup := perFile[i][k]; dup {
				continue
			}
			perFile[i][k] = p
			if i == 0 || !containsKey(perFile[:i], k) {
				order = append(order, k)
			}
		}
	}

	for _, k := range order {
		cells := make([]any, 0, len(files)+2)
		cells = append(cells, k)
		var first, lastSeen float64
		var present int
		for i := range files {
			p, ok := perFile[i][k]
			if !ok {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, p.MCyclesPerSec)
			if present == 0 {
				first = p.MCyclesPerSec
			}
			lastSeen = p.MCyclesPerSec
			present++
		}
		if present >= 2 && first > 0 {
			cells = append(cells, fmt.Sprintf("%.2fx (%s)", lastSeen/first,
				stats.FormatPercentDelta(stats.PercentDelta(first, lastSeen))))
		} else {
			cells = append(cells, "-")
		}
		rep.Table.AddRow(cells...)
		if present < len(files) {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"run %q present in %d of %d milestones", k, present, len(files)))
		}
	}
	return rep
}

// containsKey reports whether any earlier milestone already had k.
func containsKey(ms []map[string]runPoint, k string) bool {
	for _, m := range ms {
		if _, ok := m[k]; ok {
			return true
		}
	}
	return false
}

// milestoneLabel shortens a BENCH path to its milestone name: the
// basename without the BENCH_ prefix and .json suffix (BENCH_PR6.json
// -> PR6, BENCH_PR8.quick.json -> PR8.quick).
func milestoneLabel(path string) string {
	s := filepath.Base(path)
	s = strings.TrimSuffix(s, ".json")
	s = strings.TrimPrefix(s, "BENCH_")
	return s
}
