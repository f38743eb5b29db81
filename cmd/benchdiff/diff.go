package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/stats"
)

// benchFile is the schema-tolerant reader for BENCH_*.json milestones.
// It accepts every version cmd/bench has ever written:
//
//	v1 — host fields, engine block, workloads, sweep
//	v2 — v1 + shard_scaling
//	v3 — drops the engine block (engine_run names the pinned workload,
//	     which is workloads[0]) and adds per-run resources blocks
//	v4 — v3 minus shard_scaling
//
// Unknown fields are ignored — the v2/v3 shard_scaling section among
// them — so a reader this old keeps loading newer additive schemas;
// only the fields compared below must be present.
type benchFile struct {
	Path string `json:"-"`

	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Quick         bool   `json:"quick"`

	EngineRun string      `json:"engine_run"` // v3+
	Engine    *runPoint   `json:"engine"`     // v1, v2
	Workloads []runPoint  `json:"workloads"`
	Sweep     *sweepPoint `json:"sweep"`
}

// runPoint is one measured workload pin.
type runPoint struct {
	Run           string  `json:"run"`
	Cycles        uint64  `json:"cycles"`
	WallMs        float64 `json:"wall_ms"`
	MCyclesPerSec float64 `json:"mcycles_per_sec"`
}

type sweepPoint struct {
	Jobs       int     `json:"jobs"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

// loadBench reads and validates one BENCH file.
func loadBench(path string) (*benchFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchFile
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if b.SchemaVersion < 1 {
		return nil, fmt.Errorf("%s: missing or invalid schema_version", path)
	}
	if len(b.points()) == 0 {
		return nil, fmt.Errorf("%s: no workload runs to compare", path)
	}
	b.Path = path
	return &b, nil
}

// points returns the comparable per-run measurements: the workload
// pins. The v1/v2 engine block duplicates workloads[0] byte-for-byte,
// so it is only consulted when workloads are absent (a hand-pruned
// file).
func (b *benchFile) points() []runPoint {
	if len(b.Workloads) == 0 && b.Engine != nil {
		return []runPoint{*b.Engine}
	}
	return b.Workloads
}

// hostKey renders the normalization fields: wall-clock numbers are
// only comparable when every one of them matches.
func (b *benchFile) hostKey() string {
	return fmt.Sprintf("%s/%s/%s/cpu%d/procs%d",
		b.GoVersion, b.GOOS, b.GOARCH, b.NumCPU, b.GOMAXPROCS)
}

// diffReport is the outcome of comparing two BENCH files.
type diffReport struct {
	Table *stats.Table
	// Notes are informational lines: cycle drift, unmatched runs,
	// sweep speedup movement.
	Notes []string
	// SkipReason, when non-empty, says why the wall-clock gate did not
	// apply (host or scale mismatch). The delta table is still printed.
	SkipReason string
	// Regressions lists the matched runs whose Mcyc/s fell more than
	// the threshold; non-empty means the gate fails.
	Regressions []string
	// Compared counts the run points matched between the two files.
	Compared int
}

// diffBench compares two BENCH files and applies the regression gate
// at maxRegressPct. Wall-clock deltas are computed unconditionally so
// cross-host diffs are still informative, but the gate only arms when
// the host fields and the quick flag match.
func diffBench(old, new *benchFile, maxRegressPct float64) *diffReport {
	rep := &diffReport{
		Table: stats.NewTable(
			fmt.Sprintf("bench delta: %s -> %s", old.Path, new.Path),
			"run", "cycles old", "cycles new", "Mcyc/s old", "Mcyc/s new", "delta"),
	}
	switch {
	case old.hostKey() != new.hostKey():
		rep.SkipReason = fmt.Sprintf("host fields differ (%s vs %s)", old.hostKey(), new.hostKey())
	case old.Quick != new.Quick:
		rep.SkipReason = fmt.Sprintf("scale differs (quick=%v vs quick=%v)", old.Quick, new.Quick)
	}

	newPts := make(map[string]runPoint)
	var newOrder []string
	for _, p := range new.points() {
		if _, dup := newPts[p.Run]; !dup {
			newPts[p.Run] = p
			newOrder = append(newOrder, p.Run)
		}
	}
	seen := make(map[string]bool)
	for _, op := range old.points() {
		k := op.Run
		if seen[k] {
			continue
		}
		seen[k] = true
		np, ok := newPts[k]
		if !ok {
			rep.Notes = append(rep.Notes, fmt.Sprintf("run %q only in %s", k, old.Path))
			continue
		}
		rep.Compared++
		pct := stats.PercentDelta(op.MCyclesPerSec, np.MCyclesPerSec)
		rep.Table.AddRow(k, op.Cycles, np.Cycles,
			op.MCyclesPerSec, np.MCyclesPerSec, stats.FormatPercentDelta(pct))
		if op.Cycles != np.Cycles {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"cycles changed for %q: %d -> %d (engine behavior changed; Mcyc/s still compares throughput)",
				k, op.Cycles, np.Cycles))
		}
		if rep.SkipReason == "" && pct < -maxRegressPct {
			rep.Regressions = append(rep.Regressions, fmt.Sprintf(
				"%s: %.3f -> %.3f Mcyc/s (%s, threshold -%.1f%%)",
				k, op.MCyclesPerSec, np.MCyclesPerSec,
				stats.FormatPercentDelta(pct), maxRegressPct))
		}
	}
	for _, k := range newOrder {
		if !seen[k] {
			rep.Notes = append(rep.Notes, fmt.Sprintf("run %q only in %s", k, new.Path))
		}
	}
	if old.Sweep != nil && new.Sweep != nil {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"sweep speedup (jobs %d vs %d): %.2fx -> %.2fx (%s)",
			old.Sweep.Jobs, new.Sweep.Jobs, old.Sweep.Speedup, new.Sweep.Speedup,
			stats.FormatPercentDelta(stats.PercentDelta(old.Sweep.Speedup, new.Sweep.Speedup))))
	}
	return rep
}
