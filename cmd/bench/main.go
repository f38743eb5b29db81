// Command bench runs the repository's pinned benchmark set and writes
// the measurements as schema-versioned JSON, so simulator performance
// can be tracked across changes (the committed BENCH_PR*.json files
// are its output at each optimization milestone).
//
// The pinned set:
//
//   - engine throughput: simulated cycles per wall second on the
//     16-CPU Ocean/WTI/Arch2 run (the same point as
//     BenchmarkSimulatorThroughput);
//   - workload pins: 16-CPU Ocean and Water under both WTI and
//     WB-MESI, cycles and wall time each;
//   - sweep wall-clock: the Figure 4–6 grid at reduced (-quick) scale,
//     run serially and with -jobs workers, and the resulting speedup.
//
// Usage:
//
//	bench [-o BENCH.json] [-quick] [-jobs N]
//	      [-cpuprofile FILE] [-memprofile FILE] [-pprof-http ADDR]
//
// -quick shrinks the workload scale and the sweep axis for CI smoke
// runs; the numbers are then only comparable with other -quick runs.
// The committed milestones are diffed and regression-gated by
// cmd/benchdiff, which reads every schema version ever written here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/mem"
	"repro/internal/obs/prof"
	"repro/internal/obs/resource"
)

// BenchSchemaVersion identifies the JSON layout below. Version 3
// removed the `engine` block, which duplicated workloads[0] verbatim —
// `engine_run` now names the pinned engine-throughput workload — and
// added off-engine resource telemetry: a whole-invocation `resources`
// summary plus one per pinned workload (internal/obs/resource).
// Version 4 is version 3 minus the `shard_scaling` section that
// versions 2 and 3 carried.
const BenchSchemaVersion = 4

// BenchJSON is the export schema: one file per benchmark invocation.
// Host fields record the environment the numbers were taken on —
// wall-clock results are only comparable across runs on similar hosts
// (cmd/benchdiff normalizes by exactly these fields), and Jobs beyond
// NumCPU cannot speed anything up.
type BenchJSON struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	NumCPU        int    `json:"num_cpu"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Quick         bool   `json:"quick"`

	// EngineRun names the workload whose throughput is the engine
	// figure (always workloads[0], the pinned ocean/WTI run).
	EngineRun string          `json:"engine_run"`
	Workloads []WorkloadBench `json:"workloads"`
	Sweep     SweepBench      `json:"sweep"`

	// Resources is the process resource summary over the whole bench
	// invocation (sweep section included).
	Resources *resource.Summary `json:"resources,omitempty"`
}

// WorkloadBench is one pinned end-to-end run, with the off-engine
// resource summary sampled while it executed.
type WorkloadBench struct {
	Run           string  `json:"run"`
	Cycles        uint64  `json:"cycles"`
	WallMs        float64 `json:"wall_ms"`
	MCyclesPerSec float64 `json:"mcycles_per_sec"`

	Resources *resource.Summary `json:"resources,omitempty"`
}

// SweepBench compares the serial and parallel grid runners.
type SweepBench struct {
	Sizes      []int   `json:"sizes"`
	Runs       int     `json:"runs"`
	Jobs       int     `json:"jobs"`
	SerialMs   float64 `json:"serial_ms"`
	ParallelMs float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
}

func main() {
	out := flag.String("o", "BENCH.json", "output JSON path (- for stdout)")
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "workers for the parallel sweep measurement")
	profCfg := prof.RegisterFlags()
	flag.Parse()
	if err := rejectPositional(flag.Args()); err != nil {
		fatal(err)
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		fatal(err)
	}

	// Whole-invocation resource sampler: its summary shows where the
	// bench process's memory went across all sections. Per-workload
	// samplers below bracket the individual pins.
	total := resource.Start(0)

	b := BenchJSON{
		SchemaVersion: BenchSchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Quick:         *quick,
	}

	pinScale := exp.DefaultScale()
	sweepSizes := []int{4, 16, 32, 64}
	if *quick {
		pinScale = exp.QuickScale()
		sweepSizes = []int{2, 4}
	}

	// Workload pins; the first one doubles as the engine-throughput run.
	pins := []exp.Run{
		{Bench: exp.Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 16},
		{Bench: exp.Ocean, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 16},
		{Bench: exp.Water, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 16},
		{Bench: exp.Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 16},
	}
	b.EngineRun = pins[0].Key()
	for _, r := range pins {
		w, err := timeRun(r, pinScale)
		if err != nil {
			fatal(err)
		}
		b.Workloads = append(b.Workloads, w)
		fmt.Fprintf(os.Stderr, "bench: %-24s %9d cycles  %8.1f ms  %6.3f Mcyc/s  heap peak %.1f MiB\n",
			w.Run, w.Cycles, w.WallMs, w.MCyclesPerSec,
			float64(w.Resources.HeapAllocPeak)/(1<<20))
	}

	// Sweep wall-clock: the figure grid, serial then parallel. The grid
	// always runs at quick scale — the point is runner overhead and
	// parallel speedup, not workload duration.
	sweepScale := exp.QuickScale()
	serialStart := time.Now()
	if _, err := exp.Grid(sweepSizes, sweepScale); err != nil {
		fatal(err)
	}
	serial := time.Since(serialStart)
	parallelStart := time.Now()
	if _, err := exp.GridParallel(sweepSizes, sweepScale, nil, *jobs); err != nil {
		fatal(err)
	}
	parallel := time.Since(parallelStart)
	b.Sweep = SweepBench{
		Sizes:      sweepSizes,
		Runs:       2 * 2 * 2 * len(sweepSizes), // bench × arch × proto × sizes
		Jobs:       *jobs,
		SerialMs:   ms(serial),
		ParallelMs: ms(parallel),
		Speedup:    serial.Seconds() / parallel.Seconds(),
	}
	fmt.Fprintf(os.Stderr, "bench: sweep %v  serial %.1f ms  parallel(%d) %.1f ms  speedup %.2fx\n",
		sweepSizes, b.Sweep.SerialMs, *jobs, b.Sweep.ParallelMs, b.Sweep.Speedup)

	sum := total.Stop()
	b.Resources = &sum
	fmt.Fprintf(os.Stderr, "bench: %s\n", sum)

	enc, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", *out)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// timeRun executes one pinned run and measures its wall time (workload
// build and result verification included, as in the go benchmarks)
// plus its process resource usage, sampled off-engine.
func timeRun(r exp.Run, sc exp.Scale) (WorkloadBench, error) {
	rs := resource.Start(0)
	start := time.Now()
	res, err := exp.Execute(r, sc)
	wall := time.Since(start)
	sum := rs.Stop()
	if err != nil {
		return WorkloadBench{}, err
	}
	return WorkloadBench{
		Run:           r.Key(),
		Cycles:        res.Cycles,
		WallMs:        ms(wall),
		MCyclesPerSec: float64(res.Cycles) / wall.Seconds() / 1e6,
		Resources:     &sum,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rejectPositional refuses leftover positional arguments. Every option
// here is a flag, so a stray token is almost always a typo'd or
// misplaced flag (`bench -quick -o` leaving "out.json" positional);
// silently ignoring it would run a different benchmark than asked.
func rejectPositional(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q (all options are flags; see -h)", args[0])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
