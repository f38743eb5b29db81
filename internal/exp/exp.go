// Package exp regenerates every table and figure of the paper's
// evaluation section, plus the repository's own ablations. cmd/sweep
// and the top-level benchmarks are thin wrappers around it.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Table1    — per-request hop costs of both protocols (directed probes)
//	Table2    — simulated platform characteristics
//	Fig4      — execution time, Ocean & Water × arch × protocol × n
//	Fig5      — total NoC traffic in bytes, same grid
//	Fig6      — data-cache stall share, same grid
//	AblationMesh        — GMN crossbar model vs real 2D-mesh routers
//	AblationStrictSC    — paper's posted write buffer vs strict SC stores
//	AblationBestWorst   — protocol best/worst-case synthetic workloads
//	AblationWriteUpdate — WTI/WTU/WB three-way comparison
//	AblationC2C         — MESI cache-to-cache transfers
//	AblationScale       — WTI/WB ratio vs compute per barrier
//	AblationDirLimited  — full-map vs limited-pointer directories
//	AblationBus         — shared bus vs NoC (the paper's premise)
//	AblationWays        — cache associativity at fixed capacity
//	AblationMOESI       — write-back family: MESI, MESI+C2C, MOESI
package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/workload"
)

// Scale sets the per-processor-constant workload sizes. The paper runs
// SPLASH-2 to completion over hundreds of megacycles; Default keeps
// the same shape at simulation-friendly sizes, Quick is for tests.
type Scale struct {
	OceanRows  int // rows per thread
	OceanIters int
	WaterMols  int // molecules per thread
	WaterSteps int
	LURows     int // matrix rows per thread (extension workload)
}

// DefaultScale is used by cmd/sweep and the benchmarks.
func DefaultScale() Scale {
	return Scale{OceanRows: 4, OceanIters: 4, WaterMols: 3, WaterSteps: 3, LURows: 3}
}

// QuickScale keeps tests fast.
func QuickScale() Scale {
	return Scale{OceanRows: 2, OceanIters: 2, WaterMols: 2, WaterSteps: 2, LURows: 2}
}

// Bench names the application driven through the platform.
type Bench string

// The two applications of the paper's evaluation, plus the LU
// extension workload.
const (
	Ocean Bench = "ocean"
	Water Bench = "water"
	LU    Bench = "lu"
)

// Run describes one simulation point of the Figure 4–6 grid.
type Run struct {
	Bench    Bench
	Protocol coherence.Protocol
	Arch     mem.Arch
	NumCPUs  int

	NoC      core.NoCKind
	StrictSC bool
	C2C      bool // MESI cache-to-cache transfers

	// Fault, when non-empty, is a fault.ParsePlan spec string injected
	// into the run's interconnect. A string (not a parsed plan) keeps
	// Run comparable for map keys and makes the campaign replayable
	// from the key alone.
	Fault string
}

// Key renders the point compactly for table rows and caches.
func (r Run) Key() string {
	k := fmt.Sprintf("%s/%v/%v/n%d", r.Bench, r.Protocol, r.Arch, r.NumCPUs)
	if r.Fault != "" {
		k += "/fault=" + r.Fault
	}
	return k
}

// schedModeFor pairs the architectures with their kernels as the paper
// does: Architecture 1 runs the SMP kernel, Architecture 2 the DS one.
func schedModeFor(arch mem.Arch) codegen.SchedMode {
	if arch == mem.Arch1 {
		return codegen.SMP
	}
	return codegen.DS
}

// BuildSpec builds the workload image for one run point.
func BuildSpec(r Run, sc Scale) (*workload.Spec, error) {
	l := mem.DefaultLayout(r.NumCPUs)
	mode := schedModeFor(r.Arch)
	switch r.Bench {
	case Ocean:
		return workload.BuildOcean(l, mode, workload.OceanParams{
			Threads: r.NumCPUs, RowsPerThread: sc.OceanRows, Iters: sc.OceanIters,
		})
	case Water:
		return workload.BuildWater(l, mode, workload.WaterParams{
			Threads: r.NumCPUs, MolsPerThread: sc.WaterMols, Steps: sc.WaterSteps,
		})
	case LU:
		rows := sc.LURows
		if rows == 0 {
			rows = 3
		}
		return workload.BuildLU(l, mode, workload.LUParams{
			Threads: r.NumCPUs, RowsPerThread: rows,
		})
	default:
		return nil, fmt.Errorf("exp: unknown bench %q", r.Bench)
	}
}

// Execute builds, runs, and verifies one run point.
func Execute(r Run, sc Scale) (*core.Result, error) {
	return ExecuteObserved(r, sc, nil)
}

// Observe configures per-run observability for experiment execution.
// It never changes results, only how the run is observed, which is why
// Run does not carry it.
type Observe struct {
	// Interval is the metrics sampling period in cycles.
	Interval uint64
	// Dir, when non-empty, receives one interval-metrics CSV per run,
	// named after the run key (slashes become underscores).
	Dir string
}

// csvPath maps a run to its sample file under o.Dir.
func (o *Observe) csvPath(r Run) string {
	name := strings.ReplaceAll(r.Key(), "/", "_") + ".csv"
	return filepath.Join(o.Dir, name)
}

// ExecuteObserved is Execute with interval metrics attached: the run is
// sampled every o.Interval cycles and, when o.Dir is set, the series
// are written as CSV. A nil o (or zero interval) behaves like Execute.
func ExecuteObserved(r Run, sc Scale, o *Observe) (*core.Result, error) {
	spec, err := BuildSpec(r, sc)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(r.Protocol, r.Arch, r.NumCPUs)
	cfg.NoC = r.NoC
	cfg.Mem.StrictSC = r.StrictSC
	cfg.Mem.CacheToCache = r.C2C
	if r.Fault != "" {
		plan, err := fault.ParsePlan(r.Fault)
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
		cfg.Fault = plan
	}
	sys, err := core.Build(cfg, spec.Image)
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if o != nil && o.Interval > 0 {
		rec = obs.New(obs.Config{SampleInterval: o.Interval})
		sys.AttachObserver(rec)
	}
	res, err := sys.Run()
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
	}
	sys.FlushCaches()
	if spec.Check != nil {
		if err := spec.Check(sys.Space); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
	}
	if rec != nil && o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
		f, err := os.Create(o.csvPath(r))
		if err != nil {
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
		if err := rec.Sampler().WriteCSV(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
	}
	return res, nil
}

// Grid runs the full Figure 4–6 grid (both benches and architectures,
// both protocols, the given CPU counts) and returns results keyed by
// run point. Every run is verified against its host reference.
func Grid(sizes []int, sc Scale) (map[Run]*core.Result, error) {
	return GridObserved(sizes, sc, nil)
}

// GridObserved is Grid with per-run observability (see ExecuteObserved).
func GridObserved(sizes []int, sc Scale, o *Observe) (map[Run]*core.Result, error) {
	out := make(map[Run]*core.Result)
	for _, r := range gridRuns(sizes) {
		res, err := ExecuteObserved(r, sc, o)
		if err != nil {
			return nil, err
		}
		out[r] = res
	}
	return out, nil
}

// gridRuns enumerates the Figure 4–6 grid points in their canonical
// order (bench, then architecture, then protocol, then CPU count). Both
// the serial and the parallel grid runner draw from this one list, so
// they cover — and on error, report — identical work.
func gridRuns(sizes []int) []Run {
	var runs []Run
	for _, bench := range []Bench{Ocean, Water} {
		for _, arch := range []mem.Arch{mem.Arch1, mem.Arch2} {
			for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
				for _, n := range sizes {
					runs = append(runs, Run{Bench: bench, Protocol: proto, Arch: arch, NumCPUs: n})
				}
			}
		}
	}
	return runs
}

// PaperSizes is the paper's processor-count axis (Table 2).
func PaperSizes() []int { return []int{4, 16, 32, 64} }
