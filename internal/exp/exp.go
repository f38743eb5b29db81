// Package exp regenerates every table and figure of the paper's
// evaluation section, plus the repository's own ablations. It is one
// plane: Run describes a simulation point, Execute is the one
// build→run→flush→check sequence, ExecuteAll puts a list of points
// through the one worker pool, and every experiment is an entry of the
// Experiments table — the points it needs and the renderer from their
// results to tables. cmd/sweep walks that table.
//
// Experiment index, by table name (DESIGN.md §4 has the full mapping;
// TestExperimentTable keeps both in step with the table):
//
//	table1      — per-request hop costs of both protocols (directed probes)
//	table2      — simulated platform characteristics
//	fig4        — execution time, Ocean & Water × arch × protocol × n
//	fig5        — total NoC traffic in bytes, same grid
//	fig6        — data-cache stall share, same grid
//	mesh        — GMN crossbar model vs real 2D-mesh routers
//	strictsc    — paper's posted write buffer vs strict SC stores
//	bestworst   — protocol best/worst-case synthetic workloads
//	writeupdate — WTI/WTU/WB three-way comparison
//	c2c         — MESI cache-to-cache transfers
//	scale       — WTI/WB ratio vs compute per barrier
//	dir         — full-map vs limited-pointer directories
//	bus         — shared bus vs NoC (the paper's premise)
//	ways        — cache associativity at fixed capacity
//	moesi       — write-back family: MESI, MESI+C2C, MOESI
//	fault       — WTI vs WB under injected NoC faults (not part of "all")
package exp

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

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
	OceanRows   int // rows per thread
	OceanIters  int
	WaterMols   int // molecules per thread
	WaterSteps  int
	CounterIncs int // increments per thread
}

// DefaultScale is used by cmd/sweep, cmd/mcsim's flag defaults and the
// benchmarks.
func DefaultScale() Scale {
	return Scale{OceanRows: 4, OceanIters: 4, WaterMols: 3, WaterSteps: 3, CounterIncs: 100}
}

// QuickScale keeps tests fast.
func QuickScale() Scale {
	return Scale{OceanRows: 2, OceanIters: 2, WaterMols: 2, WaterSteps: 2}
}

// Bench names what the CPUs of the platform execute: a program for the
// SR32 interpreters, or a synthetic reference stream (streams.go).
type Bench string

// The programs: the two applications of the paper's evaluation, then
// the lock-counter microbenchmark.
const (
	Ocean   Bench = "ocean"
	Water   Bench = "water"
	Counter Bench = "counter"
)

// Run is the complete description of one simulation point: every
// experiment is a list of Runs, and two Runs that compare equal are the
// same simulation. The zero value of each field below NumCPUs is the
// paper's platform (Table 2).
type Run struct {
	Bench    Bench
	Protocol coherence.Protocol
	Arch     mem.Arch
	NumCPUs  int

	NoC         core.NoCKind
	StrictSC    bool
	C2C         bool // MESI cache-to-cache transfers
	Ways        int  // cache associativity at fixed capacity; 0 = direct-mapped
	DirPointers int  // Dir_k_B pointers per directory entry; 0 = full map

	// Scale, when non-zero, replaces the workload size Execute is
	// called with: the compute-per-barrier sweep's axis is the size.
	Scale Scale

	// Fault, when non-empty, is a fault.ParsePlan spec string injected
	// into the run's interconnect. A string (not a parsed plan) keeps
	// Run comparable for map keys and makes the campaign replayable
	// from the key alone.
	Fault string
}

// Key renders the point compactly for error messages and per-run file
// names. Fields at their zero value are left out, so the figure grid's
// keys are four segments long; every other field adds its own segment,
// so distinct Runs have distinct keys.
func (r Run) Key() string {
	k := fmt.Sprintf("%s/%v/%v/n%d", r.Bench, r.Protocol, r.Arch, r.NumCPUs)
	if r.NoC != core.GMNNet {
		k += "/" + r.NoC.String()
	}
	if r.StrictSC {
		k += "/strictsc"
	}
	if r.C2C {
		k += "/c2c"
	}
	if r.Ways != 0 {
		k += fmt.Sprintf("/ways=%d", r.Ways)
	}
	if r.DirPointers != 0 {
		k += fmt.Sprintf("/dir=%d", r.DirPointers)
	}
	if s := r.Scale; s != (Scale{}) {
		k += fmt.Sprintf("/scale=%d.%d.%d.%d", s.OceanRows, s.OceanIters, s.WaterMols, s.WaterSteps)
		if s.CounterIncs != 0 {
			k += fmt.Sprintf(".%d", s.CounterIncs)
		}
	}
	if r.Fault != "" {
		k += "/fault=" + r.Fault
	}
	return k
}

// Config maps the point onto the platform configuration it simulates.
func (r Run) Config() (core.Config, error) {
	cfg := core.DefaultConfig(r.Protocol, r.Arch, r.NumCPUs)
	cfg.NoC = r.NoC
	cfg.Mem.StrictSC = r.StrictSC
	cfg.Mem.CacheToCache = r.C2C
	if r.Ways != 0 {
		cfg.Mem.Ways = r.Ways
	}
	cfg.Mem.DirPointers = r.DirPointers
	if r.Fault != "" {
		plan, err := fault.ParsePlan(r.Fault)
		if err != nil {
			return cfg, fmt.Errorf("exp: %s: %w", r.Key(), err)
		}
		cfg.Fault = plan
	}
	return cfg, nil
}

// BuildSpec builds the workload image for one run point whose Bench is
// a program (Build wires either kind).
func BuildSpec(r Run, sc Scale) (*workload.Spec, error) {
	if r.Scale != (Scale{}) {
		sc = r.Scale
	}
	// The paper pairs the architectures with their kernels: Architecture
	// 1 runs the SMP kernel, Architecture 2 the DS one.
	l, mode := mem.DefaultLayout(r.NumCPUs), codegen.DS
	if r.Arch == mem.Arch1 {
		mode = codegen.SMP
	}
	switch r.Bench {
	case Ocean:
		return workload.BuildOcean(l, mode, workload.OceanParams{
			Threads: r.NumCPUs, RowsPerThread: sc.OceanRows, Iters: sc.OceanIters,
		})
	case Water:
		return workload.BuildWater(l, mode, workload.WaterParams{
			Threads: r.NumCPUs, MolsPerThread: sc.WaterMols, Steps: sc.WaterSteps,
		})
	case Counter:
		return workload.BuildCounter(l, mode, workload.CounterParams{
			Threads: r.NumCPUs, Incs: sc.CounterIncs,
		})
	default:
		streams := make([]string, len(streamBenches))
		for i, sb := range streamBenches {
			streams[i] = string(sb.bench)
		}
		return nil, fmt.Errorf("exp: no program called %q (programs: %s, %s, %s; streams: %s)",
			r.Bench, Ocean, Water, Counter, strings.Join(streams, ", "))
	}
}

// Build wires r's machine on cfg (r.Config(), possibly adjusted by the
// caller): interpreters loaded with the program's image, or stream CPUs
// replaying the bench's references. check is the program's host
// reference, nil for a stream.
func Build(r Run, cfg core.Config, sc Scale) (sys *core.System, check func(*mem.Space) error, err error) {
	if sb, ok := findStream(r.Bench); ok {
		l := mem.DefaultLayout(r.NumCPUs)
		sys, err = core.BuildStreams(cfg, func(cpu int) func() core.Ref { return sb.gen(l, cpu) }, sb.ops, streamThink)
		return sys, nil, err
	}
	spec, err := BuildSpec(r, sc)
	if err != nil {
		return nil, nil, err
	}
	sys, err = core.Build(cfg, spec.Image)
	return sys, spec.Check, err
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

// Execute builds, runs, and verifies one run point.
func Execute(r Run, sc Scale) (*core.Result, error) {
	return execute(r, sc, nil)
}

// execute is the one build→run→flush→check sequence. With o set (and a
// non-zero interval) the run is sampled every o.Interval cycles and,
// when o.Dir is set, the series are written as CSV.
func execute(r Run, sc Scale, o *Observe) (*core.Result, error) {
	cfg, err := r.Config()
	if err != nil {
		return nil, err
	}
	sys, check, err := Build(r, cfg, sc)
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if o != nil && o.Interval > 0 {
		rec = obs.New(obs.Config{SampleInterval: o.Interval})
		sys.AttachObserver(rec)
	}
	res, err := sys.Run()
	if err == nil {
		sys.FlushCaches()
		if check != nil {
			err = check(sys.Space)
		}
	}
	if err == nil && rec != nil && o.Dir != "" {
		err = writeSamples(filepath.Join(o.Dir, strings.ReplaceAll(r.Key(), "/", "_")+".csv"), rec)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: %s: %w", r.Key(), err)
	}
	return res, nil
}

func writeSamples(path string, rec *obs.Recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(rec.Sampler().WriteCSV(f), f.Close())
}

// ExecuteAll executes runs with up to jobs simulations in flight
// (jobs < 1 selects GOMAXPROCS) and returns their results in the order
// of runs. Every point builds its own isolated System, so the results —
// and everything rendered from them — are byte-identical at any jobs
// value (TestExecuteAllMatchesSerial). The error reported is that of
// the first failing run in the order of runs, whichever worker fails
// first in wall-clock time; at jobs > 1 a failing point does not stop
// points already dispatched, whose results are discarded. With o.Dir
// set, runs must be distinct: each writes the file named by its key.
func ExecuteAll(runs []Run, sc Scale, o *Observe, jobs int) ([]*core.Result, error) {
	results := make([]*core.Result, len(runs))
	err := forEach(len(runs), jobs, func(i int) (err error) {
		results[i], err = execute(runs[i], sc, o)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// forEach is the package's one worker pool: it calls fn(0) … fn(n-1)
// from up to jobs goroutines and returns the error of the lowest
// failing index. One job runs on the caller's goroutine and stops at
// the first error.
func forEach(n, jobs int, fn func(i int) error) error {
	if jobs < 1 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs = min(jobs, n); jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return cmp.Or(errs...)
}
