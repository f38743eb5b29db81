package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/noc"
	"repro/internal/workload"
)

// snapshot is every public statistic of a finished System. Two runs of
// one cell must produce equal snapshots whatever schedule executed
// them: the engine's (idle skipping, leaping) or the traced harness's
// (every component, every cycle).
type snapshot struct {
	Cycles   uint64
	Net      noc.Stats
	CPU      []cpu.Stats
	DCache   []coherence.DCacheStats
	IFetches []uint64
	IMisses  []uint64
	Mem      []coherence.MemStats
}

func takeSnapshot(sys *core.System, cycles uint64) *snapshot {
	s := &snapshot{Cycles: cycles, Net: sys.Net.Stats()}
	for i := range sys.CPUs {
		s.CPU = append(s.CPU, *sys.CPUs[i].Stats())
		s.DCache = append(s.DCache, *sys.DCaches[i].Stats())
		s.IFetches = append(s.IFetches, sys.ICaches[i].Fetches)
		s.IMisses = append(s.IMisses, sys.ICaches[i].Misses)
	}
	for _, b := range sys.Banks {
		s.Mem = append(s.Mem, *b.Stats())
	}
	return s
}

func (s *snapshot) equal(o *snapshot) bool { return reflect.DeepEqual(s, o) }

// sliceCycles is the length of one timed slice of a run, in simulated
// cycles: about a millisecond of host time at every machine size. The
// reference host is a shared VM; interruptions there last a millisecond
// to a few seconds and only ever add time, while the simulated work of
// slice i repeats exactly in every rep. Taking each slice's fastest time
// over the reps (cellAcc) recovers the uninterrupted time of the whole
// run; the fastest whole rep of five does not (on ocean_wti_n4 it
// wandered over 13% between invocations where the per-slice figure
// stayed within 3%). Each slice is followed by a reference chunk, by
// which its time is restated in reference-host time (ref.go).
func sliceCycles(numCPUs int) uint64 {
	if numCPUs > 128 {
		return 64
	}
	return 8192 / uint64(numCPUs)
}

// timedSlice is one slice of a run and the reference chunk that
// followed it.
type timedSlice struct{ run, ref time.Duration }

// opResult is one operation: build + run + verify of one cell. Its times
// are in reference-host time (ref.go); rawRun and rawWall are the run
// and the whole operation as this host's clock read them.
type opResult struct {
	snap *snapshot
	// specBuild (exp.BuildSpec: codegen + asm), sysBuild (core.Build)
	// and check (FlushCaches + spec.Check) are the host times of the
	// untimed phases; slices holds the run, slice by slice, the drain
	// last. It aliases the caller's buffer.
	specBuild, sysBuild, check time.Duration
	slices                     []timedSlice
	rawRun, rawWall            time.Duration
	hostSpeed                  float64 // this host's speed during the run, reference host = 1
	allocBytes                 uint64  // TotalAlloc delta over the run
	heapAlloc                  uint64  // live heap the finished System adds, after GC
	engine                     engineCounts
}

// engineCounts are sim.Engine's diagnostics of what it did not execute.
type engineCounts struct{ leaps, leapedCycles, skippedTicks uint64 }

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// finish closes the timed region of an operation: it keeps the raw
// readings, then moves the run into reference-host time.
func (o *opResult) finish(rawBuild, rawCheck time.Duration) {
	for _, s := range o.slices {
		o.rawRun += s.run
	}
	o.rawWall = rawBuild + o.rawRun + rawCheck
	o.hostSpeed = toReference(o.slices)
}

// build is the set-up of one cell: assemble the workload image and wire
// the platform around it. It returns the set-up's raw time beside the
// reference-host times it leaves in o.
func build(c cell, o *opResult) (*workload.Spec, *core.System, time.Duration, error) {
	t0 := time.Now()
	spec, err := exp.BuildSpec(c.run, c.scale)
	if err != nil {
		return nil, nil, 0, err
	}
	t1 := time.Now()
	cfg := core.DefaultConfig(c.run.Protocol, c.run.Arch, c.run.NumCPUs)
	cfg.NoC = c.run.NoC
	sys, err := core.Build(cfg, spec.Image)
	if err != nil {
		return nil, nil, 0, err
	}
	t2 := time.Now()
	speed := ref.hostSpeed()
	o.specBuild, o.sysBuild = scale(t1.Sub(t0), speed), scale(t2.Sub(t1), speed)
	return spec, sys, t2.Sub(t0), nil
}

// verify is exp.Execute's correctness step: write dirty lines back and
// compare final memory with the workload's host reference. Like build
// it returns the raw time.
func verify(spec *workload.Spec, sys *core.System, o *opResult) (time.Duration, error) {
	t0 := time.Now()
	sys.FlushCaches()
	if spec.Check != nil {
		if err := spec.Check(sys.Space); err != nil {
			return 0, err
		}
	}
	raw := time.Since(t0)
	o.check = scale(raw, ref.hostSpeed())
	return raw, nil
}

// runOp executes one cell the way exp.Execute does, on the engine's own
// schedule. The timed region is core.System.Run's — the measured phase
// until every CPU halts, then the drain — driven through the engine in
// slices so each can be timed on its own. A slice ends through the done
// predicate, which the engine polls once per executed cycle anyway, so
// slicing neither clamps a leap nor allocates, and results are those of
// System.Run (TestSlicedRunMatchesSystemRun).
func runOp(c cell, buf []timedSlice) (opResult, error) {
	o := opResult{slices: buf[:0]}
	// Start every operation from a collected heap, and know its size:
	// what the harness itself holds is not the simulator's.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	heapBefore := m0.HeapAlloc
	spec, sys, rawBuild, err := build(c, &o)
	if err != nil {
		return o, err
	}
	eng := sys.Engine
	slice := sliceCycles(c.run.NumCPUs)
	var sliceEnd uint64
	sliceDone := func() bool { return eng.Now() >= sliceEnd || sys.AllHalted() }

	runtime.ReadMemStats(&m0)
	for !sys.AllHalted() {
		if eng.Now() >= sys.Cfg.MaxCycles {
			return o, fmt.Errorf("%s: not halted after %d cycles", c.run.Key(), eng.Now())
		}
		sliceEnd = eng.Now() + slice
		t0 := time.Now()
		_, err := eng.Run(sys.Cfg.MaxCycles-eng.Now(), sliceDone)
		o.slices = append(o.slices, timedSlice{time.Since(t0), ref.chunk()})
		if err != nil {
			return o, fmt.Errorf("%s: %w", c.run.Key(), err)
		}
	}
	cycles := eng.Now()
	t0 := time.Now()
	_, err = eng.Run(1_000_000, sys.Quiescent)
	o.slices = append(o.slices, timedSlice{time.Since(t0), ref.chunk()})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return o, fmt.Errorf("%s: drain: %w", c.run.Key(), err)
	}
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	rawCheck, err := verify(spec, sys, &o)
	if err != nil {
		return o, fmt.Errorf("%s: %w", c.run.Key(), err)
	}
	o.finish(rawBuild, rawCheck)
	o.snap = takeSnapshot(sys, cycles)
	o.engine = engineCounts{eng.Leaps(), eng.LeapedCycles(), eng.SkippedTicks()}

	runtime.GC()
	runtime.ReadMemStats(&m1)
	o.heapAlloc = m1.HeapAlloc - min(heapBefore, m1.HeapAlloc)
	runtime.KeepAlive(sys)
	return o, nil
}

// cellAcc keeps, for one cell, the fastest time of every piece of an
// operation over the reps, and the first rep's results, which every
// later rep must reproduce.
type cellAcc struct {
	reps                       int
	first                      opResult // slices dropped
	specBuild, sysBuild, check time.Duration
	slices                     []time.Duration
	allocBytes, heapAlloc      uint64
}

func minDur(a *time.Duration, b time.Duration) {
	if b < *a {
		*a = b
	}
}

// foldBuild folds in the set-up times of one build.
func (a *cellAcc) foldBuild(o *opResult) {
	if a.specBuild == 0 {
		a.specBuild, a.sysBuild = o.specBuild, o.sysBuild
	}
	minDur(&a.specBuild, o.specBuild)
	minDur(&a.sysBuild, o.sysBuild)
}

// fold folds one finished operation in. It fails if the operation's
// statistics differ from the first rep's: the simulator is
// deterministic, so they never may.
func (a *cellAcc) fold(o *opResult) error {
	a.foldBuild(o)
	a.reps++
	if a.reps == 1 {
		a.first = *o
		a.first.slices = nil
		a.check, a.allocBytes, a.heapAlloc = o.check, o.allocBytes, o.heapAlloc
		a.slices = a.slices[:0]
		for _, s := range o.slices {
			a.slices = append(a.slices, s.run)
		}
		return nil
	}
	if !o.snap.equal(a.first.snap) || o.engine != a.first.engine || len(o.slices) != len(a.slices) {
		return errors.New("statistics differ from the first rep's")
	}
	minDur(&a.check, o.check)
	a.allocBytes = min(a.allocBytes, o.allocBytes)
	a.heapAlloc = min(a.heapAlloc, o.heapAlloc)
	for i, s := range o.slices {
		minDur(&a.slices[i], s.run)
	}
	return nil
}

func (a *cellAcc) run() time.Duration   { return sum(a.slices) }
func (a *cellAcc) setup() time.Duration { return a.specBuild + a.sysBuild }
func (a *cellAcc) wall() time.Duration  { return a.setup() + a.run() + a.check }
