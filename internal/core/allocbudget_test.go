package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// allocBudgetPerCycle is the committed steady-state allocation budget
// for the pinned ocean runs below, in heap allocations per cycle. The
// message slab, the directory's records carved 16 to a chunk and its
// pooled transactions put the steady state at (close to) zero: after
// warm-up the only sanctioned hot-path allocations are slab and pool
// growth at a new high-water mark and first-touch page, queue and
// directory-chunk growth, all of which decay to nothing once the run
// is warm. The budget leaves headroom for GC-internal bookkeeping; a
// regression that reintroduces a per-transaction allocation (one Msg per
// protocol message, at roughly one message per a few cycles here) lands
// orders of magnitude above it.
const allocBudgetPerCycle = 0.01

// TestSteadyStateAllocBudget pins the zero-alloc steady state on every
// protocol (and WB with cache-to-cache transfers), scheduled and under
// the naive schedule, on a distributed ocean at n4 and a centralized,
// spin-heavy one at n8: warm each system past its slab and queue
// growth, then count heap allocations over a measured span of cycles.
// The scheduled rows cover run-ahead and spin sleeps; the naive rows
// price every cycle the same; four hot-spot stream machines cover the
// stream CPU and its generator. Fails go test when the committed budget
// is exceeded.
func TestSteadyStateAllocBudget(t *testing.T) {
	type point struct {
		name  string
		proto coherence.Protocol
		c2c   bool
	}
	var points []point
	for p := range coherence.Protocols {
		points = append(points, point{coherence.Protocol(p).String(), coherence.Protocol(p), false})
	}
	points = append(points, point{"WB+c2c", coherence.WBMESI, true})
	for _, m := range []struct {
		arch  mem.Arch
		sched codegen.SchedMode
		n     int
	}{{mem.Arch2, codegen.DS, 4}, {mem.Arch1, codegen.SMP, 8}} {
		spec, err := workload.BuildOcean(mem.DefaultLayout(m.n), m.sched,
			workload.OceanParams{Threads: m.n, RowsPerThread: 8, Iters: 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			for _, naive := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/n%d/noleap=%v", pt.name, m.arch, m.n, naive)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(pt.proto, m.arch, m.n)
					cfg.Mem.CacheToCache = pt.c2c
					cfg.DisableLeap = naive
					sys, err := Build(cfg, spec.Image)
					if err != nil {
						t.Fatal(err)
					}
					measureAllocs(t, sys)
				})
			}
		}
	}
	// Stream machines: simlint's hotalloc cannot follow the stream CPU's
	// call into its generator, a function value, so only these rows see
	// an allocation there.
	l := mem.DefaultLayout(4)
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.MOESI} {
		for _, naive := range []bool{false, true} {
			t.Run(fmt.Sprintf("hotspot/%v/n4/noleap=%v", proto, naive), func(t *testing.T) {
				cfg := DefaultConfig(proto, mem.Arch2, 4)
				cfg.DisableLeap = naive
				sys, err := BuildStreams(cfg, func(cpu int) func() Ref {
					return hotSpotRefs(l.PrivateSeg(cpu), 8192, l.SharedBase, 32, 0.05, 0.3, int64(cpu)+1)
				}, 1<<20, 2)
				if err != nil {
					t.Fatal(err)
				}
				measureAllocs(t, sys)
			})
		}
	}
}

// measureAllocs warms sys up and checks the allocations of the
// following span against the budget.
func measureAllocs(t *testing.T, sys *System) {
	t.Helper()
	// Warm-up: the slab reaches its in-flight high-water mark, ports and
	// NoC queues their steady capacities, the page table its footprint.
	const warmCycles, measureCycles = 60_000, 100_000
	run := func(cycles uint64) {
		if _, err := sys.Engine.Run(cycles, func() bool { return false }); err != nil {
			if _, ok := err.(*sim.ErrDeadline); !ok {
				t.Fatal(err)
			}
		}
	}
	run(warmCycles)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	run(measureCycles)
	runtime.ReadMemStats(&after)
	if sys.AllHalted() {
		t.Fatal("workload halted inside the measured span; grow the pinned point")
	}

	allocs := after.Mallocs - before.Mallocs
	perCycle := float64(allocs) / float64(measureCycles)
	t.Logf("steady state: %d allocs over %d cycles = %.5f allocs/cycle (budget %.3f)",
		allocs, measureCycles, perCycle, allocBudgetPerCycle)
	if perCycle > allocBudgetPerCycle {
		t.Fatalf("steady-state allocation budget exceeded: %.5f allocs/cycle > %.3f "+
			"(a per-transaction allocation crept back onto the hot path; "+
			"see hotalloc.allow and internal/coherence/msgpool.go)",
			perCycle, allocBudgetPerCycle)
	}
}
