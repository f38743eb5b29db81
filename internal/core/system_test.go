package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/workload"
)

// runCounter builds and runs the lock-counter workload on the given
// platform, failing the test on any error or wrong final state.
func runCounter(t *testing.T, proto coherence.Protocol, arch mem.Arch, nocKind NoCKind, n, incs int) *Result {
	t.Helper()
	mode := codegen.SMP
	if arch == mem.Arch2 {
		mode = codegen.DS
	}
	spec, err := workload.BuildCounter(mem.DefaultLayout(n), mode, workload.CounterParams{Threads: n, Incs: incs})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	cfg := DefaultConfig(proto, arch, n)
	cfg.NoC = nocKind
	// A protocol that deadlocks must fail here in seconds with the pcs,
	// not at the 2e9-cycle default; the longest run here takes about
	// 60,000 cycles.
	cfg.MaxCycles = 2_000_000
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	sys.FlushCaches()
	if err := spec.Check(sys.Space); err != nil {
		t.Fatalf("check: %v", err)
	}
	return res
}

func TestCounterEndToEnd(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI} {
		for _, arch := range []mem.Arch{mem.Arch1, mem.Arch2} {
			for _, n := range []int{1, 2, 4} {
				name := fmt.Sprintf("%v/%v/n%d", proto, arch, n)
				t.Run(name, func(t *testing.T) {
					res := runCounter(t, proto, arch, GMNNet, n, 50)
					if res.Cycles == 0 {
						t.Fatal("no cycles executed")
					}
					if res.Instructions() == 0 {
						t.Fatal("no instructions retired")
					}
				})
			}
		}
	}
}

func TestCounterOnMesh(t *testing.T) {
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		t.Run(proto.String(), func(t *testing.T) {
			runCounter(t, proto, mem.Arch2, MeshNet, 4, 30)
		})
	}
}

func TestCounterDeterminism(t *testing.T) {
	a := runCounter(t, coherence.WTI, mem.Arch1, GMNNet, 4, 25)
	b := runCounter(t, coherence.WTI, mem.Arch1, GMNNet, 4, 25)
	if a.Cycles != b.Cycles || a.TrafficBytes() != b.TrafficBytes() {
		t.Fatalf("nondeterministic: %d/%d cycles, %d/%d bytes",
			a.Cycles, b.Cycles, a.TrafficBytes(), b.TrafficBytes())
	}
}

// TestIdleTicksAreSkipped checks the wake-contract wiring end to end: on
// a real run every layer — CPU clusters, bank nodes, the network — must
// have ticks skipped by the engine (the equivalence matrices and the
// byte-identical sweep output prove skipping changes no results; this
// test proves the fast path actually engages), and what the engine did
// not skip it executed.
func TestIdleTicksAreSkipped(t *testing.T) {
	spec, err := buildQuickCounter(2)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys, err := Build(DefaultConfig(coherence.WTI, mem.Arch2, 2), spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	counts := sys.Engine.TickCounts()
	if len(counts) != 3 {
		t.Fatalf("TickCounts = %+v, want the cpus, banks and noc rows", counts)
	}
	tickers := map[string]uint64{"cpus": 2, "banks": uint64(len(sys.BNodes)), "noc": 1}
	for _, c := range counts {
		if c.Skipped == 0 || c.Executed == 0 || c.Executed+c.Skipped != tickers[c.Name]*sys.Engine.Now() {
			t.Errorf("%s: %d executed + %d skipped over %d tickers x %d cycles",
				c.Name, c.Executed, c.Skipped, tickers[c.Name], sys.Engine.Now())
		}
	}
}

// buildQuickCounter builds a small counter workload for config tests.
func buildQuickCounter(n int) (*workload.Spec, error) {
	return workload.BuildCounter(mem.DefaultLayout(n), codegen.DS,
		workload.CounterParams{Threads: n, Incs: 20})
}

// TestStreamMachineRuntimeChecks drives a shared-region uniform stream
// through the one run path under every protocol with the runtime
// invariant checker on every cycle and the quiescent checker at the
// end; then, with a directory that skips an invalidation, Run itself
// must report the stale copy for a machine that has no interpreter —
// not the hang it leads to.
func TestStreamMachineRuntimeChecks(t *testing.T) {
	const n = 4
	l := mem.DefaultLayout(n)
	build := func(proto coherence.Protocol) *System {
		cfg := DefaultConfig(proto, mem.Arch2, n)
		cfg.MaxCycles = 100_000
		sys, err := BuildStreams(cfg, func(cpu int) func() Ref {
			return uniformRefs(l.SharedBase, 1024, 0.4, int64(cpu)+1)
		}, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys.EnableRuntimeChecks(1)
		return sys
	}
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI, coherence.MOESI} {
		sys := build(proto)
		res, err := sys.Run()
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if err := sys.CheckCoherence(); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		// Every completed reference is one instruction and one load or
		// store, and a CPU that waits on the cache is stalled on data.
		if len(res.CPU) != n {
			t.Fatalf("%v: result has %d CPUs, want %d", proto, len(res.CPU), n)
		}
		if c := res.CPU[0]; c.Instructions != 200 || c.Loads+c.Stores != 200 || c.DataStallCycles == 0 {
			t.Fatalf("%v: first CPU counted %+v", proto, c)
		}
	}
	sys := build(coherence.WTI)
	for _, b := range sys.Banks {
		b.Fault.DropInvals = 1
	}
	_, err := sys.Run()
	if err == nil || !strings.Contains(err.Error(), "runtime invariant violated") {
		t.Fatalf("a dropped invalidation: Run returned %v, want the invariant violation", err)
	}
	// The violation ends the run at the cycle of the check that found it.
	var at uint64
	if n, serr := fmt.Sscanf(err.Error(), "core: runtime invariant violated at cycle %d:", &at); n != 1 {
		t.Fatalf("%q names no cycle: %v", err, serr)
	}
	if sys.Engine.Now() != at {
		t.Fatalf("run ended at cycle %d; want the cycle %v names", sys.Engine.Now(), err)
	}
}

// TestDrainPhaseFailures pins Run's text for a failure latched after the
// last HALT, while the drain runs: a runtime violation reads as it does
// in the measured phase, and only a spent retry budget says the drain
// did not quiesce.
func TestDrainPhaseFailures(t *testing.T) {
	const n = 4
	l := mem.DefaultLayout(n)
	cfg := DefaultConfig(coherence.WTI, mem.Arch2, n)
	cfg.MaxCycles = 100_000
	streams := func() *System {
		sys, err := BuildStreams(cfg, func(cpu int) func() Ref {
			return uniformRefs(l.SharedBase, 1024, 0.4, int64(cpu)+1)
		}, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	res, err := streams().Run()
	if err != nil {
		t.Fatal(err)
	}
	// The same machine with banks that never write memory: its one check,
	// the cycle after the last HALT, finds a store hit's copy ahead of
	// memory while the write buffers still drain.
	sys := streams()
	for _, b := range sys.Banks {
		b.Fault.SkipWTApply = 1 << 30
	}
	sys.EnableRuntimeChecks(res.Cycles + 1)
	_, err = sys.Run()
	if want := fmt.Sprintf("core: runtime invariant violated at cycle %d: coherence: value:", res.Cycles+1); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("a violation in the drain: Run returned %v, want %q...", err, want)
	}

	// CPU 0's last reference is a store to bank 4 (node 6), the only
	// packet it ever sends there, and every transfer on that link is
	// lost: the machine halts, and the budget runs out in the drain.
	cfg = DefaultConfig(coherence.WTI, mem.Arch2, 2)
	cfg.MaxCycles = 100_000
	if cfg.Fault, err = fault.ParsePlan("drop=1@0>6,seed=1"); err != nil {
		t.Fatal(err)
	}
	l = mem.DefaultLayout(2)
	const ops, store = 20, 128
	sys, err = BuildStreams(cfg, func(cpu int) func() Ref {
		i := uint32(0)
		return func() Ref {
			if i++; cpu == 0 && i == ops {
				return Ref{Store: true, Addr: l.SharedBase + store, Data: 1}
			}
			return Ref{Addr: l.PrivateSeg(cpu) + 4*i}
		}
	}, ops, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bank := cfg.Arch.BuildMap(l).BankOf(l.SharedBase + store); bank != 4 {
		t.Fatalf("the store maps to bank %d, want 4", bank)
	}
	_, err = sys.Run()
	if want := fmt.Sprintf("core: drain did not quiesce: coherence: node 0: ReqWriteThrough addr=%#x to node 6: retransmission budget exceeded", l.SharedBase+store); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("a budget spent in the drain: Run returned %v, want %q...", err, want)
	}
}
