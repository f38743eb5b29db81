package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/coherence"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/workload"
)

// buildCounterSys wires the lock-counter workload on cfg.
func buildCounterSys(t *testing.T, cfg Config) *System {
	t.Helper()
	mode := codegen.SMP
	if cfg.Arch == mem.Arch2 {
		mode = codegen.DS
	}
	spec, err := workload.BuildCounter(mem.DefaultLayout(cfg.Mem.NumCPUs), mode,
		workload.CounterParams{Threads: cfg.Mem.NumCPUs, Incs: 40})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	sys, err := Build(cfg, spec.Image)
	if err != nil {
		t.Fatalf("wire: %v", err)
	}
	return sys
}

// TestLeapEquivalence pins the wake contract at system level: a
// scheduled run (sleeping tickers skipped, dead cycles leaped) is
// byte-identical — full Result, not just the cycle count — to the naive
// run that ticks every component on every cycle, across every protocol,
// interconnect, and the fault-injection path.
func TestLeapEquivalence(t *testing.T) {
	points := []struct {
		name  string
		proto coherence.Protocol
		arch  mem.Arch
		noc   NoCKind
		fault string
	}{
		{name: "wti/gmn", proto: coherence.WTI, arch: mem.Arch1},
		{name: "wtu/gmn", proto: coherence.WTU, arch: mem.Arch2},
		{name: "wb/gmn", proto: coherence.WBMESI, arch: mem.Arch2},
		{name: "moesi/gmn", proto: coherence.MOESI, arch: mem.Arch2},
		{name: "wti/mesh", proto: coherence.WTI, arch: mem.Arch1, noc: MeshNet},
		{name: "wb/bus", proto: coherence.WBMESI, arch: mem.Arch1, noc: BusNet},
		{name: "wti/fault", proto: coherence.WTI, arch: mem.Arch1,
			fault: "drop=2e-3,delay=1e-3:6,seed=7"},
		// Stall windows draw once per cycle whether or not the network
		// ticker ran: its Skip replays the draws of the cycles it slept.
		{name: "wb/dup+bankstall", proto: coherence.WBMESI, arch: mem.Arch2,
			fault: "dup=5e-3,bankstall=0.01:12,seed=7"},
	}
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			run := func(disableLeap bool) (*Result, uint64, uint64) {
				cfg := DefaultConfig(p.proto, p.arch, 2)
				cfg.NoC = p.noc
				cfg.DisableLeap = disableLeap
				if p.fault != "" {
					plan, err := fault.ParsePlan(p.fault)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Fault = plan
				}
				sys := buildCounterSys(t, cfg)
				res, err := sys.Run()
				if err != nil {
					t.Fatalf("run (leap=%t): %v", !disableLeap, err)
				}
				return res, sys.Engine.Leaps(), sys.Engine.LeapedCycles()
			}
			stepped, _, _ := run(true)
			leaped, leaps, leapedCycles := run(false)
			// The configs differ only in the DisableLeap knob, which is
			// deliberately absent from results; blank it for the compare.
			stepped.Config.DisableLeap = false
			leaped.Config.DisableLeap = false
			if !reflect.DeepEqual(stepped, leaped) {
				t.Errorf("results differ:\nstepped: %+v\nleaped:  %+v", stepped, leaped)
			}
			if leaps == 0 || leapedCycles == 0 {
				t.Errorf("nothing ever leaped (leaps=%d cycles=%d) — the equivalence was vacuous", leaps, leapedCycles)
			}
		})
	}
}

// TestLeapCounterExposed pins that the engine reports its leap
// accounting (the EXPERIMENTS worked example reads these).
func TestLeapCounterExposed(t *testing.T) {
	sys := buildCounterSys(t, DefaultConfig(coherence.WTI, mem.Arch1, 2))
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	leaps, cycles := sys.Engine.Leaps(), sys.Engine.LeapedCycles()
	if leaps == 0 || cycles < leaps {
		t.Fatalf("leap accounting implausible: %d leaps, %d leaped cycles", leaps, cycles)
	}
}

// TestClustersSleepIndependently is the per-cluster case of the
// equivalence: on a lock-and-barrier workload one CPU sits in a long
// stall while its neighbours retire, so clusters must sleep one by one
// — not only when the whole machine is dead — and every per-CPU counter
// a sleeping cluster owes (stall cycles, the re-fetches of its stalled
// instruction, write-buffer-full retries) must still come out as the
// naive schedule counts them.
func TestClustersSleepIndependently(t *testing.T) {
	const n = 4
	spec, err := workload.BuildOcean(mem.DefaultLayout(n), codegen.DS,
		workload.OceanParams{Threads: n, RowsPerThread: 2, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := func(naive bool) *System {
		cfg := DefaultConfig(coherence.WTI, mem.Arch2, n)
		cfg.DisableLeap = naive
		sys, err := Build(cfg, spec.Image)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("run (naive=%t): %v", naive, err)
		}
		return sys
	}
	naive, sched := run(true), run(false)
	var wbFull uint64
	for i := 0; i < n; i++ {
		a, b := naive.CPUs[i].Stats(), sched.CPUs[i].Stats()
		if *a != *b {
			t.Errorf("cpu %d: naive %+v, scheduled %+v", i, *a, *b)
		}
		if a, b := naive.ICaches[i].Fetches, sched.ICaches[i].Fetches; a != b {
			t.Errorf("icache %d: %d fetches naive, %d scheduled", i, a, b)
		}
		a2, b2 := naive.DCaches[i].Stats(), sched.DCaches[i].Stats()
		if *a2 != *b2 {
			t.Errorf("dcache %d: naive %+v, scheduled %+v", i, *a2, *b2)
		}
		wbFull += b2.WBufFullStalls
	}
	if wbFull == 0 {
		t.Error("no store ever retried against a full write buffer — that compensation went untested")
	}
	if naive.Engine.SkippedTicks() != 0 || naive.Engine.Leaps() != 0 {
		t.Errorf("the naive schedule skipped %d ticks and leaped %d times",
			naive.Engine.SkippedTicks(), naive.Engine.Leaps())
	}
	// Whole-machine leaps account for leaped×n cluster ticks; anything
	// beyond is a cluster asleep while a neighbour ran.
	cpus := sched.Engine.TickCounts()[0]
	if whole := sched.Engine.LeapedCycles() * n; cpus.Name != "cpus" || cpus.Skipped <= whole {
		t.Errorf("%s: %d ticks skipped, %d of them in whole-machine leaps — no cluster ever slept on its own",
			cpus.Name, cpus.Skipped, whole)
	}
}

// TestLivenessAbortEndsRun pins a port's exhausted retransmission budget
// through System.Run: a plan that drops every message node 0 sends ends
// the run at the cycle after the budget ran out, with the replayable
// plan and the stuck pcs in the error, on both schedules alike.
func TestLivenessAbortEndsRun(t *testing.T) {
	const spec = "drop=1@0>*,seed=1"
	run := func(disableLeap bool) string {
		cfg := DefaultConfig(coherence.WTI, mem.Arch1, 4)
		cfg.DisableLeap = disableLeap
		plan, err := fault.ParsePlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fault = plan
		sys := buildCounterSys(t, cfg)
		_, err = sys.Run()
		var le *coherence.LivenessError
		if !errors.Is(err, coherence.ErrLivenessBudget) || !errors.As(err, &le) {
			t.Fatalf("leap=%t: Run = %v; want the liveness budget error", !disableLeap, err)
		}
		for _, s := range []string{`(replay: -fault "` + spec + `")`, "(pcs: "} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("leap=%t: %q lacks %q", !disableLeap, err, s)
			}
		}
		if now := sys.Engine.Now(); now != le.Cycle+1 {
			t.Errorf("leap=%t: run ended at cycle %d; the budget ran out at %d", !disableLeap, now, le.Cycle)
		}
		return err.Error()
	}
	if scheduled, naive := run(false), run(true); scheduled != naive {
		t.Fatalf("schedules disagree:\nscheduled: %s\nnaive:     %s", scheduled, naive)
	}
}
