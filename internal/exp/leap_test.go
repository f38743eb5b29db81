package exp

// Scheduled-vs-naive regression grid over real workloads. The water rows
// are the ones that exposed the write-buffer-departure veto (a
// data-stalled load blocked on HasUnsentInBlock reacts one cycle after
// the departing entry leaves for the network, with no message delivery
// to wake it); internal/core's TestLeapEquivalence covers the
// per-protocol/per-NoC matrix on the cheaper counter workload.

import (
	"reflect"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
)

func runPoint(t *testing.T, r Run, sc Scale, disableLeap bool) (*core.Result, *core.System) {
	t.Helper()
	cfg, err := r.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.DisableLeap = disableLeap
	cfg.MaxCycles = 3_000_000
	sys, _, err := Build(r, cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("%s leap=%t: %v", r.Key(), !disableLeap, err)
	}
	return res, sys
}

func TestLeapEquivalenceWorkloads(t *testing.T) {
	sc := QuickScale()
	pts := []Run{
		{Bench: Water, Protocol: coherence.WTI, Arch: mem.Arch1, NumCPUs: 2},
		{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch1, NumCPUs: 2},
		{Bench: Water, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 2},
		{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 2},
		{Bench: Water, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4},
		{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 4},
		{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4},
		{Bench: Ocean, Protocol: coherence.WTU, Arch: mem.Arch2, NumCPUs: 4},
		{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch1, NumCPUs: 2, StrictSC: true},
		// Real routers and the bus: on these the network's own wake
		// answer (per-router wake times, the bus tenure) gates its Tick,
		// under contention the 2-CPU counter in core's test never raises.
		{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4, NoC: core.MeshNet},
		{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 4, NoC: core.MeshNet},
		{Bench: Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4, NoC: core.BusNet},
		// Bank stall windows: -noleap must stay the reference when the
		// network ticker sleeps through cycles that draw.
		{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 4, Fault: "bankstall=0.005:16,seed=42"},
		// MESI's eviction-buffer stall on a load miss (its victim dirty,
		// the previous writeback still unacknowledged): the cheapest
		// machine measured that reaches it, once, in 0.1 Mcyc.
		{Bench: Water, Protocol: coherence.MOESI, Arch: mem.Arch2, NumCPUs: 8},
	}
	// check returns the instructions the scheduled run's cores retired
	// ahead of the clock and the spin sleeps they entered.
	check := func(r Run, sc Scale) (ahead, spins uint64) {
		naive, _ := runPoint(t, r, sc, true)
		sched, sys := runPoint(t, r, sc, false)
		if naive.Cycles != sched.Cycles {
			t.Errorf("%s: cycles naive=%d scheduled=%d (diff %d)",
				r.Key(), naive.Cycles, sched.Cycles,
				int64(sched.Cycles)-int64(naive.Cycles))
		}
		// Clusters sleep one by one at n=4 on these workloads, so the
		// per-CPU rows — stall cycles, write-buffer-full retries — and
		// the I-fetch total must match too, not just the end cycle.
		naive.Config.DisableLeap = false
		if !reflect.DeepEqual(naive, sched) {
			t.Errorf("%s: results differ:\nnaive:     %+v\nscheduled: %+v", r.Key(), naive, sched)
		}
		for _, c := range sys.CPUs {
			n, _ := c.Ahead()
			s, _, _ := c.Spun()
			ahead, spins = ahead+n, spins+s
		}
		return ahead, spins
	}
	for _, r := range pts {
		check(r, sc)
	}
	// MESI's eviction-buffer stall on a write miss (its victim dirty, the
	// previous writeback still unacknowledged) is reached by no quick
	// point; this one, 0.12 Mcyc at the default scale, is the cheapest
	// measured that reaches it.
	check(Run{Bench: Ocean, Protocol: coherence.WBMESI, Arch: mem.Arch2, NumCPUs: 16}, DefaultScale())
	// The mesh's lookahead is its routers' Reach for the cluster's node,
	// not one constant a packet at its last router bounds: its cores run
	// ahead and sleep in spins as the GMN's do.
	mesh := Run{Bench: Water, Protocol: coherence.WBMESI, Arch: mem.Arch1, NumCPUs: 16, NoC: core.MeshNet}
	if ahead, spins := check(mesh, sc); ahead == 0 || spins == 0 {
		t.Errorf("%s: %d instructions run ahead, %d spin sleeps: the mesh row leans on nothing", mesh.Key(), ahead, spins)
	}
}
