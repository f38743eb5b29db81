package main

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
)

// cell is one simulation point with its problem size: what one
// operation of the benchmark builds, runs and verifies.
type cell struct {
	run   exp.Run
	scale exp.Scale
}

// benchWorkload is one named set of cells. The five pins have one cell, the
// figure grid sixteen.
type benchWorkload struct {
	name string
	// why says which layers dominate the workload's host time and which
	// optimisation it is there to show or to bypass; it is the text of
	// BENCHMARK.json's "why".
	why string
	// cells returns the points at size variant k (see variant).
	cells func(k int) []cell
	// fixedSize marks the two workloads the seed does not vary. Their
	// trip counts are so small (ocean_wti_n64 runs 2 iterations, the
	// grid 3-4) that one more changes what is measured, not how much of
	// it: at 5 iterations ocean_wti_n64 costs 6.5% more host time per
	// cycle and has a 7.5% lower sim_cpi than at 2, the start-up phase
	// being a third of the run, and each rep takes twice as long. Every
	// metric is a rate or a ratio so that it can be compared across
	// seeds; on these two they could not be.
	fixedSize bool
	// check, when set, is a reference check made once per set of runs
	// and counted as one operation.
	check func() error
	// byHand marks the two workloads BENCHMARK.json does not list. The
	// driver's time limit for all its runs allows four workloads at runs
	// long enough to be steady on the shared host; the historical pin
	// (its layers' shares lie between ocean_wti_n4's and ocean_wti_n64's)
	// and the figure grid are run by hand: without -workload, which runs
	// all six, or by name.
	byHand bool
}

// variant maps -seed to the workload's size variant 0..3, which is added
// to the trip counts (ocean iters, water steps). The workloads' data are
// fixed by their generators, so the trip count is the only input there
// is to vary: seed 1 is the documented size, the other three re-check a
// claim on trip counts it was not tuned on.
func (w benchWorkload) variant(seed int) int {
	if w.fixedSize {
		return 0
	}
	return ((seed-1)%4 + 4) % 4
}

// grown adds k to the trip counts sc uses.
func grown(sc exp.Scale, k int) exp.Scale {
	if sc.OceanIters > 0 {
		sc.OceanIters += k
	}
	if sc.WaterSteps > 0 {
		sc.WaterSteps += k
	}
	return sc
}

func pin(bench exp.Bench, proto coherence.Protocol, n int, net core.NoCKind, sc exp.Scale) func(int) []cell {
	return func(k int) []cell {
		return []cell{{
			run:   exp.Run{Bench: bench, Protocol: proto, Arch: mem.Arch2, NumCPUs: n, NoC: net},
			scale: grown(sc, k),
		}}
	}
}

// figGrid is the Fig. 4–6 grid at n ∈ {4,16} in exp.Grid's canonical
// order (bench, architecture, protocol, size).
func figGrid(k int) []cell {
	sc := grown(exp.DefaultScale(), k)
	var cells []cell
	for _, bench := range []exp.Bench{exp.Ocean, exp.Water} {
		for _, arch := range []mem.Arch{mem.Arch1, mem.Arch2} {
			for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
				for _, n := range []int{4, 16} {
					cells = append(cells, cell{
						run:   exp.Run{Bench: bench, Protocol: proto, Arch: arch, NumCPUs: n},
						scale: sc,
					})
				}
			}
		}
	}
	return cells
}

// workloads is the benchmark's fixed set; BENCHMARK.json lists the
// names and reasons of those not marked byHand (pinned by
// TestBenchmarkJSONAgrees).
var workloads = []benchWorkload{
	{
		name:  "ocean_wti_n4",
		why:   "smallest machine, lowest stall share: fixed per-cycle cost (sim dispatch, core leap oracle) and the cpu interpreter are the largest share of host time here",
		cells: pin(exp.Ocean, coherence.WTI, 4, core.GMNNet, exp.Scale{OceanRows: 32, OceanIters: 32}),
	},
	{
		name:   "ocean_wti_n16",
		why:    "the historical BENCH_PR pin at 10x the length: write-through traffic to 19 banks, almost no cycle leaped, so a wake or leap optimisation should show almost nothing here",
		cells:  pin(exp.Ocean, coherence.WTI, 16, core.GMNNet, exp.Scale{OceanRows: 8, OceanIters: 24}),
		byHand: true,
	},
	{
		name:  "water_wb_n16",
		why:   "the coherence layer used the other way: MESI write-back, spin-locks, blocking exclusivity, over 90% stall; where a free stalled core pays most and a WTI-only change pays nothing",
		cells: pin(exp.Water, coherence.WBMESI, 16, core.GMNNet, exp.Scale{WaterMols: 6, WaterSteps: 4}),
	},
	{
		name:      "ocean_wti_n64",
		why:       "the scale point: 131 nodes, 67 banks polled every cycle, microseconds per simulated cycle; the roadmap states its 8x target here",
		cells:     pin(exp.Ocean, coherence.WTI, 64, core.GMNNet, exp.Scale{OceanRows: 4, OceanIters: 2}),
		fixedSize: true,
	},
	{
		name:  "ocean_wti_mesh_n16",
		why:   "ocean_wti_n16 on the 2D-mesh routers: the only point where noc does most of the work, so NoC changes show here and must not move the GMN pins",
		cells: pin(exp.Ocean, coherence.WTI, 16, core.MeshNet, exp.Scale{OceanRows: 8, OceanIters: 4}),
	},
	{
		name:      "fig_grid_n4_n16",
		why:       "what users run: the Fig. 4-6 grid, 16 short runs with build and host-reference verify included, and the only arch1/SMP cells; set-up costs show here and nowhere else",
		cells:     figGrid,
		fixedSize: true,
		check:     func() error { return checkTable1(paperTable1JSON) },
		byHand:    true,
	},
}

func findWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
