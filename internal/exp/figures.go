package exp

import (
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
)

// gridRuns enumerates the Figure 4–6 grid (both benches and
// architectures, both protocols, the given CPU counts) in its canonical
// order: bench, then architecture, then protocol, then CPU count.
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

func gridPoints(p Params) []Run { return gridRuns(p.Sizes) }

// figure is the Render of one figure over the grid.
func figure(f func(grid Results, sizes []int) *stats.Table) func(Params, []Run, Results) ([]*stats.Table, error) {
	return func(p Params, _ []Run, res Results) ([]*stats.Table, error) {
		return []*stats.Table{f(res, p.Sizes)}, nil
	}
}

// forEachCell iterates the figure grid in the paper's presentation
// order (Ocean before Water, Architecture 1 before 2, n ascending),
// handing f the cell's WTI run and both protocols' results.
func forEachCell(grid Results, sizes []int, f func(r Run, wti, wb *core.Result)) {
	for _, bench := range []Bench{Ocean, Water} {
		for _, arch := range []mem.Arch{mem.Arch1, mem.Arch2} {
			for _, n := range sizes {
				pair := wtiWB(Run{Bench: bench, Arch: arch, NumCPUs: n})
				f(pair[0], grid[pair[0]], grid[pair[1]])
			}
		}
	}
}

// Fig4 renders execution time in megacycles for every grid point —
// the paper's Figure 4. The paper's observations to compare against:
// WTI ≈ WB on both architectures, and Architecture 2 (DS) up to ~30%
// faster on Ocean with the gap growing with n.
func Fig4(grid Results, sizes []int) *stats.Table {
	t := stats.NewTable("Figure 4 — execution time (megacycles)",
		"bench", "arch", "cpus", "WTI", "WB", "WTI/WB")
	forEachCell(grid, sizes, func(r Run, wti, wb *core.Result) {
		t.AddRow(string(r.Bench), r.Arch.String(), r.NumCPUs,
			wti.MegaCycles(), wb.MegaCycles(),
			stats.Ratio(wti.MegaCycles(), wb.MegaCycles()))
	})
	return t
}

// Fig5 renders total NoC traffic in bytes — the paper's Figure 5. The
// paper's observation: same order of magnitude for both protocols, no
// systematic winner.
func Fig5(grid Results, sizes []int) *stats.Table {
	t := stats.NewTable("Figure 5 — total NoC traffic (bytes)",
		"bench", "arch", "cpus", "WTI", "WB", "WTI/WB")
	forEachCell(grid, sizes, func(r Run, wti, wb *core.Result) {
		t.AddRow(string(r.Bench), r.Arch.String(), r.NumCPUs,
			wti.TrafficBytes(), wb.TrafficBytes(),
			stats.Ratio(float64(wti.TrafficBytes()), float64(wb.TrafficBytes())))
	})
	return t
}

// Fig6 renders the percentage of data-cache stall cycles — the paper's
// Figure 6. The paper's observation: both protocols nearly identical;
// Architecture 1 stalls more; ~70% at 32+ CPUs on Architecture 1.
func Fig6(grid Results, sizes []int) *stats.Table {
	t := stats.NewTable("Figure 6 — data-cache stall cycles (% of execution)",
		"bench", "arch", "cpus", "WTI%", "WB%")
	forEachCell(grid, sizes, func(r Run, wti, wb *core.Result) {
		t.AddRow(string(r.Bench), r.Arch.String(), r.NumCPUs,
			wti.DataStallPercent(), wb.DataStallPercent())
	})
	return t
}
