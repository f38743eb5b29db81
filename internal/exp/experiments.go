package exp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Params is what one invocation contributes to every experiment.
type Params struct {
	Sizes   []int    // the figure grid's CPU counts, ascending (also Table 2's rows)
	Scale   Scale    // workload size of every point that does not pin its own
	Faults  []string // fault-campaign specs; nil selects DefaultFaultSpecs
	Observe *Observe // per-run sampling of every simulated point, or nil
	Jobs    int      // simulations in flight at once (< 1: GOMAXPROCS)
}

// Results holds finished points by their Run.
type Results map[Run]*core.Result

// Experiment is one entry of the experiment table: the points it needs
// and the renderer from their results to tables.
type Experiment struct {
	Name string
	// All reports whether the selection "all" includes the experiment.
	All bool
	// Faults marks the experiment that reads Params.Faults.
	Faults bool
	// Points lists the simulations to run, in the order their errors
	// are reported; nil when the experiment runs none.
	Points func(p Params) []Run
	// Render builds the experiment's tables. runs is what Points
	// returned, and res holds at least those. Only Table 1's directed
	// probes, which are not Runs, execute here.
	Render func(p Params, runs []Run, res Results) ([]*stats.Table, error)
}

// Experiments is the experiment table, in the order "all" emits it.
// The constants of each experiment — machine size, axis values — live
// in its entry.
var Experiments = []*Experiment{
	{Name: "table2", All: true,
		Render: func(p Params, _ []Run, _ Results) ([]*stats.Table, error) {
			return []*stats.Table{Table2(p.Sizes)}, nil
		}},
	{Name: "table1", All: true, Render: renderTable1},
	{Name: "fig4", All: true, Points: gridPoints, Render: figure(Fig4)},
	{Name: "fig5", All: true, Points: gridPoints, Render: figure(Fig5)},
	{Name: "fig6", All: true, Points: gridPoints, Render: figure(Fig6)},
	{Name: "mesh", All: true, Points: fixed(meshRuns(16)), Render: table(renderMesh)},
	{Name: "strictsc", All: true, Points: fixed(strictSCRuns(16)), Render: table(renderStrictSC)},
	{Name: "bestworst", All: true, Points: fixed(bestWorstRuns(16)), Render: table(renderBestWorst)},
	{Name: "writeupdate", All: true, Points: fixed(writeUpdateRuns(16)), Render: table(renderWriteUpdate)},
	{Name: "c2c", All: true, Points: fixed(c2cRuns(16)), Render: table(renderC2C)},
	{Name: "scale", All: true, Points: fixed(scaleRuns(16, []int{2, 4, 8, 16})), Render: table(renderScale)},
	{Name: "dir", All: true, Points: fixed(dirRuns(16)), Render: table(renderDir)},
	{Name: "bus", All: true, Points: fixed(busRuns([]int{4, 16})), Render: table(renderBus)},
	{Name: "ways", All: true, Points: fixed(waysRuns(16)), Render: table(renderWays)},
	{Name: "moesi", All: true, Points: fixed(moesiRuns(16)), Render: table(renderMOESI)},
	// Not part of "all": it measures robustness under injected NoC
	// faults, not the paper's figures.
	{Name: "fault", Faults: true,
		Points: func(p Params) []Run { return faultRuns(4, p.Faults) },
		Render: table(renderFault)},
}

// fixed is the Points of an experiment whose runs no parameter moves.
func fixed(runs []Run) func(Params) []Run {
	return func(Params) []Run { return runs }
}

// table is the Render of an experiment that is one table of its runs.
func table(f func(runs []Run, res Results) *stats.Table) func(Params, []Run, Results) ([]*stats.Table, error) {
	return func(_ Params, runs []Run, res Results) ([]*stats.Table, error) {
		return []*stats.Table{f(runs, res)}, nil
	}
}

// Names lists what Select accepts, "all" first.
func Names() []string {
	names := []string{"all"}
	for _, e := range Experiments {
		names = append(names, e.Name)
	}
	return names
}

// Select resolves a selection: "all", or the name of one experiment.
func Select(name string) ([]*Experiment, error) {
	var sel []*Experiment
	for _, e := range Experiments {
		if e.Name == name || (name == "all" && e.All) {
			sel = append(sel, e)
		}
	}
	if sel == nil {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return sel, nil
}

// Tables runs the experiment: its points that are not yet in done go
// through ExecuteAll and are added to done, then the experiment
// renders. Sharing one done across experiments simulates a point they
// have in common once — Figures 4–6 are one grid, and most ablations
// start from one of its cells.
func (e *Experiment) Tables(p Params, done Results) ([]*stats.Table, error) {
	var runs, todo []Run
	if e.Points != nil {
		runs = e.Points(p)
	}
	for _, r := range runs {
		if done[r] == nil {
			todo = append(todo, r)
		}
	}
	results, err := ExecuteAll(todo, p.Scale, p.Observe, p.Jobs)
	if err != nil {
		return nil, err
	}
	for i, r := range todo {
		done[r] = results[i]
	}
	return e.Render(p, runs, done)
}
