// Command sweep regenerates the paper's tables and figures. By default
// it runs everything; -exp selects one experiment.
//
// Usage:
//
//	sweep [-exp all|table1|table2|fig4|fig5|fig6|mesh|strictsc|bestworst|
//	       writeupdate|c2c|scale|dir|bus|ways|moesi|fault]
//	      [-sizes 4,16,32,64] [-quick] [-csv] [-chart] [-jobs N]
//	      [-fault drop=1e-4,delay=1e-3:8,seed=42]
//
// -jobs parallelizes across figure-grid simulations; it changes no
// output byte.
//
// The fault experiment is not part of -exp all: it measures robustness
// under injected NoC faults (see internal/fault), not the paper's
// figures, and keeping it out preserves the byte-identical default
// output the regression tests pin.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/exp"
	"repro/internal/obs/prof"
	"repro/internal/obs/resource"
	"repro/internal/stats"
)

func main() {
	which := flag.String("exp", "all", "experiment to run: all, table1, table2, fig4, fig5, fig6, mesh, strictsc, bestworst, writeupdate, c2c, scale, dir, bus, ways, moesi, fault")
	sizesFlag := flag.String("sizes", "4,16,32,64", "comma-separated CPU counts for the figure grid")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "simulations to run concurrently on the figure grid (1 = serial)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	chart := flag.Bool("chart", false, "render figure tables as ASCII bar charts too")
	obsInterval := flag.Uint64("obs-interval", 0, "sample metrics every K cycles during figure-grid runs")
	obsDir := flag.String("obs-dir", "", "directory for per-run interval CSVs (needs -obs-interval)")
	faultSpec := flag.String("fault", "", "fault campaign spec for -exp fault (default: the built-in grid); e.g. drop=1e-4,delay=1e-3:8,seed=42")
	resInterval := flag.Duration("resources", 0, "sample host-process resources every interval and print a summary on stderr at exit (0 = off)")
	profCfg := prof.RegisterFlags()
	flag.Parse()
	if err := rejectPositional(flag.Args()); err != nil {
		fatal(err)
	}
	stopProf, err := profCfg.Start()
	if err != nil {
		fatal(err)
	}
	// Profiling and resource sampling cover the whole sweep: for a
	// tool whose unit of work is a grid of simulations, the per-
	// invocation profile is the one that shows where the time and
	// memory go. Deferred so every -exp branch is covered; an error
	// path through fatal() exits without flushing profiles, which is
	// fine — the run it would have profiled did not finish either.
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()
	if *resInterval > 0 {
		rs := resource.Start(*resInterval)
		defer func() { fmt.Fprintf(os.Stderr, "sweep: %s\n", rs.Stop()) }()
	}

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	sc := exp.DefaultScale()
	if *quick {
		sc = exp.QuickScale()
	}

	emit := func(t *stats.Table) {
		if *csv {
			fmt.Print(t.CSV())
		} else {
			fmt.Println(t.Render())
		}
	}

	runTable1 := func() {
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
			t, err := exp.Table1(proto)
			if err != nil {
				fatal(err)
			}
			emit(t)
		}
	}
	if *obsDir != "" && *obsInterval == 0 {
		fatal(fmt.Errorf("-obs-dir requires -obs-interval"))
	}
	var observe *exp.Observe
	if *obsInterval > 0 {
		observe = &exp.Observe{Interval: *obsInterval, Dir: *obsDir}
	}

	runFigures := func(names ...string) {
		grid, err := exp.GridParallel(sizes, sc, observe, *jobs)
		if err != nil {
			fatal(err)
		}
		for _, name := range names {
			var t *stats.Table
			switch name {
			case "fig4":
				t = exp.Fig4(grid, sizes)
			case "fig5":
				t = exp.Fig5(grid, sizes)
			case "fig6":
				t = exp.Fig6(grid, sizes)
			}
			emit(t)
			if *chart {
				fmt.Println(figureChart(t))
			}
		}
	}
	runMesh := func() {
		t, err := exp.AblationMesh(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runStrict := func() {
		t, err := exp.AblationStrictSC(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runBestWorst := func() {
		t, err := exp.AblationBestWorst(16)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runWriteUpdate := func() {
		t, err := exp.AblationWriteUpdate(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runC2C := func() {
		t, err := exp.AblationC2C(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runScale := func() {
		t, err := exp.AblationScale(16, []int{2, 4, 8, 16})
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runDir := func() {
		t, err := exp.AblationDirLimited(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runBus := func() {
		t, err := exp.AblationBus([]int{4, 16}, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runWays := func() {
		t, err := exp.AblationWays(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runMOESI := func() {
		t, err := exp.AblationMOESI(16, sc)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	runFault := func() {
		specs := exp.DefaultFaultSpecs()
		if *faultSpec != "" {
			specs = []string{*faultSpec}
		}
		t, err := exp.FaultCampaign(4, sc, specs)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}

	switch *which {
	case "all":
		emit(exp.Table2(sizes))
		runTable1()
		runFigures("fig4", "fig5", "fig6")
		runMesh()
		runStrict()
		runBestWorst()
		runWriteUpdate()
		runC2C()
		runScale()
		runDir()
		runBus()
		runWays()
		runMOESI()
	case "table1":
		runTable1()
	case "table2":
		emit(exp.Table2(sizes))
	case "fig4", "fig5", "fig6":
		runFigures(*which)
	case "mesh":
		runMesh()
	case "strictsc":
		runStrict()
	case "bestworst":
		runBestWorst()
	case "writeupdate":
		runWriteUpdate()
	case "c2c":
		runC2C()
	case "scale":
		runScale()
	case "dir":
		runDir()
	case "bus":
		runBus()
	case "ways":
		runWays()
	case "moesi":
		runMOESI()
	case "fault":
		runFault()
	default:
		fatal(fmt.Errorf("unknown experiment %q", *which))
	}
}

// figureChart renders a figure table as bar pairs (WTI vs WB per
// cell), mimicking the paper's grouped bar figures.
func figureChart(t *stats.Table) string {
	var bars []stats.Bar
	for _, r := range t.Rows() {
		label := strings.Join(r[:3], "/")
		var wti, wb float64
		fmt.Sscanf(r[3], "%f", &wti)
		fmt.Sscanf(r[4], "%f", &wb)
		bars = append(bars,
			stats.Bar{Label: label + " WTI", Value: wti},
			stats.Bar{Label: label + " WB", Value: wb})
	}
	return stats.BarChart(t.Title, bars, 48)
}

// parseSizes parses the -sizes axis. Duplicates are dropped and the
// counts are sorted ascending, so "16,4,16" yields the same grid (and
// the same table rows, exactly once each) as "4,16".
func parseSizes(s string) ([]int, error) {
	seen := make(map[int]bool)
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if strings.HasPrefix(part, "-") {
			return nil, fmt.Errorf("bad CPU count %q in -sizes: looks like a flag, not a count", part)
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 || n > 64 {
			return nil, fmt.Errorf("bad CPU count %q (need 1..64)", part)
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// rejectPositional refuses leftover positional arguments: every option
// is a flag, so a stray token is almost always a misplaced flag and
// silently ignoring it would run a different sweep than asked.
func rejectPositional(args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q (all options are flags; see -h)", args[0])
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
