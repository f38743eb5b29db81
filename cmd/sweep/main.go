// Command sweep regenerates the paper's tables and figures by walking
// the experiment table of internal/exp. By default it runs everything
// that table marks as part of "all"; -exp selects one experiment (-h
// lists the names).
//
// Usage:
//
//	sweep [-exp NAME] [-sizes 4,16,32,64] [-quick] [-csv]
//	      [-jobs N] [-fault drop=1e-4,delay=1e-3:8,seed=42]
//	      [-obs-interval K -obs-dir DIR]
//	      [-cpuprofile FILE] [-memprofile FILE]
//
// -jobs parallelizes across the simulations of each experiment; it
// changes no output byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/obs/prof"
)

func main() {
	which := flag.String("exp", "all", "experiment to run: "+strings.Join(exp.Names(), ", "))
	sizesFlag := flag.String("sizes", "4,16,32,64", "comma-separated CPU counts for the figure grid")
	quick := flag.Bool("quick", false, "use reduced workload sizes")
	jobs := flag.Int("jobs", runtime.GOMAXPROCS(0), "simulations of one experiment to run concurrently (1 = serial)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	obsInterval := flag.Uint64("obs-interval", 0, "sample metrics every K cycles during every simulation (needs -obs-dir)")
	obsDir := flag.String("obs-dir", "", "directory for per-run interval CSVs (needs -obs-interval)")
	faultSpec := flag.String("fault", "", "one fault campaign spec instead of the built-in grid, for the experiment that runs campaigns; e.g. drop=1e-4,delay=1e-3:8,seed=42")
	profCfg := prof.RegisterFlags()
	flag.Parse()
	if err := prof.RejectPositional(flag.Args()); err != nil {
		fatal(err)
	}
	selected, err := exp.Select(*which)
	if err != nil {
		usage(err)
	}
	if err := checkFlagUse(selected, *faultSpec != "", *obsInterval > 0 || *obsDir != ""); err != nil {
		usage(err)
	}
	if *obsDir != "" && *obsInterval == 0 {
		usage(fmt.Errorf("-obs-dir requires -obs-interval"))
	}
	if *obsInterval > 0 && *obsDir == "" {
		usage(fmt.Errorf("-obs-interval does nothing without -obs-dir: the samples would be discarded"))
	}
	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	params := exp.Params{Sizes: sizes, Scale: exp.DefaultScale(), Jobs: *jobs}
	if *quick {
		params.Scale = exp.QuickScale()
	}
	if *faultSpec != "" {
		params.Faults = []string{*faultSpec}
	}
	if *obsInterval > 0 {
		params.Observe = &exp.Observe{Interval: *obsInterval, Dir: *obsDir}
	}

	stopProf, err := profCfg.Start()
	if err != nil {
		fatal(err)
	}
	// Profiling covers the whole sweep: for a tool whose unit of work
	// is a grid of simulations, the per-invocation profile is the one
	// that shows where the time and memory go. An error path through
	// fatal() exits without flushing profiles, which is fine — the run
	// it would have profiled did not finish either.
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	done := exp.Results{}
	for _, e := range selected {
		tables, err := e.Tables(params, done)
		if err != nil {
			fatal(err)
		}
		for _, t := range tables {
			if *csv {
				fmt.Print(t.CSV())
			} else {
				fmt.Println(t.Render())
			}
		}
	}
}

// checkFlagUse refuses flags the selection would silently ignore: the
// fault spec when the selection is not an experiment that reads it, and
// the observe flags when nothing selected has simulation points to
// sample.
func checkFlagUse(selected []*exp.Experiment, fault, observe bool) error {
	var anyPoints bool
	for _, e := range selected {
		anyPoints = anyPoints || e.Points != nil
	}
	switch {
	case fault && (len(selected) != 1 || !selected[0].Faults):
		return fmt.Errorf("-fault does nothing with this -exp: no selected experiment takes a fault spec")
	case observe && !anyPoints:
		return fmt.Errorf("-obs-interval and -obs-dir do nothing with this -exp: no selected experiment has points to sample")
	}
	return nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}

// usage reports a flag combination that cannot mean anything, with the
// flag package's own exit code for a bad command line.
func usage(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(2)
}
