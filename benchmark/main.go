// Command benchmark is the repository's benchmark: five pinned runs and
// the Fig. 4–6 grid, host speed end to end, and per-layer tick cost from
// a traced run whose schedule the harness steps itself. BENCHMARK.json
// at the repository root names the command, the workloads and the
// metrics; README.md beside this file is the glossary.
//
// It is a closed loop on one goroutine: each operation (build, run,
// verify one cell) starts when the previous one has finished.
//
// Usage:
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds S]
//	                   [-trace 0|1] [-selfcheck] [-o FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupPasses is how many times a workload is set up before it is run;
// every rep sets it up once more.
const setupPasses = 21

type options struct {
	workload  string
	seed      int
	seconds   float64
	trace     bool
	selfcheck bool
	out       string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: all six)")
	fs.IntVar(&o.seed, "seed", 1, "adds (seed-1) mod 4 to every trip count")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure each workload for this long (at least one rep; with -trace 1 a third of it is the traced reps)")
	trace := fs.Int("trace", 0, "1: add the traced run and report the per-layer metrics")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets back to back and compare them within the bounds")
	fs.StringVar(&o.out, "o", "", "write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// Every option is a flag, so a stray token is a typo'd or misplaced
	// flag; ignoring it would run a different benchmark than asked.
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q (all options are flags; see -h)", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("-trace takes 0 or 1, not %d", *trace)
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if o.workload != "" {
		if _, err := findWorkload(o.workload); err != nil {
			return o, err
		}
	}
	return o, nil
}

// wlRun is the measurement of one workload in one set of runs.
type wlRun struct {
	w       benchWorkload
	variant int
	cells   []cell
	// accs and traced hold the fastest pieces of the untraced and the
	// traced operations, one accumulator per cell.
	accs, traced []*cellAcc
	tracer       tracer
	elapsed      time.Duration
	// repRun and repWall are the whole-rep readings on this host's
	// clock, kept for the median and spread recorded beside each
	// reported value; speeds and tracedSpeeds are the host's speed
	// during each untraced and traced operation (ref.go).
	repRun, repWall      []time.Duration
	speeds, tracedSpeeds []float64
	ops, failed          int
	errs                 []string

	endToEnd, perLayer map[string]float64
}

func newRun(w benchWorkload, seed int) *wlRun {
	r := &wlRun{w: w, variant: w.variant(seed)}
	r.cells = w.cells(r.variant)
	for range r.cells {
		r.accs = append(r.accs, &cellAcc{})
		r.traced = append(r.traced, &cellAcc{})
	}
	return r
}

func (r *wlRun) fail(what string, err error) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf("%s: %s: %v", r.w.name, what, err))
	fmt.Fprintln(os.Stderr, "benchmark: FAILED", r.errs[len(r.errs)-1])
}

// setup times setupPasses set-ups of the workload. They are not
// operations of their own; one that fails is a failed operation.
func (r *wlRun) setup() {
	for pass := 0; pass < setupPasses; pass++ {
		for i, c := range r.cells {
			var o opResult
			runtime.GC() // as before a rep's build: every set-up starts from a collected heap
			if _, _, _, err := build(c, &o); err != nil {
				r.ops++
				r.fail(c.run.Key(), err)
				return
			}
			r.accs[i].foldBuild(&o)
		}
	}
}

// rep runs every cell of the workload once.
func (r *wlRun) rep(buf []timedSlice) {
	t0 := time.Now()
	var run, wall time.Duration
	for i, c := range r.cells {
		r.ops++
		o, err := runOp(c, buf)
		if err == nil {
			err = r.accs[i].fold(&o)
		}
		if err != nil {
			r.fail(c.run.Key(), err)
			return
		}
		run += o.rawRun
		wall += o.rawWall
		r.speeds = append(r.speeds, o.hostSpeed)
	}
	r.repRun = append(r.repRun, run)
	r.repWall = append(r.repWall, wall)
	r.elapsed += time.Since(t0)
}

// traceRep runs every cell once on the harness's stepped schedule and
// holds each to its untraced statistics.
func (r *wlRun) traceRep(buf []timedSlice) {
	for i, c := range r.cells {
		runtime.GC()
		r.ops++
		o, err := traceOp(c, &r.tracer, buf)
		if err == nil && !o.snap.equal(r.accs[i].first.snap) {
			err = fmt.Errorf("traced run's statistics differ from the untraced run's")
		}
		if err == nil {
			err = r.traced[i].fold(&o)
		}
		if err != nil {
			r.fail(c.run.Key()+" (traced)", err)
			continue
		}
		r.tracedSpeeds = append(r.tracedSpeeds, o.hostSpeed)
	}
}

// complete reports whether every cell has a finished operation of each
// kind asked for, so that every metric has a value.
func (r *wlRun) complete(trace bool) bool {
	for i := range r.cells {
		if r.accs[i].reps == 0 || (trace && r.traced[i].reps == 0) {
			return false
		}
	}
	return true
}

// runSet measures the workloads once: set-up passes, then reps in
// round-robin — so a burst of interference on the host is spread over
// the workloads instead of landing on one — for opt.seconds each, then
// the traced reps.
func runSet(ws []benchWorkload, opt options, clockNs int64, stepNs float64) []*wlRun {
	// One slice-time buffer serves every operation: it is sized for the
	// longest run here, so the timed region never allocates for it.
	buf := make([]timedSlice, 0, 1<<16)
	var runs []*wlRun
	for _, w := range ws {
		r := newRun(w, opt.seed)
		r.tracer.clockNs = clockNs
		if w.check != nil {
			r.ops++
			if err := w.check(); err != nil {
				r.fail("reference", err)
			}
		}
		r.setup()
		runs = append(runs, r)
	}
	// -seconds covers the whole measurement of a workload: with the
	// traced run, two thirds of it go to the untraced reps and a third to
	// the traced ones. A rep that would overrun the budget is not begun.
	budget := time.Duration(opt.seconds * float64(time.Second))
	untraced := budget
	if opt.trace {
		untraced = budget * 2 / 3
	}
	fits := func(spent, limit time.Duration, reps int) bool {
		return reps == 0 || spent+spent/time.Duration(reps) <= limit
	}
	for active := true; active; {
		active = false
		for _, r := range runs {
			if r.failed == 0 && fits(r.elapsed, untraced, len(r.repRun)) {
				r.rep(buf)
				active = true
			}
		}
	}
	for _, r := range runs {
		if opt.trace {
			// The traced run is one reading of each layer, not a set of
			// reps to pick the fastest from, but its wall time is compared
			// with the untraced one and so is composed of fastest slices
			// in the same way.
			t0 := time.Now()
			for reps := 0; r.failed == 0 && fits(time.Since(t0), budget-untraced, reps); reps++ {
				r.traceRep(buf)
			}
		}
		if r.complete(opt.trace) {
			r.endToEnd = endToEndValues(r.accs)
			if opt.trace {
				r.perLayer = countValues(r.accs)
				for k, v := range traceValues(r, stepNs) {
					r.perLayer[k] = v
				}
			}
		}
	}
	return runs
}

func main() {
	opt, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		os.Exit(2)
	}
	ws := workloads
	if opt.workload != "" {
		w, _ := findWorkload(opt.workload)
		ws = []benchWorkload{w}
	}

	var clockNs int64
	var stepNs float64
	if opt.trace {
		clockNs = calibrateClock()
		stepNs = engineStepNs()
	}
	sets := [][]*wlRun{runSet(ws, opt, clockNs, stepNs)}
	if opt.selfcheck {
		sets = append(sets, runSet(ws, opt, clockNs, stepNs))
	}
	last := sets[len(sets)-1]

	ok := true
	for _, set := range sets {
		for _, r := range set {
			printRun(os.Stdout, r)
			ok = ok && r.failed == 0
		}
	}
	fmt.Println(referenceNote)
	if opt.trace {
		fmt.Printf("trace: clock_ns %d subtracted from every span, spans on every %dth cycle\n", clockNs, traceStride)
	}
	if opt.selfcheck && !selfcheck(os.Stdout, sets[0], sets[1]) {
		ok = false
	}
	if opt.out != "" {
		if err := writeReport(opt.out, opt, clockNs, last); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	line, err := json.Marshal(resultLine(last, opt.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}
