package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"repro/internal/stats"
)

// value is one metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultLine gathers the set's metrics: the end-to-end ones, or with
// trace the per-layer ones. With one workload the keys are the metric
// names; with several, "workload.metric".
func resultLine(set []*wlRun, trace bool) result {
	res := result{Correct: true, Metrics: map[string]value{}}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, r := range set {
		res.Attempted += r.ops
		res.Failed += r.failed
		values := r.endToEnd
		if trace {
			values = r.perLayer
		}
		if r.failed > 0 || values == nil {
			res.Correct = false
			continue
		}
		prefix := ""
		if len(set) > 1 {
			prefix = r.w.name + "."
		}
		for name, v := range withUnits(defs, values) {
			res.Metrics[prefix+name] = v
		}
	}
	return res
}

// withUnits pairs the defined metrics' values with their units.
func withUnits(defs []metricDef, values map[string]float64) map[string]value {
	if values == nil {
		return nil
	}
	m := map[string]value{}
	for _, d := range defs {
		m[d.Name] = value{values[d.Name], d.Unit}
	}
	return m
}

// repSummaries turns the whole-rep readings into the three host-speed
// metrics they can be stated in, for the record beside the reported
// values (which are composed of fastest slices in reference-host time,
// not of whole reps on this host's clock).
func (r *wlRun) repSummaries() map[string]summary {
	if r.endToEnd == nil || len(r.repRun) == 0 {
		return nil
	}
	cycles, _, instr, _, _ := simTotals(r.accs)
	var a, b, c []float64
	for i := range r.repRun {
		a = append(a, stats.Mega(cycles)/r.repRun[i].Seconds())
		b = append(b, stats.Mega(instr)/r.repRun[i].Seconds())
		c = append(c, r.repWall[i].Seconds()/stats.Mega(cycles))
	}
	return map[string]summary{
		"mcyc_per_s":      summarize(a, "higher"),
		"minstr_per_s":    summarize(b, "higher"),
		"wall_s_per_mcyc": summarize(c, "lower"),
	}
}

// printRun prints every metric of one workload by name and unit.
func printRun(w io.Writer, r *wlRun) {
	fmt.Fprintf(w, "== %s: size variant %d, %d cells, %d reps, %d ops, %d failed\n",
		r.w.name, r.variant, len(r.cells), len(r.repRun), r.ops, r.failed)
	if len(r.speeds) > 0 {
		fmt.Fprintf(w, "   host times are in reference-host time; this host ran at %.1f%% of the reference host's speed (%.1f%%..%.1f%% over the operations)\n",
			100*median(r.speeds), 100*slices.Min(r.speeds), 100*slices.Max(r.speeds))
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "   FAILED", e)
	}
	if r.endToEnd == nil {
		return
	}
	reps := r.repSummaries()
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-36s %14.6g %-9s %s is better, bound %g%%", d.Name, r.endToEnd[d.Name], d.Unit, d.Better, 100*d.Bound)
		if s, ok := reps[d.Name]; ok {
			fmt.Fprintf(w, "; whole reps on this host's clock: best %.6g median %.6g spread %.1f%%", s.Best, s.Median, 100*s.Spread)
		}
		fmt.Fprintln(w)
	}
	if r.perLayer == nil {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.Name, r.perLayer[d.Name], d.Unit)
	}
}

// selfcheck compares two sets of runs of the same code: every
// end-to-end metric within its bound, every exact metric identical.
// It reports whether they agree.
func selfcheck(w io.Writer, a, b []*wlRun) bool {
	ok := true
	fmt.Fprintf(w, "== selfcheck: second set against the first\n")
	fmt.Fprintf(w, "  %-20s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for i, ra := range a {
		rb := b[i]
		if ra.failed+rb.failed > 0 || ra.endToEnd == nil || rb.endToEnd == nil {
			fmt.Fprintf(w, "  %-20s an operation failed\n", ra.w.name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.endToEnd[d.Name], rb.endToEnd[d.Name]
			worse := (vb - va) / va
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			switch {
			case d.Exact && va != vb:
				verdict = "  DIFFERS (exact metric)"
				ok = false
			case worse > d.Bound || -worse > d.Bound:
				verdict = "  OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(w, "  %-20s %-18s %14.6g %14.6g %+8.2f%% %6g%%%s\n",
				ra.w.name, d.Name, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if d.Exact && ra.perLayer != nil && ra.perLayer[d.Name] != rb.perLayer[d.Name] {
				fmt.Fprintf(w, "  %-20s %-18s %14.6g %14.6g  DIFFERS (exact metric)\n",
					ra.w.name, d.Name, ra.perLayer[d.Name], rb.perLayer[d.Name])
				ok = false
			}
		}
	}
	return ok
}

// report is the -o file: everything the run measured, with the host it
// was measured on.
type report struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int     `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// ClockNs is the calibrated cost of an empty span, subtracted from
	// every span; TraceStride the sampling stride in cycles. Both are
	// zero without -trace 1.
	ClockNs     int64            `json:"clock_ns"`
	TraceStride int              `json:"trace_stride"`
	Reference   string           `json:"reference"`
	Workloads   []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Variant   int      `json:"size_variant"`
	Cells     []string `json:"cells"`
	Reps      int      `json:"reps"`
	Ops       int      `json:"ops"`
	FailedOps int      `json:"failed_ops"`
	Errors    []string `json:"errors,omitempty"`
	// WholeReps is median and spread of the readings a whole rep at a
	// time gives, beside EndToEnd's fastest-slice values.
	WholeReps map[string]summary `json:"whole_reps,omitempty"`
	EndToEnd  map[string]value   `json:"end_to_end,omitempty"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
	// Spans is the traced run's aggregate per layer, "cycle" being the
	// parent span of the others.
	Spans map[string]spanAgg `json:"spans,omitempty"`
}

func writeReport(path string, opt options, clockNs int64, set []*wlRun) error {
	rep := report{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, Seconds: opt.seconds, ClockNs: clockNs, Reference: referenceNote,
	}
	if opt.trace {
		rep.TraceStride = traceStride
	}
	for _, r := range set {
		wr := workloadReport{
			Name: r.w.name, Variant: r.variant, Reps: len(r.repRun), Ops: r.ops, FailedOps: r.failed,
			Errors: r.errs, WholeReps: r.repSummaries(),
			EndToEnd: withUnits(endToEnd, r.endToEnd), PerLayer: withUnits(perLayer, r.perLayer),
		}
		for _, c := range r.cells {
			wr.Cells = append(wr.Cells, fmt.Sprintf("%s/%v %+v", c.run.Key(), c.run.NoC, c.scale))
		}
		if r.perLayer != nil {
			wr.Spans = map[string]spanAgg{"cycle": r.tracer.cycle}
			for l, name := range layerNames {
				wr.Spans[name] = r.tracer.layers[l]
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(enc, '\n'), 0o644)
}
