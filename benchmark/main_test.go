package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/mem"
)

// toyCells are the equivalence grid: both of the paper's protocols on
// every interconnect at n2 and n4, ocean and water, arch1 and arch2.
func toyCells() []cell {
	var cells []cell
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		for _, net := range []core.NoCKind{core.GMNNet, core.MeshNet, core.BusNet} {
			cells = append(cells,
				cell{exp.Run{Bench: exp.Ocean, Protocol: proto, Arch: mem.Arch2, NumCPUs: 4, NoC: net}, exp.QuickScale()},
				cell{exp.Run{Bench: exp.Water, Protocol: proto, Arch: mem.Arch1, NumCPUs: 2, NoC: net}, exp.QuickScale()})
		}
	}
	return cells
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	buf := make([]timedSlice, 0, 1024)
	for _, c := range toyCells() {
		name := c.run.Key() + "/" + c.run.NoC.String()
		plain, err := runOp(c, buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var tr tracer
		traced, err := traceOp(c, &tr, buf)
		if err != nil {
			t.Fatalf("%s: traced: %v", name, err)
		}
		if !traced.snap.equal(plain.snap) {
			t.Errorf("%s: traced statistics differ:\n traced %+v\n plain  %+v", name, traced.snap, plain.snap)
		}
		if tr.cycles != plain.snap.Cycles {
			t.Errorf("%s: tracer stepped %d cycles, run took %d", name, tr.cycles, plain.snap.Cycles)
		}
		if want := (plain.snap.Cycles + traceStride - 1) / traceStride; tr.cycle.Count != want || tr.layers[layerNoC].Count != want {
			t.Errorf("%s: %d sampled cycles, want every %dth of %d = %d", name, tr.cycle.Count, traceStride, plain.snap.Cycles, want)
		}
	}
}

// The untraced operation drives the engine in slices instead of calling
// core.System.Run; its results must be System.Run's.
func TestSlicedRunMatchesSystemRun(t *testing.T) {
	buf := make([]timedSlice, 0, 1024)
	for _, c := range toyCells() {
		o, err := runOp(c, buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Execute(c.run, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		var whole opResult
		_, sys, _, err := build(c, &whole)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		if e := (engineCounts{sys.Engine.Leaps(), sys.Engine.LeapedCycles(), sys.Engine.SkippedTicks()}); e != o.engine {
			t.Errorf("%s/%v: sliced run's engine counts %+v, System.Run's %+v", c.run.Key(), c.run.NoC, o.engine, e)
		}
		s := o.snap
		var fetches, misses uint64
		for i := range s.IFetches {
			fetches += s.IFetches[i]
			misses += s.IMisses[i]
		}
		if s.Cycles != res.Cycles || s.Net != res.Net || fetches != res.IFetches || misses != res.IMisses ||
			!reflect.DeepEqual(s.CPU, res.CPU) || !reflect.DeepEqual(s.DCache, res.DCache) || !reflect.DeepEqual(s.Mem, res.Mem) {
			t.Errorf("%s/%v: sliced run differs from exp.Execute: %d vs %d cycles", c.run.Key(), c.run.NoC, s.Cycles, res.Cycles)
		}
		// A slice ends at the first executed cycle at or past its
		// boundary (a leap may carry it further), and the drain is one more.
		if most := int((s.Cycles+sliceCycles(c.run.NumCPUs)-1)/sliceCycles(c.run.NumCPUs)) + 1; len(o.slices) < 2 || len(o.slices) > most {
			t.Errorf("%s: %d slices for %d cycles, want 2..%d", c.run.Key(), len(o.slices), s.Cycles, most)
		}
	}
}

// A whole set on a toy workload: every defined metric gets a value, the
// layer shares sum to 100, and the result line has the contract's shape.
func TestRunSetReportsEveryMetric(t *testing.T) {
	toy := benchWorkload{name: "toy", cells: func(k int) []cell {
		sc := exp.QuickScale()
		sc.OceanIters += k
		return []cell{
			{exp.Run{Bench: exp.Ocean, Protocol: coherence.WTI, Arch: mem.Arch2, NumCPUs: 4}, sc},
			{exp.Run{Bench: exp.Ocean, Protocol: coherence.WBMESI, Arch: mem.Arch1, NumCPUs: 2}, sc},
		}
	}, check: func() error { return checkTable1(paperTable1JSON) }}
	opt := options{seed: 2, seconds: 0.05, trace: true}
	set := runSet([]benchWorkload{toy}, opt, calibrateClock(), engineStepNs())
	r := set[0]
	if r.failed != 0 || r.ops < 1+2+2 || len(r.repRun) == 0 {
		t.Fatalf("ops %d failed %d reps %d errs %v", r.ops, r.failed, len(r.repRun), r.errs)
	}
	var shares float64
	for _, l := range layerNames {
		shares += r.perLayer[l+".share_pct"]
	}
	if math.Abs(shares-100) > 0.5 {
		t.Errorf("layer shares sum to %g", shares)
	}
	for trace, defs := range map[bool][]metricDef{false: endToEnd, true: perLayer} {
		line := resultLine(set, trace)
		if !line.Correct || line.Attempted != r.ops || line.Failed != 0 || len(line.Metrics) != len(defs) {
			t.Errorf("trace %v: result line %+v, want %d metrics", trace, line, len(defs))
		}
		for _, d := range defs {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("trace %v: metric %s = %+v (present %v)", trace, d.Name, v, ok)
			}
		}
		enc, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(enc, &keys); err != nil || len(keys) != 4 {
			t.Errorf("result line keys: %s", enc)
		}
	}
	// Two sets of the same code agree on every exact metric, and a
	// failed operation empties the line and marks it incorrect.
	again := runSet([]benchWorkload{toy}, opt, 0, 0)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		a, b := r.endToEnd[d.Name], again[0].endToEnd[d.Name]
		if _, layer := r.perLayer[d.Name]; layer {
			a, b = r.perLayer[d.Name], again[0].perLayer[d.Name]
		}
		if d.Exact && a != b {
			t.Errorf("exact metric %s differs between sets: %v, %v", d.Name, a, b)
		}
	}
	r.failed = 1
	if line := resultLine(set, false); line.Correct || len(line.Metrics) != 0 || line.Failed != 1 {
		t.Errorf("failed run's line: %+v", line)
	}
	if selfcheck(io.Discard, set, again) {
		t.Error("selfcheck passed a set with a failed operation")
	}
}

func TestSelfcheckBounds(t *testing.T) {
	mk := func(scale float64) []*wlRun {
		v := map[string]float64{}
		for _, d := range endToEnd {
			v[d.Name] = 100
		}
		v["mcyc_per_s"] *= scale
		return []*wlRun{{w: benchWorkload{name: "w"}, endToEnd: v}}
	}
	if !selfcheck(io.Discard, mk(1), mk(0.8)) {
		t.Error("20% apart is within the 25% bound")
	}
	if selfcheck(io.Discard, mk(1), mk(0.7)) {
		t.Error("30% slower is outside the 25% bound")
	}
	b := mk(1)
	b[0].endToEnd["sim_cpi"] += 1e-9
	if selfcheck(io.Discard, mk(1), b) {
		t.Error("an exact metric may not differ at all")
	}
}

func TestCellAccKeepsFastestPieces(t *testing.T) {
	snap := &snapshot{Cycles: 7}
	op := func(spec, sys, check time.Duration, alloc, heap uint64, runs ...time.Duration) *opResult {
		o := &opResult{snap: snap, specBuild: spec, sysBuild: sys, check: check, allocBytes: alloc, heapAlloc: heap}
		for _, d := range runs {
			o.slices = append(o.slices, timedSlice{run: d})
		}
		return o
	}
	var a cellAcc
	a.foldBuild(op(9, 9, 0, 0, 0))
	if err := a.fold(op(5, 7, 3, 100, 50, 10, 20, 30)); err != nil {
		t.Fatal(err)
	}
	if err := a.fold(op(6, 4, 2, 90, 60, 12, 15, 40)); err != nil {
		t.Fatal(err)
	}
	if a.run() != 10+15+30 || a.setup() != 5+4 || a.wall() != 9+55+2 || a.allocBytes != 90 || a.heapAlloc != 50 || a.reps != 2 {
		t.Errorf("run %d setup %d wall %d alloc %d heap %d reps %d", a.run(), a.setup(), a.wall(), a.allocBytes, a.heapAlloc, a.reps)
	}
	o := op(1, 1, 1, 1, 1, 1, 1, 1)
	o.snap = &snapshot{Cycles: 8}
	if a.fold(o) == nil {
		t.Error("a rep with different statistics must fail")
	}
	if a.fold(op(1, 1, 1, 1, 1, 1, 1)) == nil {
		t.Error("a rep with a different slice count must fail")
	}
}

// Host times are restated in reference-host time: a host at 70% speed
// runs slices and chunks alike 1/0.7 times as long, and the quotient
// stays; an interrupted chunk or slice moves nothing but itself.
func TestToReference(t *testing.T) {
	mk := func(slowdown float64) []timedSlice {
		s := make([]timedSlice, 40)
		for i := range s {
			s[i] = timedSlice{
				run: time.Duration(float64(time.Duration(i+1)*time.Millisecond) * slowdown),
				ref: time.Duration(float64(refChunk) * slowdown),
			}
		}
		return s
	}
	quiet, slow := mk(1), mk(1/0.7)
	slow[7].ref *= 20  // a chunk interrupted: the window's fastest ignores it
	slow[20].run *= 3  // a slice interrupted: only that slice reads long
	slow[39].ref += 99 // the window is clamped at the ends
	if speed := toReference(quiet); math.Abs(speed-1) > 1e-9 {
		t.Errorf("quiet reference host: speed %v", speed)
	}
	if speed := toReference(slow); math.Abs(speed-0.7) > 1e-4 {
		t.Errorf("host at 70%%: speed %v", speed)
	}
	for i := range quiet {
		want := quiet[i].run
		if i == 20 {
			want *= 3
		}
		if d := slow[i].run - want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("slice %d: %v in reference time, want %v", i, slow[i].run, want)
		}
	}
	if got := scale(10*time.Millisecond, 0.7); got != 7*time.Millisecond {
		t.Errorf("scale: %v", got)
	}
	// The kernel does the same work every time and leaves its state behind.
	x := ref.x
	if d := ref.chunk(); d <= 0 || ref.x == x {
		t.Errorf("chunk took %v, state %x -> %x", d, x, ref.x)
	}
	if s := ref.hostSpeed(); s <= 0 || math.IsInf(s, 0) {
		t.Errorf("host speed %v", s)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2}, "lower")
	if s.Best != 1 || s.Median != 2.5 || s.Spread != 3/2.5 || s.N != 4 {
		t.Errorf("lower: %+v", s)
	}
	s = summarize([]float64{10, 30, 20}, "higher")
	if s.Best != 30 || s.Median != 20 || s.Spread != 1 || s.N != 3 {
		t.Errorf("higher: %+v", s)
	}
	if s := summarize(nil, "lower"); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
}

func TestSpanAggHistogram(t *testing.T) {
	var a spanAgg
	for _, ns := range []int64{0, 1, 2, 3, 4, 1 << 50} {
		a.add(ns)
	}
	if a.Count != 6 || a.TotalNs != 10+1<<50 || a.Log2Hist[0] != 1 || a.Log2Hist[1] != 1 || a.Log2Hist[2] != 2 || a.Log2Hist[3] != 1 || a.Log2Hist[len(a.Log2Hist)-1] != 1 {
		t.Errorf("%+v", a)
	}
	tr := tracer{clockNs: 5}
	var marks [numLayers + 1]time.Time
	base := time.Now()
	for i := range marks {
		marks[i] = base.Add(time.Duration(i*i) * time.Nanosecond) // spans 1, 3, 5, ... ns
	}
	tr.record(&marks)
	if tr.layers[0].TotalNs != 0 || tr.layers[3].TotalNs != 7-5 || tr.cycle.TotalNs != numLayers*numLayers {
		t.Errorf("clock correction: %+v cycle %+v", tr.layers, tr.cycle)
	}
}

// Seed 1 is the documented size of every workload; the other seeds add
// (seed-1) mod 4 to the trip counts and nothing else, except on the two
// workloads of fixed size.
func TestSeedSelectsSizes(t *testing.T) {
	type size struct {
		n           int
		net         core.NoCKind
		rows, iters int
		mols, steps int
	}
	want := map[string]size{
		"ocean_wti_n4":       {n: 4, rows: 32, iters: 32},
		"ocean_wti_n16":      {n: 16, rows: 8, iters: 24},
		"water_wb_n16":       {n: 16, mols: 6, steps: 4},
		"ocean_wti_n64":      {n: 64, rows: 4, iters: 2},
		"ocean_wti_mesh_n16": {n: 16, net: core.MeshNet, rows: 8, iters: 4},
	}
	for _, w := range workloads {
		base := w.cells(w.variant(1))
		if w.name == "fig_grid_n4_n16" {
			if len(base) != 16 || base[0].scale != exp.DefaultScale() {
				t.Errorf("grid at seed 1: %d cells at %+v", len(base), base[0].scale)
			}
			seen := map[string]bool{}
			for _, c := range base {
				seen[c.run.Key()] = true
			}
			if len(seen) != 16 || !seen["ocean/WTI/arch1/n4"] || !seen["water/WB/arch2/n16"] {
				t.Errorf("grid cells: %v", seen)
			}
		} else {
			s, c := want[w.name], base[0]
			got := size{c.run.NumCPUs, c.run.NoC, c.scale.OceanRows, c.scale.OceanIters, c.scale.WaterMols, c.scale.WaterSteps}
			if len(base) != 1 || got != s || c.run.Arch != mem.Arch2 {
				t.Errorf("%s at seed 1: %+v, want %+v", w.name, got, s)
			}
		}
		for seed := -3; seed <= 9; seed++ {
			k := w.variant(seed)
			if k < 0 || k > 3 || k != w.variant(seed+4) || (w.fixedSize && k != 0) {
				t.Fatalf("%s: variant(%d) = %d", w.name, seed, k)
			}
			cells := w.cells(k)
			if !reflect.DeepEqual(cells, w.cells(k)) {
				t.Errorf("%s: seed %d does not give the same cells twice", w.name, seed)
			}
			for i, c := range cells {
				b := base[i]
				want := b.scale
				if want.OceanIters > 0 {
					want.OceanIters += k
				}
				if want.WaterSteps > 0 {
					want.WaterSteps += k
				}
				if c.run != b.run || c.scale != want {
					t.Errorf("%s seed %d cell %d: %+v %+v, want %+v", w.name, seed, i, c.run, c.scale, want)
				}
			}
		}
	}
	var varying benchWorkload
	if varying.variant(1) != 0 || varying.variant(2) != 1 || varying.variant(4) != 3 || varying.variant(5) != 0 {
		t.Error("seed 1 must be the documented size")
	}
	for _, w := range workloads {
		if want := w.name == "ocean_wti_n64" || w.name == "fig_grid_n4_n16"; w.fixedSize != want {
			t.Errorf("%s: fixedSize %v", w.name, w.fixedSize)
		}
	}
}

func TestParseFlags(t *testing.T) {
	// The driver's spelling: double dashes, -trace with a value.
	o, err := parseFlags(strings.Fields("--workload water_wb_n16 --seed 7 --seconds 3 --trace 1"), io.Discard)
	if err != nil || o.workload != "water_wb_n16" || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Errorf("%+v, %v", o, err)
	}
	if o, err := parseFlags(nil, io.Discard); err != nil || o.workload != "" || o.seed != 1 || o.trace || o.selfcheck {
		t.Errorf("defaults: %+v, %v", o, err)
	}
	for _, bad := range []string{
		"-seconds 10 out.json", // stray positional
		"-trace",               // needs a value
		"-trace 2",
		"-workload nosuch",
		"-seconds 0",
		"-reps 5", // not a flag here
	} {
		if _, err := parseFlags(strings.Fields(bad), io.Discard); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	if err := checkTable1(paperTable1JSON); err != nil {
		t.Fatal(err)
	}
	// The check has teeth: one hop off in the fixture is a miss.
	tampered := strings.Replace(string(paperTable1JSON), `"read miss (remote dirty)": {"hops": 4`, `"read miss (remote dirty)": {"hops": 2`, 1)
	if tampered == string(paperTable1JSON) {
		t.Fatal("fixture row not found")
	}
	if err := checkTable1([]byte(tampered)); err == nil {
		t.Error("a wrong hop count in the paper's table went unnoticed")
	}
}

// BENCHMARK.json is the contract's copy of what this package defines;
// the two must say the same thing, in names the contract allows.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bj.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	listed := 0
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if w.byHand {
			continue
		}
		if listed >= len(bj.Workloads) || bj.Workloads[listed].Name != w.name || bj.Workloads[listed].Why != w.why {
			t.Fatalf("workload %d: code has %q: %q, BENCHMARK.json has %+v", listed, w.name, w.why, bj.Workloads)
		}
		listed++
	}
	if listed != len(bj.Workloads) || listed < 2 || listed > 8 {
		t.Errorf("%d workloads in BENCHMARK.json, %d listed in code", len(bj.Workloads), listed)
	}
	// All runs of the driver, traced ones included, last run_seconds
	// plus set-up, and must end within its limit with a margin.
	if total := (4 + 22*listed) * (bj.RunSeconds + 3); total > 3420*9/10 {
		t.Errorf("%d workloads at %d s: about %d s of runs, limit 3420", listed, bj.RunSeconds, total)
	}
	check := func(kind string, defs []metricDef, got []jsonMetric, bounded bool) {
		if len(got) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(defs))
		}
		for i, d := range defs {
			name(d.Name)
			g := got[i]
			if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s: bound in BENCHMARK.json %v, in code %v", d.Name, g.Bound, d.Bound)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd, true)
	check("per_layer", perLayer, bj.PerLayer, false)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics", len(perLayer), len(endToEnd))
	}
	setup := endToEnd[3]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the contract requires setup_s in s, lower is better: %+v", setup)
	}
	for _, d := range endToEnd {
		if d.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
}
