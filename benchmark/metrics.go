package main

import (
	"slices"
	"time"

	"repro/internal/stats"
)

// metricDef describes one reported metric. BENCHMARK.json carries the
// same definitions (pinned by TestBenchmarkJSONAgrees).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; per-layer metrics
	// have none.
	Bound float64
	// Exact marks a simulated quantity: it repeats bit for bit between
	// runs of one tree at one seed, so -selfcheck allows no difference.
	Exact bool
}

// endToEnd is what a user of the simulator sees: host speed, host
// memory, set-up cost, and the modelled machine's own figures. Every
// one is a rate, a ratio or independent of the trip count, so that
// readings at different seeds can be compared.
//
// Host times are in reference-host time (ref.go). Their bounds are the
// contract's widest all the same: the driver's first check, on raw
// wall-clock, found the quartiles of ten runs 30% of the median apart,
// and how much of that the reference kernel takes out on the driver's
// host cannot be measured from here (on a quiet reference host the
// quartiles lie under 2% apart). Simulated figures repeat exactly; their
// bounds cover the 0.6% by which they differ between size variants.
var endToEnd = []metricDef{
	{Name: "mcyc_per_s", Unit: "Mcyc/s", Better: "higher", Bound: 0.25},
	{Name: "minstr_per_s", Unit: "Minstr/s", Better: "higher", Bound: 0.25},
	{Name: "wall_s_per_mcyc", Unit: "s/Mcyc", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "run_alloc_kb", Unit: "kB", Better: "lower", Bound: 0.10},
	{Name: "sim_cpi", Unit: "cyc/instr", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "noc_b_per_instr", Unit: "B/instr", Better: "lower", Bound: 0.02, Exact: true},
	{Name: "data_stall_pct", Unit: "%", Better: "lower", Bound: 0.02, Exact: true},
}

// perLayer is exact counts read from the untraced run's public
// statistics, then host time from the traced run. The contract wants a
// direction for every metric; for a count of simulated events "lower"
// only says that fewer events is less work for the host.
var perLayer = slices.Concat(
	counts("lower", "sim.cycles", "sim.leaps"),
	counts("higher", "sim.leaped_cycles", "sim.skipped_ticks"),
	counts("lower",
		"cpu.instructions", "cpu.data_stall_cycles", "cpu.inst_stall_cycles", "cpu.fpu_busy_cycles",
		"coherence.icache.fetches", "coherence.icache.misses"),
	[]metricDef{{Name: "coherence.icache.fetches_per_instr", Unit: "ratio", Better: "lower", Exact: true}},
	counts("lower",
		"coherence.dcache.loads", "coherence.dcache.load_misses", "coherence.dcache.stores",
		"coherence.dcache.swaps", "coherence.dcache.wbuf_full_stalls", "coherence.dcache.invals_received",
		"coherence.dcache.upgrades", "coherence.dcache.writebacks",
		"coherence.bank.reads", "coherence.bank.read_excls", "coherence.bank.write_throughs",
		"coherence.bank.write_backs", "coherence.bank.invals_sent", "coherence.bank.fetches_sent",
		"coherence.bank.deferred",
		"noc.packets", "noc.flits", "noc.bytes", "noc.inject_stall_cycles"),
	layerMetrics(),
	[]metricDef{
		{Name: "sim.step_ns", Unit: "ns", Better: "lower"},
		{Name: "workload.build_s", Unit: "s", Better: "lower"},
		{Name: "core.build_s", Unit: "s", Better: "lower"},
		{Name: "exp.verify_s", Unit: "s", Better: "lower"},
		{Name: "trace.clock_ns", Unit: "ns", Better: "lower"},
		{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
		{Name: "host.speed_pct", Unit: "%", Better: "higher"},
	},
)

func counts(better string, names ...string) []metricDef {
	defs := make([]metricDef, len(names))
	for i, n := range names {
		defs[i] = metricDef{Name: n, Unit: "count", Better: better, Exact: true}
	}
	return defs
}

func layerMetrics() []metricDef {
	var defs []metricDef
	for _, l := range layerNames {
		defs = append(defs,
			metricDef{Name: l + ".ns_per_cycle", Unit: "ns/cyc", Better: "lower"},
			metricDef{Name: l + ".share_pct", Unit: "%", Better: "lower"})
	}
	return defs
}

// simTotals sums what the cells simulated: cycles, cycles x CPUs,
// retired instructions, data-stall cycles and NoC bytes.
func simTotals(accs []*cellAcc) (cycles, cpuCycles, instr, stall, bytes uint64) {
	for _, a := range accs {
		s := a.first.snap
		cycles += s.Cycles
		cpuCycles += s.Cycles * uint64(len(s.CPU))
		for i := range s.CPU {
			instr += s.CPU[i].Instructions
			stall += s.CPU[i].DataStallCycles
		}
		bytes += s.Net.TotalBytes
	}
	return
}

// endToEndValues derives the end-to-end metrics of one workload from
// its cells' accumulators: times are sums of the fastest pieces, the
// grid's figures sums over its sixteen cells.
func endToEndValues(accs []*cellAcc) map[string]float64 {
	cycles, cpuCycles, instr, stall, bytes := simTotals(accs)
	var heap, alloc uint64
	var run, wall, setup time.Duration
	for _, a := range accs {
		heap += a.heapAlloc
		alloc += a.allocBytes
		run += a.run()
		wall += a.wall()
		setup += a.setup()
	}
	return map[string]float64{
		"mcyc_per_s":      stats.Mega(cycles) / run.Seconds(),
		"minstr_per_s":    stats.Mega(instr) / run.Seconds(),
		"wall_s_per_mcyc": wall.Seconds() / stats.Mega(cycles),
		"setup_s":         setup.Seconds(),
		"heap_mb":         float64(heap) / 1e6,
		"run_alloc_kb":    float64(alloc) / 1e3,
		"sim_cpi":         float64(cpuCycles) / float64(instr),
		"noc_b_per_instr": float64(bytes) / float64(instr),
		"data_stall_pct":  stats.Percent(stall, cpuCycles), // core.Result.DataStallPercent
	}
}

// countValues reads the per-layer counts from the untraced runs.
func countValues(accs []*cellAcc) map[string]float64 {
	v := map[string]float64{}
	add := func(name string, n uint64) { v[name] += float64(n) }
	for _, a := range accs {
		s, e := a.first.snap, a.first.engine
		add("sim.cycles", s.Cycles)
		add("sim.leaps", e.leaps)
		add("sim.leaped_cycles", e.leapedCycles)
		add("sim.skipped_ticks", e.skippedTicks)
		for i := range s.CPU {
			add("cpu.instructions", s.CPU[i].Instructions)
			add("cpu.data_stall_cycles", s.CPU[i].DataStallCycles)
			add("cpu.inst_stall_cycles", s.CPU[i].InstStallCycles)
			add("cpu.fpu_busy_cycles", s.CPU[i].FPUBusyCycles)
			add("coherence.icache.fetches", s.IFetches[i])
			add("coherence.icache.misses", s.IMisses[i])
			d := &s.DCache[i]
			add("coherence.dcache.loads", d.Loads)
			add("coherence.dcache.load_misses", d.LoadMisses)
			add("coherence.dcache.stores", d.Stores)
			add("coherence.dcache.swaps", d.Swaps)
			add("coherence.dcache.wbuf_full_stalls", d.WBufFullStalls)
			add("coherence.dcache.invals_received", d.InvalsReceived)
			add("coherence.dcache.upgrades", d.Upgrades)
			add("coherence.dcache.writebacks", d.Writebacks)
		}
		for i := range s.Mem {
			m := &s.Mem[i]
			add("coherence.bank.reads", m.Reads)
			add("coherence.bank.read_excls", m.ReadExcls)
			add("coherence.bank.write_throughs", m.WriteThroughs)
			add("coherence.bank.write_backs", m.WriteBacks)
			add("coherence.bank.invals_sent", m.InvalsSent)
			add("coherence.bank.fetches_sent", m.FetchesSent)
			add("coherence.bank.deferred", m.Deferred)
		}
		add("noc.packets", s.Net.Packets)
		add("noc.flits", s.Net.TotalFlits)
		add("noc.bytes", s.Net.TotalBytes)
		add("noc.inject_stall_cycles", s.Net.InjectStallCycles)
	}
	// Attempts per useful outcome: a stalled core re-fetches its
	// instruction every cycle.
	v["coherence.icache.fetches_per_instr"] = v["coherence.icache.fetches"] / v["cpu.instructions"]
	return v
}

// traceValues derives the host-time per-layer metrics from the traced
// run, the untraced accumulators it is compared with, and the engine
// dispatch price. Span times are restated in reference-host time by the
// middle host speed of the traced operations.
func traceValues(r *wlRun, stepNs float64) map[string]float64 {
	t := &r.tracer
	v := map[string]float64{
		"sim.step_ns":    stepNs,
		"trace.clock_ns": float64(t.clockNs),
		"host.speed_pct": 100 * median(r.speeds),
	}
	var total int64
	for l := range t.layers {
		total += t.layers[l].TotalNs
	}
	speed := median(r.tracedSpeeds)
	for l, name := range layerNames {
		a := &t.layers[l]
		v[name+".ns_per_cycle"] = speed * float64(a.TotalNs) / float64(a.Count)
		v[name+".share_pct"] = 100 * float64(a.TotalNs) / float64(total)
	}
	var tracedWall, wall, specBuild, sysBuild, check time.Duration
	for i, a := range r.accs {
		tracedWall += r.traced[i].wall()
		wall += a.wall()
		specBuild += a.specBuild
		sysBuild += a.sysBuild
		check += a.check
	}
	v["workload.build_s"] = specBuild.Seconds()
	v["core.build_s"] = sysBuild.Seconds()
	v["exp.verify_s"] = check.Seconds()
	v["trace_overhead_pct"] = 100 * (tracedWall.Seconds()/wall.Seconds() - 1)
	return v
}

// summary is how a series of whole-rep readings is recorded beside the
// reported value: the best, the median, and (max-min)/median.
type summary struct {
	Best   float64 `json:"best"`
	Median float64 `json:"median"`
	Spread float64 `json:"spread"`
	N      int     `json:"n"`
}

func summarize(values []float64, better string) summary {
	if len(values) == 0 {
		return summary{}
	}
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	best := s[0]
	if better == "higher" {
		best = s[n-1]
	}
	return summary{Best: best, Median: median(s), Spread: (s[n-1] - s[0]) / median(s), N: n}
}

func median(values []float64) float64 {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}
