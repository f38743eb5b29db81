package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"time"

	"repro/internal/sim"
)

// The traced run's layer groups, in core.Build's serial registration
// order, preceded by the leap oracle the engine consults before every
// cycle. The cpu span includes the core's synchronous ICache.Fetch and
// DataCache.Load/Store/Swap probes, and coherence.bank includes
// MemCtrl.HandleMsg: splitting those needs spans inside the program.
const (
	layerNextWake = iota
	layerCPU
	layerDCache
	layerICache
	layerNode
	layerBank
	layerNoC
	numLayers
)

var layerNames = [numLayers]string{
	"core.next_wake", "cpu", "coherence.dcache", "coherence.icache",
	"coherence.node", "coherence.bank", "noc",
}

// traceStride is the sampling stride: spans are recorded on every 7th
// cycle. It is odd so the samples do not lock onto the workloads'
// power-of-two loop periods, and large enough that eight clock reads
// per sampled cycle stay well below the stepped schedule's own cost.
const traceStride = 7

// spanAgg aggregates the spans of one (workload, layer): spans are
// folded in as they end and written out when the benchmark exits.
type spanAgg struct {
	Count   uint64
	TotalNs int64
	// Log2Hist[i] counts spans of [2^(i-1), 2^i) ns; Log2Hist[0] counts
	// spans the clock correction brought to zero.
	Log2Hist [40]uint64
}

// MarshalJSON writes the histogram without its empty upper buckets.
func (a spanAgg) MarshalJSON() ([]byte, error) {
	top := len(a.Log2Hist)
	for top > 0 && a.Log2Hist[top-1] == 0 {
		top--
	}
	return json.Marshal(struct {
		Count    uint64   `json:"count"`
		TotalNs  int64    `json:"total_ns"`
		Log2Hist []uint64 `json:"log2_hist_ns"`
	}{a.Count, a.TotalNs, a.Log2Hist[:top]})
}

func (a *spanAgg) add(ns int64) {
	a.Count++
	a.TotalNs += ns
	b := bits.Len64(uint64(ns))
	if b >= len(a.Log2Hist) {
		b = len(a.Log2Hist) - 1
	}
	a.Log2Hist[b]++
}

// tracer holds the spans of one workload's traced run. Every span of a
// sampled cycle is a child of that cycle's span; all spans of one
// tracer belong to one run of one workload, which is the identifier
// they share.
type tracer struct {
	clockNs int64
	layers  [numLayers]spanAgg
	// cycle is the parent span: oracle call plus the six tick groups.
	// Its self time — total minus its children — is what the harness
	// itself costs on a sampled cycle.
	cycle spanAgg
	// cycles is the number of measured-phase cycles stepped, sampled or
	// not, over every traced rep.
	cycles uint64
}

// record folds one sampled cycle in: marks[i]..marks[i+1] bounds layer
// i. Adjacent spans share a clock read, so each carries one read's
// cost, which calibration measured as clockNs.
func (t *tracer) record(marks *[numLayers + 1]time.Time) {
	for l := 0; l < numLayers; l++ {
		ns := marks[l+1].Sub(marks[l]).Nanoseconds() - t.clockNs
		if ns < 0 {
			ns = 0
		}
		t.layers[l].add(ns)
	}
	t.cycle.add(marks[numLayers].Sub(marks[0]).Nanoseconds())
}

// calibrateClock returns the cost of an empty span: the median of 1e5
// back-to-back clock-read pairs. On the reference host that is 50-80
// ns, the same order as a whole layer group at n <= 4, so an
// uncorrected n4 breakdown is mostly clock.
func calibrateClock() int64 {
	const samples = 100_000
	d := make([]int64, samples)
	for i := range d {
		t0 := time.Now()
		d[i] = time.Since(t0).Nanoseconds()
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[samples/2]
}

// traceOp is runOp on the harness's schedule: it steps the public
// components of core.System itself, every component on every cycle, in
// core.Build's serial group order (cross-component messages are
// latched, so grouping the per-CPU cache ticks by kind keeps results
// byte-identical — checked against the engine's run by the caller),
// until every CPU has halted; then drains untimed.
func traceOp(c cell, t *tracer, buf []timedSlice) (opResult, error) {
	o := opResult{slices: buf[:0]}
	spec, sys, rawBuild, err := build(c, &o)
	if err != nil {
		return o, err
	}

	// tick executes one cycle; with marks it stamps the group boundaries.
	tick := func(now uint64, marks *[numLayers + 1]time.Time) {
		mark := func(l int) {
			if marks != nil {
				marks[l] = time.Now()
			}
		}
		if marks != nil {
			marks[layerNextWake] = time.Now()
			sys.NextWake(now)
		}
		mark(layerCPU)
		for _, p := range sys.CPUs {
			p.Tick(now)
		}
		mark(layerDCache)
		for _, d := range sys.DCaches {
			d.Tick(now)
		}
		mark(layerICache)
		for _, ic := range sys.ICaches {
			ic.Tick(now)
		}
		mark(layerNode)
		for _, n := range sys.Nodes {
			n.Tick(now)
		}
		mark(layerBank)
		for _, n := range sys.BNodes {
			n.Tick(now)
		}
		mark(layerNoC)
		sys.Net.Tick(now)
		mark(numLayers)
	}

	slice := sliceCycles(c.run.NumCPUs)
	var marks [numLayers + 1]time.Time
	now := uint64(0)
	sliceStart := time.Now()
	for ; !sys.AllHalted(); now++ {
		if now >= sys.Cfg.MaxCycles {
			return o, fmt.Errorf("%s: traced run not halted after %d cycles", c.run.Key(), now)
		}
		if now%slice == 0 && now != 0 {
			o.slices = append(o.slices, timedSlice{time.Since(sliceStart), ref.chunk()})
			sliceStart = time.Now()
		}
		if now%traceStride == 0 {
			tick(now, &marks)
			t.record(&marks)
		} else {
			tick(now, nil)
		}
	}
	o.slices = append(o.slices, timedSlice{time.Since(sliceStart), ref.chunk()})
	t.cycles += now

	cycles := now
	for ; !sys.Quiescent(); now++ {
		if now-cycles >= 1_000_000 {
			return o, fmt.Errorf("%s: traced run did not drain", c.run.Key())
		}
		tick(now, nil)
	}
	rawCheck, err := verify(spec, sys, &o)
	if err != nil {
		return o, fmt.Errorf("%s: %w", c.run.Key(), err)
	}
	o.finish(rawBuild, rawCheck)
	o.snap = takeSnapshot(sys, cycles)
	return o, nil
}

// engineStepNs prices the engine's own dispatch: ns per Step of an
// Engine carrying four no-op tickers, the slot count core.Build
// registers. Fastest of five batches.
func engineStepNs() float64 {
	const steps = 200_000
	e := sim.NewEngine()
	for _, name := range []string{"cpus", "caches", "banks", "noc"} {
		e.Register(name, sim.TickFunc(func(uint64) {}))
	}
	best := time.Duration(1<<63 - 1)
	for batch := 0; batch < 5; batch++ {
		t0 := time.Now()
		for i := 0; i < steps; i++ {
			e.Step()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / steps
}
