package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/obs"
)

// AttachObserver wires an observability recorder into the system: the
// CPUs record their stall spans, and every port's Node.Obs serves the
// port itself — a marker per send, the retry latencies — and the
// controllers behind it: a data cache's transaction spans and
// latencies, a bank's directory spans. Call it after Build and before
// Run; a nil recorder is a no-op, so callers may pass one through
// unconditionally.
//
// When the recorder samples (Config.SampleInterval > 0) the standard
// probe set is registered — IPC (a stream CPU's completed references
// count as its instructions), data-stall share, write-buffer
// occupancy, directory queue depth and per-port flit rates — and the
// engine is scheduled to tick the sampler every interval cycles.
func (s *System) AttachObserver(r *obs.Recorder) {
	if r == nil {
		return
	}
	s.Obs = r
	n := s.Cfg.Mem.NumCPUs
	r.Machine(n, len(s.Banks))
	for _, c := range s.CPUs {
		c.Obs = r
	}
	for _, nd := range s.Ports {
		nd.Obs = r
	}

	if !r.Sampling() {
		return
	}
	sp := r.Sampler()
	interval := r.SampleInterval()

	// perCPUCycle scales a counter summed over the fronts into a rate
	// per CPU and per cycle of the interval.
	perCPUCycle := func(scale float64, count func(*cpu.Stats) uint64) obs.Probe {
		delta := obs.DeltaProbe(func() uint64 { return sum(s.fronts, func(f frontEnd) uint64 { return count(f.Stats()) }) })
		return func(now uint64) float64 { return scale * delta(now) / float64(interval) / float64(n) }
	}
	sp.AddProbe("ipc", perCPUCycle(1, func(st *cpu.Stats) uint64 { return st.Instructions }))
	sp.AddProbe("data_stall_pct", perCPUCycle(100, func(st *cpu.Stats) uint64 { return st.DataStallCycles }))
	sp.AddProbe("wb_occupancy", func(uint64) float64 { return float64(sum(s.DCaches, coherence.DataCache.WBOccupancy)) })
	sp.AddProbe("dir_queue", func(uint64) float64 { return float64(sum(s.Banks, (*coherence.MemCtrl).QueuedRequests)) })
	sp.AddProbe("dir_busy", func(uint64) float64 { return float64(sum(s.Banks, (*coherence.MemCtrl).PendingTx)) })
	if s.FNet != nil {
		sp.AddProbe("fault_drops",
			obs.DeltaProbe(func() uint64 { return s.FNet.FaultStats().Drops }))
		sp.AddProbe("fault_retransmits", obs.DeltaProbe(func() uint64 {
			return sum(s.Ports, func(nd *coherence.Node) uint64 { return nd.Retransmits })
		}))
	}
	flits := s.Net.PortFlits()
	for p := range flits {
		sp.AddProbe(fmt.Sprintf("port%d_flits", p),
			obs.DeltaProbe(func() uint64 { return flits[p] }))
	}

	s.Engine.Every(interval, r.Sample)
}
