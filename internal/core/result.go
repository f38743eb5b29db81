package core

import (
	"fmt"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Result collects the measurements of one run — the quantities behind
// the paper's Figures 4 (execution time), 5 (NoC traffic in bytes) and
// 6 (data-cache stall share).
type Result struct {
	Config Config
	// Cycles is the execution time: cycles until the last CPU halted.
	Cycles uint64
	// Net is the interconnect traffic accumulated over the whole run.
	Net noc.Stats

	// CPU holds each CPU slot's counters, interpreter or stream CPU.
	CPU    []cpu.Stats
	DCache []coherence.DCacheStats
	Mem    []coherence.MemStats
	// IFetches / IMisses aggregate the instruction caches.
	IFetches uint64
	IMisses  uint64

	// Latency is the per-request-type latency attribution, present only
	// when an observer was attached (see System.AttachObserver).
	Latency *obs.LatencyReport

	// Fault summarizes the injected-fault campaign, present only when
	// Config.Fault was non-empty.
	Fault *FaultReport
}

// FaultReport is what the campaign (Config.Fault) actually did: the
// wrapper's injection counters and the ports' retransmission totals.
type FaultReport struct {
	Stats fault.Stats
	// Retransmits and BackoffCycles aggregate the retry FSMs of every
	// port (CPU-side and bank-side).
	Retransmits   uint64
	BackoffCycles uint64
}

func (s *System) collect(cycles uint64) *Result {
	r := &Result{Config: s.Cfg, Cycles: cycles, Net: s.Net.Stats(),
		Latency: s.Obs.LatencyReport()}
	for _, f := range s.fronts {
		r.CPU = append(r.CPU, *f.Stats())
	}
	for i := range s.DCaches {
		r.DCache = append(r.DCache, *s.DCaches[i].Stats())
		r.IFetches += s.ICaches[i].Fetches
		r.IMisses += s.ICaches[i].Misses
	}
	for _, b := range s.Banks {
		r.Mem = append(r.Mem, *b.Stats())
	}
	if s.FNet != nil {
		fr := &FaultReport{Stats: s.FNet.FaultStats()}
		for _, nd := range s.Ports {
			fr.Retransmits += nd.Retransmits
			fr.BackoffCycles += nd.BackoffCycles
		}
		r.Fault = fr
	}
	return r
}

// MegaCycles is the Figure 4 metric.
func (r *Result) MegaCycles() float64 { return stats.Mega(r.Cycles) }

// TrafficBytes is the Figure 5 metric.
func (r *Result) TrafficBytes() uint64 { return r.Net.TotalBytes }

// DataStallPercent is the Figure 6 metric: the share of all CPU cycles
// spent stalled on data-cache accesses (including write-buffer-full
// and write-allocate stalls), averaged over the CPUs.
func (r *Result) DataStallPercent() float64 {
	return stats.Percent(sum(r.CPU, func(c cpu.Stats) uint64 { return c.DataStallCycles }), uint64(len(r.CPU))*r.Cycles)
}

// InstStallPercent is the instruction-refill counterpart.
func (r *Result) InstStallPercent() float64 {
	return stats.Percent(sum(r.CPU, func(c cpu.Stats) uint64 { return c.InstStallCycles }), uint64(len(r.CPU))*r.Cycles)
}

// Instructions totals retired instructions across CPUs.
func (r *Result) Instructions() uint64 {
	return sum(r.CPU, func(c cpu.Stats) uint64 { return c.Instructions })
}

// LoadMissRate is data-cache load misses over loads, across CPUs.
func (r *Result) LoadMissRate() float64 {
	loads := sum(r.DCache, func(d coherence.DCacheStats) uint64 { return d.Loads })
	misses := sum(r.DCache, func(d coherence.DCacheStats) uint64 { return d.LoadMisses })
	return stats.Ratio(float64(misses), float64(loads))
}

// sum totals one count over every part.
func sum[T any, N int | uint64](parts []T, count func(T) N) N {
	var total N
	for _, p := range parts {
		total += count(p)
	}
	return total
}

// Summary renders the headline numbers on one line. Fault campaigns
// append their injection totals; the zero-fault line is unchanged.
func (r *Result) Summary() string {
	s := fmt.Sprintf("%s: %.3f Mcycles, %.2f MB traffic, %.1f%% data stall, %d instr",
		r.Config.Describe(), r.MegaCycles(),
		float64(r.TrafficBytes())/1e6, r.DataStallPercent(), r.Instructions())
	if r.Fault != nil {
		f := r.Fault
		s += fmt.Sprintf(" [fault: drops=%d retx=%d delayed=%d dups=%d stalls=%d]",
			f.Stats.Drops, f.Retransmits, f.Stats.Delayed, f.Stats.Dups, f.Stats.StallWindows)
	}
	return s
}
