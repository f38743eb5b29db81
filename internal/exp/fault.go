package exp

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// DefaultFaultSpecs is the canonical fault grid of the robustness
// campaign (`sweep -exp fault`): each dimension alone at a rate high
// enough to fire thousands of times per run, then all of them at once.
// Every spec pins its seed so the campaign replays bit-identically.
func DefaultFaultSpecs() []string {
	return []string{
		"drop=0.002,seed=42",
		"delay=0.01:8,seed=42",
		"dup=0.002,seed=42",
		"bankstall=0.001:16,seed=42",
		"drop=0.001,delay=0.005:8,dup=0.001,bankstall=0.0005:16,seed=42",
	}
}

// The fault campaign measures how each write policy degrades under
// injected interconnect faults: both protocols run Ocean on
// Architecture 2 under each campaign spec (nil: DefaultFaultSpecs)
// after the zero-fault baseline, with the usual host-reference check
// on the final memory image — correctness under faults is the point,
// the slowdown is the measurement.
func faultRuns(n int, specs []string) []Run {
	if specs == nil {
		specs = DefaultFaultSpecs()
	}
	return pairs(append([]string{""}, specs...), func(spec string) Run {
		return Run{Bench: Ocean, Arch: mem.Arch2, NumCPUs: n, Fault: spec}
	})
}

func renderFault(runs []Run, res Results) *stats.Table {
	t := stats.NewTable("Fault campaigns — Ocean/arch2, WTI vs WB under injected NoC faults",
		"campaign", "protocol", "Mcycles", "MB traffic", "drops", "retx", "delayed", "dups", "stalls")
	for _, r := range runs {
		label := r.Fault
		if label == "" {
			label = "(none)"
		}
		var drops, retx, delayed, dups, stalls uint64
		if f := res[r].Fault; f != nil {
			drops, retx = f.Stats.Drops, f.Retransmits
			delayed, dups, stalls = f.Stats.Delayed, f.Stats.Dups, f.Stats.StallWindows
		}
		t.AddRow(label, r.Protocol.String(), res[r].MegaCycles(),
			float64(res[r].TrafficBytes())/1e6, drops, retx, delayed, dups, stalls)
	}
	return t
}
