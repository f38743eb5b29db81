package exp

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// The best/worst-case ablation is the comparison the paper lists as
// future work, on two stream benches: sparse writes, which WTI should
// win clearly, and private read-modify-write, which WB should.
func bestWorstRuns(n int) []Run {
	return pairs([]Bench{SparseWrites, PrivateRMW}, func(b Bench) Run { return Run{Bench: b, Arch: mem.Arch2, NumCPUs: n} })
}

func renderBestWorst(runs []Run, res Results) *stats.Table {
	t := stats.NewTable("Ablation C — protocol best/worst cases (trace-driven)",
		"pattern", "cpus", "WTI Mcyc", "WB Mcyc", "WTI MB", "WB MB")
	for i := 0; i < len(runs); i += 2 {
		wti, wb := res[runs[i]], res[runs[i+1]]
		t.AddRow(benchLabel(runs[i].Bench), runs[i].NumCPUs, wti.MegaCycles(), wb.MegaCycles(),
			float64(wti.TrafficBytes())/1e6, float64(wb.TrafficBytes())/1e6)
	}
	return t
}
