package exp

import (
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/stats"
)

// The write-update ablation extends the paper's two-way comparison
// with the other hardware-protocol category it cites (write-update):
// the same Ocean and Water runs under WTI, WTU and WB, plus the
// producer/consumer stream bench.
func writeUpdateRuns(n int) []Run {
	var runs []Run
	for _, bench := range []Bench{Ocean, Water, ProdCons} {
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI} {
			runs = append(runs, Run{Bench: bench, Protocol: proto, Arch: mem.Arch2, NumCPUs: n})
		}
	}
	return runs
}

func renderWriteUpdate(runs []Run, res Results) *stats.Table {
	t := stats.NewTable("Ablation D — write-invalidate vs write-update vs write-back",
		"workload", "metric", "WTI", "WTU", "WB")
	for i := 0; i < len(runs); i += 3 {
		wti, wtu, wb := res[runs[i]], res[runs[i+1]], res[runs[i+2]]
		label := benchLabel(runs[i].Bench)
		t.AddRow(label, "Mcycles", wti.MegaCycles(), wtu.MegaCycles(), wb.MegaCycles())
		t.AddRow(label, "MB traffic", float64(wti.TrafficBytes())/1e6,
			float64(wtu.TrafficBytes())/1e6, float64(wb.TrafficBytes())/1e6)
	}
	return t
}
