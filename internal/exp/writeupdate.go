package exp

import (
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

var writeUpdateProtocols = []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI}

// The write-update ablation extends the paper's two-way comparison
// with the other hardware-protocol category it cites (write-update):
// the same Ocean and Water runs under WTI, WTU and WB, plus a
// producer/consumer trace pattern (one writer, many polling readers of
// a hot word) where update protocols shine because readers keep
// hitting their updated copies instead of missing after every
// invalidation.
func writeUpdateRuns(n int) []Run {
	var runs []Run
	for _, bench := range []Bench{Ocean, Water} {
		for _, proto := range writeUpdateProtocols {
			runs = append(runs, Run{Bench: bench, Protocol: proto, Arch: mem.Arch2, NumCPUs: n})
		}
	}
	return runs
}

func renderWriteUpdate(p Params, runs []Run, res Results) ([]*stats.Table, error) {
	t := stats.NewTable("Ablation D — write-invalidate vs write-update vs write-back",
		"workload", "metric", "WTI", "WTU", "WB")
	for i := 0; i < len(runs); i += 3 {
		wti, wtu, wb := res[runs[i]], res[runs[i+1]], res[runs[i+2]]
		t.AddRow(string(runs[i].Bench), "Mcycles", wti.MegaCycles(), wtu.MegaCycles(), wb.MegaCycles())
		t.AddRow(string(runs[i].Bench), "MB traffic", float64(wti.TrafficBytes())/1e6,
			float64(wtu.TrafficBytes())/1e6, float64(wb.TrafficBytes())/1e6)
	}

	// Producer/consumer hot word: CPU 0 writes, all others poll.
	n := runs[0].NumCPUs
	l := mem.DefaultLayout(n)
	hot := l.SharedBase
	gen := func(cpu int) trace.Generator {
		if cpu == 0 {
			return trace.NewWriteStream(hot, 4, 4) // hammer one word
		}
		return trace.NewHotSpot(trace.HotSpotParams{
			PrivateBase: l.PrivateSeg(cpu), PrivateSize: 4096,
			HotBase: hot, HotSize: 4,
			HotFrac: 0.5, StoreFrac: 0, Seed: int64(cpu) + 1,
		})
	}
	var traces []traceRun
	for _, proto := range writeUpdateProtocols {
		traces = append(traces, traceRun{proto: proto, gen: gen, ops: 4000})
	}
	pc, err := runTraces(n, traces, p.Jobs)
	if err != nil {
		return nil, err
	}
	t.AddRow("producer/consumer", "Mcycles",
		stats.Mega(pc[0].Cycles), stats.Mega(pc[1].Cycles), stats.Mega(pc[2].Cycles))
	t.AddRow("producer/consumer", "MB traffic", float64(pc[0].Net.TotalBytes)/1e6,
		float64(pc[1].Net.TotalBytes)/1e6, float64(pc[2].Net.TotalBytes)/1e6)
	return []*stats.Table{t}, nil
}
