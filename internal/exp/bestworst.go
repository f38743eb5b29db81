package exp

import (
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// traceRun is one synthetic-stream replay: ops operations per CPU of
// the streams gen makes, on Architecture 2 under proto.
type traceRun struct {
	proto coherence.Protocol
	gen   func(cpu int) trace.Generator
	ops   uint64
}

// runTraces replays runs on n CPUs through the worker pool.
func runTraces(n int, runs []traceRun, jobs int) ([]*trace.Result, error) {
	out := make([]*trace.Result, len(runs))
	err := forEach(len(runs), jobs, func(i int) error {
		r := runs[i]
		h, err := trace.NewHarness(core.DefaultConfig(r.proto, mem.Arch2, n), r.gen, r.ops, 2)
		if err != nil {
			return err
		}
		out[i], err = h.Run(0)
		return err
	})
	return out, err
}

// bestWorst runs the best-case/worst-case comparison the paper lists
// as future work, using the synthetic trace engine:
//
//   - "sparse writes": each CPU stores one word per cache block,
//     marching through its own buffer, never reading it back. WTI
//     posts 4 useful bytes per block; WB must read-allocate the whole
//     block and write it back later (64 bytes moved per 4 useful), so
//     WTI wins clearly.
//   - "private rmw": each CPU read-modify-writes a cache-resident
//     private working set. After warm-up WB hits in M state and sends
//     nothing; WTI keeps pushing every store to the bank, so WB should
//     win clearly.
func bestWorst(n, jobs int) ([]*stats.Table, error) {
	l := mem.DefaultLayout(n)
	patterns := []struct {
		name string
		gen  func(cpu int) trace.Generator
	}{
		{"sparse writes", func(cpu int) trace.Generator {
			const buf = 512 * 1024
			return trace.NewWriteStream(l.SharedBase+uint32(cpu)*buf, buf, 32)
		}},
		{"private rmw", func(cpu int) trace.Generator {
			return trace.NewPrivateRMW(l.PrivateSeg(cpu), 2048)
		}},
	}
	var runs []traceRun
	for _, p := range patterns {
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
			runs = append(runs, traceRun{proto: proto, gen: p.gen, ops: 8000})
		}
	}
	res, err := runTraces(n, runs, jobs)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation C — protocol best/worst cases (trace-driven)",
		"pattern", "cpus", "WTI Mcyc", "WB Mcyc", "WTI MB", "WB MB")
	for i, p := range patterns {
		wti, wb := res[2*i], res[2*i+1]
		t.AddRow(p.name, n, stats.Mega(wti.Cycles), stats.Mega(wb.Cycles),
			float64(wti.Net.TotalBytes)/1e6, float64(wb.Net.TotalBytes)/1e6)
	}
	return []*stats.Table{t}, nil
}
