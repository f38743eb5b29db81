package exp

import (
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/stats"
)

// Table2 echoes the simulated platform characteristics in the shape of
// the paper's Table 2, including the derived NoC latency and bank
// counts per architecture and processor count.
func Table2(sizes []int) *stats.Table {
	t := stats.NewTable("Table 2 — simulated platform characteristics",
		"cpus", "banks arch1", "banks arch2", "dcache", "icache",
		"block", "assoc", "wbuf", "noc delay (cyc)")
	for _, n := range sizes {
		p := coherence.DefaultParams(n)
		nodes1 := n + mem.Arch1.NumBanks(n)
		g := noc.DefaultGMNConfig(nodes1)
		t.AddRow(n,
			mem.Arch1.NumBanks(n), mem.Arch2.NumBanks(n),
			p.DCacheBytes, p.ICacheBytes, coherence.BlockBytes,
			"direct", p.WriteBufferWords, g.Delay)
	}
	return t
}
