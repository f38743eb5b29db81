package exp

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// The stream benches: synthetic reference patterns, one generator per
// CPU, replayed by stream CPUs in place of the interpreters.
const (
	// SparseWrites: each CPU stores one word per cache block, marching
	// through its own buffer, never reading it back. WTI posts 4 useful
	// bytes per block; WB must read-allocate the whole block and write
	// it back later (64 bytes moved per 4 useful).
	SparseWrites Bench = "sparse"
	// PrivateRMW: each CPU read-modify-writes a cache-resident private
	// working set. After warm-up WB hits in M state and sends nothing;
	// WTI keeps pushing every store to the bank.
	PrivateRMW Bench = "rmw"
	// ProdCons: CPU 0 hammers one hot word, all others poll it between
	// private reads — where update protocols shine, because readers
	// keep hitting their updated copies instead of missing after every
	// invalidation.
	ProdCons Bench = "prodcons"
)

// streamThink is the cycles every stream CPU waits between completed
// references.
const streamThink = 2

// streamBench is one pattern: its row label, the references per CPU
// and CPU cpu's generator over the layout.
type streamBench struct {
	label string
	ops   uint64
	gen   func(l mem.Layout, cpu int) trace.Generator
}

var streamBenches = map[Bench]streamBench{
	SparseWrites: {"sparse writes", 8000, func(l mem.Layout, cpu int) trace.Generator {
		const buf = 512 * 1024
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*buf, buf, 32)
	}},
	PrivateRMW: {"private rmw", 8000, func(l mem.Layout, cpu int) trace.Generator {
		return trace.NewPrivateRMW(l.PrivateSeg(cpu), 2048)
	}},
	ProdCons: {"producer/consumer", 4000, func(l mem.Layout, cpu int) trace.Generator {
		hot := l.SharedBase
		if cpu == 0 {
			return trace.NewWriteStream(hot, 4, 4)
		}
		return trace.NewHotSpot(trace.HotSpotParams{
			PrivateBase: l.PrivateSeg(cpu), PrivateSize: 4096,
			HotBase: hot, HotSize: 4,
			HotFrac: 0.5, StoreFrac: 0, Seed: int64(cpu) + 1,
		})
	}},
}

// benchLabel is the bench's name in a table row.
func benchLabel(b Bench) string {
	if sb, ok := streamBenches[b]; ok {
		return sb.label
	}
	return string(b)
}
