package exp

import (
	"repro/internal/mem"
	"repro/internal/trace"
)

// The stream benches the experiments name: synthetic reference
// patterns, one generator per CPU, replayed by stream CPUs in place of
// the interpreters.
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

// streamBench is one pattern: its name, its row label, the references
// per CPU and CPU cpu's generator over the layout.
type streamBench struct {
	bench Bench
	label string
	ops   uint64
	gen   func(l mem.Layout, cpu int) trace.Generator
}

// streamBuf is each CPU's buffer in the shared region for the write
// streams: 512 KiB, or an equal share of the region past 32 CPUs.
func streamBuf(l mem.Layout) uint32 {
	return min(512<<10, l.SharedSize/uint32(l.NumCPUs)&^31)
}

// streamBenches is the one table of stream benches.
var streamBenches = []streamBench{
	{SparseWrites, "sparse writes", 8000, func(l mem.Layout, cpu int) trace.Generator {
		buf := streamBuf(l)
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*buf, buf, 32)
	}},
	{PrivateRMW, "private rmw", 8000, func(l mem.Layout, cpu int) trace.Generator {
		return trace.NewPrivateRMW(l.PrivateSeg(cpu), 2048)
	}},
	{ProdCons, "producer/consumer", 4000, func(l mem.Layout, cpu int) trace.Generator {
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
	// Uniformly random words of 64 KiB of shared data, 30% stores.
	{"uniform", "uniform shared", 10000, func(l mem.Layout, cpu int) trace.Generator {
		return trace.NewUniform(trace.UniformParams{Base: l.SharedBase, Size: 64 << 10, StoreFrac: 0.3, Seed: int64(cpu) + 1})
	}},
	// Private data plus one contended shared block (5% of references),
	// 30% stores.
	{"hotspot", "hot spot", 10000, func(l mem.Layout, cpu int) trace.Generator {
		return trace.NewHotSpot(trace.HotSpotParams{
			PrivateBase: l.PrivateSeg(cpu), PrivateSize: 8192,
			HotBase: l.SharedBase, HotSize: 32,
			HotFrac: 0.05, StoreFrac: 0.3, Seed: int64(cpu) + 1,
		})
	}},
	// SparseWrites word by word: per-word message overhead costs WTI
	// more than WB's two block moves.
	{"dense", "dense writes", 10000, func(l mem.Layout, cpu int) trace.Generator {
		buf := streamBuf(l)
		return trace.NewWriteStream(l.SharedBase+uint32(cpu)*buf, buf, 4)
	}},
}

// findStream looks a stream bench up by name.
func findStream(b Bench) (streamBench, bool) {
	for _, sb := range streamBenches {
		if sb.bench == b {
			return sb, true
		}
	}
	return streamBench{}, false
}

// benchLabel is the bench's name in a table row.
func benchLabel(b Bench) string {
	if sb, ok := findStream(b); ok {
		return sb.label
	}
	return string(b)
}
