package exp

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/mem"
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
// per CPU and CPU cpu's generator over the layout, which returns the
// next reference on each call.
type streamBench struct {
	bench Bench
	label string
	ops   uint64
	gen   func(l mem.Layout, cpu int) func() core.Ref
}

// streamBuf is each CPU's buffer in the shared region for the write
// streams: 512 KiB, or an equal share of the region past 32 CPUs.
func streamBuf(l mem.Layout) uint32 {
	return min(512<<10, l.SharedSize/uint32(l.NumCPUs)&^31)
}

// streamBenches is the one table of stream benches.
var streamBenches = []streamBench{
	{SparseWrites, "sparse writes", 8000, func(l mem.Layout, cpu int) func() core.Ref {
		buf := streamBuf(l)
		return writeStream(l.SharedBase+uint32(cpu)*buf, buf, 32)
	}},
	{PrivateRMW, "private rmw", 8000, func(l mem.Layout, cpu int) func() core.Ref {
		return privateRMW(l.PrivateSeg(cpu), 2048)
	}},
	{ProdCons, "producer/consumer", 4000, func(l mem.Layout, cpu int) func() core.Ref {
		if cpu == 0 {
			return writeStream(l.SharedBase, 4, 4)
		}
		return hotSpot(l, cpu, 4096, 4, 0.5, 0)
	}},
	// Uniformly random words of 64 KiB of shared data, 30% stores.
	{"uniform", "uniform shared", 10000, func(l mem.Layout, cpu int) func() core.Ref {
		rng := rand.New(rand.NewSource(int64(cpu) + 1))
		return func() core.Ref {
			addr := l.SharedBase + 4*uint32(rng.Intn(64<<10/4))
			return core.Ref{Store: rng.Float64() < 0.3, Addr: addr, Data: rng.Uint32()}
		}
	}},
	// Private data plus one contended shared block (5% of references),
	// 30% stores.
	{"hotspot", "hot spot", 10000, func(l mem.Layout, cpu int) func() core.Ref {
		return hotSpot(l, cpu, 8192, 32, 0.05, 0.3)
	}},
	// SparseWrites word by word: per-word message overhead costs WTI
	// more than WB's two block moves.
	{"dense", "dense writes", 10000, func(l mem.Layout, cpu int) func() core.Ref {
		buf := streamBuf(l)
		return writeStream(l.SharedBase+uint32(cpu)*buf, buf, 4)
	}},
}

// writeStream stores a word every stride bytes of [base, base+size),
// wrapping around and never reading back; a word's data is its offset.
func writeStream(base, size, stride uint32) func() core.Ref {
	var pos uint32
	return func() core.Ref {
		r := core.Ref{Store: true, Addr: base + pos, Data: pos}
		pos = (pos + stride) % size
		return r
	}
}

// privateRMW sweeps [base, base+size) word by word, loading each word
// and then storing to it.
func privateRMW(base, size uint32) func() core.Ref {
	var pos uint32
	store := false // the next reference is the write half
	return func() core.Ref {
		r := core.Ref{Store: store, Addr: base + pos}
		if store {
			pos = (pos + 4) % size
			r.Data = pos
		}
		store = !store
		return r
	}
}

// hotSpot draws a random word of the hot block at the shared region's
// base (hotSize bytes) with probability hotFrac, and otherwise one of
// the first privSize bytes of CPU cpu's private segment; a reference is
// a store with probability storeFrac. CPU cpu's draws are seeded cpu+1.
func hotSpot(l mem.Layout, cpu int, privSize, hotSize uint32, hotFrac, storeFrac float64) func() core.Ref {
	rng := rand.New(rand.NewSource(int64(cpu) + 1))
	priv := l.PrivateSeg(cpu)
	return func() core.Ref {
		base, size := priv, privSize
		if rng.Float64() < hotFrac {
			base, size = l.SharedBase, hotSize
		}
		addr := base + 4*uint32(rng.Intn(int(size/4)))
		return core.Ref{Store: rng.Float64() < storeFrac, Addr: addr, Data: rng.Uint32()}
	}
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
