package exp

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
)

// TestStreamSequencesPinned hashes every stream bench's references, CPU
// by CPU, at 4 and 33 CPUs: FNV-1a over each reference's store flag,
// address and data. Every stream bench's output follows from these
// sequences; a reordered rand draw moves them without failing any run.
func TestStreamSequencesPinned(t *testing.T) {
	pins := []struct {
		bench Bench
		n     int
		hash  uint64
	}{
		{"sparse", 4, 0x722606e51b1c6de5},
		{"rmw", 4, 0x8e4526310be9c025},
		{"prodcons", 4, 0x504b7e4aa6673540},
		{"uniform", 4, 0x4c16dad37d09c718},
		{"hotspot", 4, 0x4475ca5abb47e874},
		{"dense", 4, 0xf2a4a322e40c7265},
		{"sparse", 33, 0x613860d47c6f6f05},
		{"rmw", 33, 0xb2752b3f626e9ea3},
		{"prodcons", 33, 0x7d387d501314bd3c},
		{"uniform", 33, 0xef392c9602a581a4},
		{"hotspot", 33, 0x48c16427d963bc8a},
		{"dense", 33, 0xd1927371b051b94d},
	}
	if len(pins) != 2*len(streamBenches) {
		t.Fatalf("%d pins for %d stream benches at two sizes", len(pins), len(streamBenches))
	}
	for _, p := range pins {
		sb, _ := findStream(p.bench)
		l := mem.DefaultLayout(p.n)
		h := fnv.New64a()
		var b [9]byte
		for cpu := 0; cpu < p.n; cpu++ {
			next := sb.gen(l, cpu)
			for i := uint64(0); i < sb.ops; i++ {
				r := next()
				b[0] = 0
				if r.Store {
					b[0] = 1
				}
				binary.LittleEndian.PutUint32(b[1:], r.Addr)
				binary.LittleEndian.PutUint32(b[5:], r.Data)
				h.Write(b[:])
			}
		}
		if got := h.Sum64(); got != p.hash {
			t.Errorf("%s at n%d: references hash to %#016x, want %#016x", p.bench, p.n, got, p.hash)
		}
	}
}

// TestStreamGeneratorsAllocateNothing holds every row's generator to no
// allocation per reference: simlint's hotalloc cannot follow the stream
// CPU's call into a function value.
func TestStreamGeneratorsAllocateNothing(t *testing.T) {
	l := mem.DefaultLayout(4)
	for _, sb := range streamBenches {
		next := sb.gen(l, 1)
		if a := testing.AllocsPerRun(1000, func() { next() }); a != 0 {
			t.Errorf("%s: %v allocations per reference", sb.bench, a)
		}
	}
}

func TestBestWorstCaseShapes(t *testing.T) {
	// The defining asymmetry: write streaming favours WTI, private RMW
	// favours WB — in NoC traffic.
	l := mem.DefaultLayout(2)
	traffic := func(proto coherence.Protocol, gen func(int) func() core.Ref) uint64 {
		sys, err := core.BuildStreams(core.DefaultConfig(proto, mem.Arch2, 2), gen, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Net.TotalBytes
	}

	sparse := func(cpu int) func() core.Ref { return writeStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32) }
	if wti, wb := traffic(coherence.WTI, sparse), traffic(coherence.WBMESI, sparse); wti >= wb {
		t.Fatalf("sparse writes: WTI traffic %d >= WB %d", wti, wb)
	}

	// The dense regime flips: per-word overhead outweighs block moves.
	dense := func(cpu int) func() core.Ref { return writeStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 4) }
	if wti, wb := traffic(coherence.WTI, dense), traffic(coherence.WBMESI, dense); wb >= wti {
		t.Fatalf("dense writes: WB traffic %d >= WTI %d", wb, wti)
	}

	rmw := func(cpu int) func() core.Ref { return privateRMW(l.PrivateSeg(cpu), 1024) }
	if wti, wb := traffic(coherence.WTI, rmw), traffic(coherence.WBMESI, rmw); wb >= wti {
		t.Fatalf("private rmw: WB traffic %d >= WTI %d", wb, wti)
	}
}

func TestHotSpotMix(t *testing.T) {
	l := mem.DefaultLayout(4)
	const cpu, privSize, hotSize = 2, 4096, 32
	next := hotSpot(l, cpu, privSize, hotSize, 0.5, 0.5)
	priv := l.PrivateSeg(cpu)
	hot := 0
	for i := 0; i < 2000; i++ {
		switch a := next().Addr; {
		case a >= l.SharedBase && a < l.SharedBase+hotSize:
			hot++
		case a >= priv && a < priv+privSize:
		default:
			t.Fatalf("address %#x outside both regions", a)
		}
	}
	if hot < 800 || hot > 1200 {
		t.Fatalf("hot fraction off: %d/2000", hot)
	}
}

func TestWriteStreamSequentialStores(t *testing.T) {
	next := writeStream(0x100, 16, 4)
	for i := 0; i < 8; i++ {
		r := next()
		if !r.Store {
			t.Fatal("write stream produced a load")
		}
		if want := uint32(0x100 + (i*4)%16); r.Addr != want {
			t.Fatalf("ref %d addr = %#x, want %#x", i, r.Addr, want)
		}
	}
	strided := writeStream(0x100, 64, 32)
	if a, b := strided().Addr, strided().Addr; a != 0x100 || b != 0x120 {
		t.Fatalf("strided addrs %#x %#x", a, b)
	}
}

func TestPrivateRMWAlternates(t *testing.T) {
	next := privateRMW(0x200, 16)
	for i := 0; i < 8; i++ {
		ld, st := next(), next()
		if ld.Store || !st.Store || ld.Addr != st.Addr {
			t.Fatalf("pair %d: %+v / %+v", i, ld, st)
		}
	}
}
