package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
)

func TestUniformStaysInRegionProperty(t *testing.T) {
	p := UniformParams{Base: 0x10000, Size: 4096, StoreFrac: 0.5, Seed: 42}
	g := NewUniform(p)
	f := func() bool {
		op := g.Next()
		return op.Addr >= p.Base && op.Addr < p.Base+p.Size && op.Addr%4 == 0
	}
	if err := quick.Check(func(uint8) bool { return f() }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformDeterministic(t *testing.T) {
	a := NewUniform(UniformParams{Base: 0, Size: 1024, StoreFrac: 0.3, Seed: 7})
	b := NewUniform(UniformParams{Base: 0, Size: 1024, StoreFrac: 0.3, Seed: 7})
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestHotSpotMix(t *testing.T) {
	p := HotSpotParams{
		PrivateBase: 0x1000, PrivateSize: 4096,
		HotBase: 0x8000, HotSize: 32,
		HotFrac: 0.5, StoreFrac: 0.5, Seed: 3,
	}
	g := NewHotSpot(p)
	hot, private := 0, 0
	for i := 0; i < 2000; i++ {
		op := g.Next()
		switch {
		case op.Addr >= p.HotBase && op.Addr < p.HotBase+p.HotSize:
			hot++
		case op.Addr >= p.PrivateBase && op.Addr < p.PrivateBase+p.PrivateSize:
			private++
		default:
			t.Fatalf("address %#x outside both regions", op.Addr)
		}
	}
	if hot < 800 || hot > 1200 {
		t.Fatalf("hot fraction off: %d/2000", hot)
	}
	_ = private
}

func TestWriteStreamSequentialStores(t *testing.T) {
	g := NewWriteStream(0x100, 16, 4)
	for i := 0; i < 8; i++ {
		op := g.Next()
		if !op.Store {
			t.Fatal("write stream produced a load")
		}
		want := uint32(0x100 + (i*4)%16)
		if op.Addr != want {
			t.Fatalf("op %d addr = %#x, want %#x", i, op.Addr, want)
		}
	}
	strided := NewWriteStream(0x100, 64, 32)
	if a, b := strided.Next().Addr, strided.Next().Addr; a != 0x100 || b != 0x120 {
		t.Fatalf("strided addrs %#x %#x", a, b)
	}
}

func TestPrivateRMWAlternates(t *testing.T) {
	g := NewPrivateRMW(0x200, 16)
	for i := 0; i < 8; i++ {
		ld := g.Next()
		st := g.Next()
		if ld.Store || !st.Store || ld.Addr != st.Addr {
			t.Fatalf("pair %d: %+v / %+v", i, ld, st)
		}
	}
}

func TestHarnessRunsBothProtocols(t *testing.T) {
	l := mem.DefaultLayout(2)
	for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WBMESI} {
		h, err := NewHarness(core.DefaultConfig(proto, mem.Arch2, 2), func(cpu int) Generator {
			return NewUniform(UniformParams{
				Base: l.SharedBase, Size: 2048, StoreFrac: 0.3, Seed: int64(cpu) + 1,
			})
		}, 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		var done uint64
		for _, c := range res.CPUs {
			done += c.Ops
		}
		if done != 600 {
			t.Fatalf("%v: completed %d ops, want 600", proto, done)
		}
		if res.Net.TotalBytes == 0 {
			t.Fatalf("%v: no traffic recorded", proto)
		}
	}
}

// TestHarnessScheduledMatchesNaive pins the trace CPUs' half of the wake
// contract: sleeping through think time and past the end of the stream
// (and letting the platform under them sleep and leap) changes no
// result — cycles, traffic, per-CPU stall, think and latency counters —
// against the naive schedule that ticks everything every cycle.
func TestHarnessScheduledMatchesNaive(t *testing.T) {
	l := mem.DefaultLayout(2)
	gens := []struct {
		name string
		gen  func(int) Generator
	}{
		{"uniform", func(cpu int) Generator {
			return NewUniform(UniformParams{Base: l.SharedBase, Size: 2048, StoreFrac: 0.4, Seed: int64(cpu) + 1})
		}},
		{"hotspot", func(cpu int) Generator {
			return NewHotSpot(HotSpotParams{PrivateBase: l.PrivateSeg(cpu), PrivateSize: 4096,
				HotBase: l.SharedBase, HotSize: 32, HotFrac: 0.2, StoreFrac: 0.5, Seed: int64(cpu) + 1})
		}},
		{"rmw", func(cpu int) Generator { return NewPrivateRMW(l.PrivateSeg(cpu), 1024) }},
	}
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, proto := range []coherence.Protocol{coherence.WTI, coherence.WTU, coherence.WBMESI} {
			for _, think := range []int{0, 9} {
				run := func(naive bool) (*Result, *core.System) {
					cfg := core.DefaultConfig(proto, mem.Arch2, 2)
					cfg.DisableLeap = naive
					h, err := NewHarness(cfg, gen, 400, think)
					if err != nil {
						t.Fatal(err)
					}
					res, err := h.Run(0)
					if err != nil {
						t.Fatal(err)
					}
					return res, h.Sys
				}
				naive, nsys := run(true)
				sched, ssys := run(false)
				if !reflect.DeepEqual(naive, sched) {
					t.Errorf("%s/%v/think %d: results differ:\nnaive:     %+v\nscheduled: %+v", name, proto, think, naive, sched)
				}
				if nsys.Engine.SkippedTicks() != 0 || ssys.Engine.SkippedTicks() == 0 {
					t.Errorf("%s/%v/think %d: skipped ticks naive %d, scheduled %d; want 0 and > 0",
						name, proto, think, nsys.Engine.SkippedTicks(), ssys.Engine.SkippedTicks())
				}
				if think > 0 && (sched.CPUs[0].ThinkCycles == 0 || ssys.Engine.Leaps() == 0) {
					t.Errorf("%s/%v: think time neither counted (%d) nor leaped (%d leaps)",
						name, proto, sched.CPUs[0].ThinkCycles, ssys.Engine.Leaps())
				}
			}
		}
	}
}

func TestBestWorstCaseShapes(t *testing.T) {
	// The defining asymmetry: write streaming favours WTI, private RMW
	// favours WB — in NoC traffic.
	l := mem.DefaultLayout(2)
	traffic := func(proto coherence.Protocol, gen func(int) Generator) uint64 {
		h, err := NewHarness(core.DefaultConfig(proto, mem.Arch2, 2), gen, 2000, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := h.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Net.TotalBytes
	}

	sparse := func(cpu int) Generator {
		return NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 32)
	}
	if wti, wb := traffic(coherence.WTI, sparse), traffic(coherence.WBMESI, sparse); wti >= wb {
		t.Fatalf("sparse writes: WTI traffic %d >= WB %d", wti, wb)
	}

	// The dense regime flips: per-word overhead outweighs block moves.
	dense := func(cpu int) Generator {
		return NewWriteStream(l.SharedBase+uint32(cpu)*0x40000, 0x40000, 4)
	}
	if wti, wb := traffic(coherence.WTI, dense), traffic(coherence.WBMESI, dense); wb >= wti {
		t.Fatalf("dense writes: WB traffic %d >= WTI %d", wb, wti)
	}

	rmw := func(cpu int) Generator {
		return NewPrivateRMW(l.PrivateSeg(cpu), 1024)
	}
	if wti, wb := traffic(coherence.WTI, rmw), traffic(coherence.WBMESI, rmw); wb >= wti {
		t.Fatalf("private rmw: WB traffic %d >= WTI %d", wb, wti)
	}
}
