package trace

import (
	"testing"
	"testing/quick"
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
