package coherence

import "testing"

func TestICacheRefillAndHits(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	ic := r.ICaches[0]
	// Seed code into memory.
	r.space.WriteWord(rigBase+0x800, 0x12345678)
	r.space.WriteWord(rigBase+0x804, 0x9abcdef0)

	// First fetch misses.
	if _, ok := ic.Fetch(r.now, rigBase+0x800); ok {
		t.Fatal("cold fetch hit")
	}
	var got uint32
	for i := 0; i < 10000; i++ {
		r.step()
		if w, ok := ic.Fetch(r.now, rigBase+0x800); ok {
			got = w
			break
		}
	}
	if got != 0x12345678 {
		t.Fatalf("refilled word = %#x", got)
	}
	// The rest of the block hits without further traffic.
	pkts := r.net.Stats().Packets
	if w, ok := ic.Fetch(r.now, rigBase+0x804); !ok || w != 0x9abcdef0 {
		t.Fatalf("in-block fetch = %#x, %v", w, ok)
	}
	if r.net.Stats().Packets != pkts {
		t.Fatal("block-internal fetch generated traffic")
	}
	if ic.Fetches != 3 || ic.Misses != 1 {
		t.Fatalf("stats: fetches=%d misses=%d", ic.Fetches, ic.Misses)
	}
}

func TestICacheSharesPortWithDCache(t *testing.T) {
	// An instruction refill and a data miss issued back to back share
	// the CPU's single node: both must complete, and the node carries
	// both request kinds.
	r := newRig(t, WTI, 1, 1)
	r.space.WriteWord(rigBase+0x900, 42)
	ic := r.ICaches[0]
	ic.Fetch(r.now, rigBase+0xa00)
	v := r.load(0, rigBase+0x900)
	if v != 42 {
		t.Fatalf("data load = %d", v)
	}
	for i := 0; i < 10000 && !ic.Drained(); i++ {
		r.step()
	}
	if !ic.Drained() {
		t.Fatal("instruction refill starved behind data traffic")
	}
}

func TestICacheConflictEviction(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	ic := r.ICaches[0]
	p := DefaultParams(1)
	a := uint32(rigBase + 0xb00)
	b := a + uint32(p.ICacheBytes) // same set
	r.space.WriteWord(a, 1)
	r.space.WriteWord(b, 2)
	fetch := func(addr uint32) uint32 {
		for i := 0; i < 10000; i++ {
			if w, ok := ic.Fetch(r.now, addr); ok {
				return w
			}
			r.step()
		}
		t.Fatalf("fetch %#x never completed", addr)
		return 0
	}
	if fetch(a) != 1 || fetch(b) != 2 || fetch(a) != 1 {
		t.Fatal("wrong instruction words after conflict evictions")
	}
	if ic.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (direct-mapped conflicts)", ic.Misses)
	}
}
