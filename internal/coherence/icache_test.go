package coherence

import (
	"testing"

	"repro/internal/isa"
)

// fetchWord is the per-word fetch the core makes of Line: the decoded
// instruction at addr, if its block is resident.
func fetchWord(ic *ICache, now uint64, addr uint32) (isa.Instr, bool) {
	line, ok := ic.Line(now, addr)
	if !ok {
		return isa.Instr{}, false
	}
	return line[addr/4%uint32(len(line))], true
}

func TestICacheRefillAndHits(t *testing.T) {
	r := newRig(t, WTI, 1, 1)
	ic := r.ICaches[0]
	// Seed code into memory.
	r.space.WriteWord(rigBase+0x800, 0x12345678)
	r.space.WriteWord(rigBase+0x804, 0x9abcdef0)

	// First fetch misses.
	if _, ok := fetchWord(ic, r.now, rigBase+0x800); ok {
		t.Fatal("cold fetch hit")
	}
	var got isa.Instr
	for i := 0; i < 10000; i++ {
		r.step()
		if w, ok := fetchWord(ic, r.now, rigBase+0x800); ok {
			got = w
			break
		}
	}
	if got != isa.Decode(0x12345678) {
		t.Fatalf("refilled word = %+v", got)
	}
	// The rest of the block hits without further traffic.
	pkts := r.net.Stats().Packets
	if w, ok := fetchWord(ic, r.now, rigBase+0x804); !ok || w != isa.Decode(0x9abcdef0) {
		t.Fatalf("in-block fetch = %+v, %v", w, ok)
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
	ic.Line(r.now, rigBase+0xa00)
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
	fetch := func(addr uint32) isa.Instr {
		for i := 0; i < 10000; i++ {
			if w, ok := fetchWord(ic, r.now, addr); ok {
				return w
			}
			r.step()
		}
		t.Fatalf("fetch %#x never completed", addr)
		return isa.Instr{}
	}
	if fetch(a) != isa.Decode(1) || fetch(b) != isa.Decode(2) || fetch(a) != isa.Decode(1) {
		t.Fatal("wrong instruction words after conflict evictions")
	}
	if ic.Misses != 3 {
		t.Fatalf("misses = %d, want 3 (direct-mapped conflicts)", ic.Misses)
	}
}

// fill fetches addr on cache i until its block is resident.
func (r *rig) fill(i int, addr uint32) []isa.Instr {
	for n := 0; n < 10000; n++ {
		if line, ok := r.ICaches[i].Line(r.now, addr); ok {
			return line
		}
		r.step()
	}
	r.t.Fatalf("icache %d: fetch of %#x never completed", i, addr)
	return nil
}

func TestCodeStoreSharesEqualBlocksOnly(t *testing.T) {
	r := newRig(t, WTI, 3, 1)
	a := uint32(rigBase + 0xc00)
	r.space.WriteWord(a, mustEncode(isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: 1}))
	l0, l1 := r.fill(0, a), r.fill(1, a)
	if &l0[0] != &l1[0] || len(r.code) != 1 {
		t.Fatalf("two fills of one block hold %d decoded copies", len(r.code))
	}
	// The text changes under the caches: the next fill carries other
	// bytes and must not be handed the first version, nor disturb it.
	r.space.WriteWord(a, mustEncode(isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: 2}))
	l2 := r.fill(2, a)
	if l2[0].Imm != 2 || &l2[0] == &l0[0] {
		t.Fatalf("refill after a text change decoded %+v", l2[0])
	}
	if l0[0].Imm != 1 || r.fill(0, a)[0].Imm != 1 {
		t.Fatal("a later version of the block changed the line a cache already holds")
	}
	if len(r.code) != 2 {
		t.Fatalf("%d blocks in the store, want the two versions", len(r.code))
	}
}

func TestSeededCodeStoreDecodesNothingAtFill(t *testing.T) {
	r := newRig(t, WTI, 2, 1)
	base, words := uint32(rigBase+0xd04), 24 // unaligned at both ends: 4 blocks
	for i := 0; i < words; i++ {
		r.space.WriteWord(base+uint32(4*i), mustEncode(isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: int32(i)}))
	}
	r.SeedCode(base, make([]byte, 4*words))
	if len(r.code) != 4 {
		t.Fatalf("seeding %d words at %#x made %d blocks, want 4", words, base, len(r.code))
	}
	for i := 0; i < words; i++ {
		addr := base + uint32(4*i)
		if in := r.fill(i%2, addr)[addr/4%8]; in.Imm != int32(i) {
			t.Fatalf("word %d decoded %+v", i, in)
		}
	}
	if len(r.code) != 4 {
		t.Fatalf("fills of a seeded program grew the store to %d blocks", len(r.code))
	}
}

// mustEncode encodes an instruction the test built to be encodable.
func mustEncode(in isa.Instr) uint32 {
	w, err := isa.Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
