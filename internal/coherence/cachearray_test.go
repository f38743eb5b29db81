package coherence

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestCacheArrayGeometry(t *testing.T) {
	c := newCacheArray(4096, 1)
	if sets := len(c.state) / c.ways; sets != 128 || c.setMask != 127 {
		t.Fatalf("%d sets, mask %#x; want 128 (Table 2: 4KB direct-mapped, 32B blocks)", sets, c.setMask)
	}
}

func TestCacheArrayAddressDecomposition(t *testing.T) {
	// blockAddr(index(a)) must reconstruct the block address after fill.
	c := newCacheArray(4096, 1)
	f := func(addr uint32) bool {
		blk := addr &^ 31
		set := c.fill(blk, Shared, make([]byte, 32))
		return c.blockAddr(set) == blk
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheArrayLookupAndConflict(t *testing.T) {
	c := newCacheArray(4096, 1)
	blk := uint32(0x10000)
	data := make([]byte, 32)
	data[4] = 0xaa
	c.fill(blk, Shared, data)
	set, hit := c.lookup(blk + 12)
	if !hit {
		t.Fatal("fill not found")
	}
	if got := c.readWord(set, blk+4); got != 0xaa {
		t.Fatalf("readWord = %#x", got)
	}
	// A conflicting block (same index, different tag) must miss and,
	// when filled, evict the old one.
	conflict := blk + 4096
	if _, hit := c.lookup(conflict); hit {
		t.Fatal("conflicting address hit")
	}
	c.fill(conflict, Modified, make([]byte, 32))
	if _, hit := c.lookup(blk); hit {
		t.Fatal("old block survived a conflicting fill")
	}
}

// TestCacheArrayWriteWordByteEnables: every access is an aligned word,
// so writeWord enables all four byte lanes of its word, little-endian,
// and none of its neighbours'.
func TestCacheArrayWriteWordByteEnables(t *testing.T) {
	c := newCacheArray(4096, 1)
	blk := uint32(0x2000)
	data := make([]byte, 32)
	for i := range data {
		data[i] = 0xee
	}
	set := c.fill(blk, Modified, data)
	c.writeWord(set, blk+8, 0x11223344)
	c.writeWord(set, blk+9, 0xffaaffbb) // the same word: its low address bits are ignored
	if got := c.readWord(set, blk+8); got != 0xffaaffbb {
		t.Fatalf("writeWord = %#x, want every byte replaced", got)
	}
	if d := c.lineData(set); d[8] != 0xbb || d[11] != 0xff {
		t.Fatalf("word bytes % x, want little-endian", d[8:12])
	}
	if c.readWord(set, blk+4) != 0xeeeeeeee || c.readWord(set, blk+12) != 0xeeeeeeee {
		t.Fatal("writeWord touched a neighbouring word")
	}
}

func TestCacheArrayInvalidate(t *testing.T) {
	c := newCacheArray(4096, 1)
	blk := uint32(0x3000)
	c.fill(blk, Exclusive, make([]byte, 32))
	if !c.invalidate(blk) {
		t.Fatal("invalidate missed a resident block")
	}
	if _, hit := c.lookup(blk); hit {
		t.Fatal("block resident after invalidate")
	}
	if c.invalidate(blk) {
		t.Fatal("invalidate dropped a non-resident block")
	}
	// Tag check: same set, different tag must not be dropped.
	c.fill(blk, Shared, make([]byte, 32))
	if c.invalidate(blk + 4096) {
		t.Fatal("invalidate ignored the tag")
	}
}

func TestLineStateString(t *testing.T) {
	for _, c := range []struct {
		st   LineState
		want string
	}{{Invalid, "I"}, {Shared, "S"}, {Exclusive, "E"}, {Modified, "M"}} {
		if c.st.String() != c.want {
			t.Errorf("%d.String() = %q", c.st, c.st.String())
		}
	}
}

func TestMsgWireBytes(t *testing.T) {
	var blk [BlockBytes]byte
	cases := []struct {
		m    Msg
		want int
	}{
		{Msg{Kind: ReqRead}, 8},
		{Msg{Kind: ReqReadExcl}, 8},
		{Msg{Kind: ReqUpgrade}, 8},
		{Msg{Kind: ReqWriteThrough, Word: 1}, 12},
		{Msg{Kind: ReqSwap, Word: 1}, 12},
		{Msg{Kind: RspSwap, Word: 1}, 12},
		{Msg{Kind: ReqWriteBack, Data: blk}, 40},
		{Msg{Kind: RspData, Data: blk}, 40},
		{Msg{Kind: RspIData, Data: blk}, 40},
		{Msg{Kind: RspFetch, Data: blk}, 40},
		{Msg{Kind: RspFetch, NoData: true}, 8},
		{Msg{Kind: CmdInval}, 8},
		{Msg{Kind: RspInvAck}, 8},
		{Msg{Kind: RspWriteAck}, 8},
	}
	for _, c := range cases {
		if got := c.m.WireBytes(); got != c.want {
			t.Errorf("WireBytes(%v) = %d, want %d", c.m.Kind, got, c.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(8)
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []Params{
		func() Params { p := DefaultParams(8); p.NumCPUs = 65; return p }(),
		func() Params { p := DefaultParams(8); p.DCacheBytes = 100; return p }(),
		// 96 sets: every array indexes by shift and mask.
		func() Params { p := DefaultParams(8); p.DCacheBytes = 96 * 32; return p }(),
		func() Params { p := DefaultParams(8); p.ICacheBytes = 96 * 32 * 2; p.Ways = 2; return p }(),
		func() Params { p := DefaultParams(8); p.WriteBufferWords = 0; return p }(),
		func() Params { p := DefaultParams(8); p.MemService = 0; return p }(),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d validated", i)
		}
	}
}

func TestSetAssociativeLRU(t *testing.T) {
	// 2-way: two conflicting blocks coexist; a third evicts the LRU.
	c := newCacheArray(4096, 2)
	sets := uint32(4096 / 32 / 2)
	a := uint32(0x10000)
	b := a + sets*32   // same set, different tag
	d := a + 2*sets*32 // same set again
	c.fill(a, Shared, make([]byte, 32))
	c.fill(b, Shared, make([]byte, 32))
	if _, hit := c.probe(a); !hit {
		t.Fatal("2-way set evicted the first block prematurely")
	}
	// Touch a so b becomes LRU; fill d must evict b.
	c.lookup(a)
	c.fill(d, Shared, make([]byte, 32))
	if _, hit := c.probe(a); !hit {
		t.Fatal("LRU evicted the recently used block")
	}
	if _, hit := c.probe(b); hit {
		t.Fatal("LRU kept the least recently used block")
	}
	if _, hit := c.probe(d); !hit {
		t.Fatal("fill lost the new block")
	}
}

// TestChargeHitsActsAsLoadsThatHit: a load pattern that repeats, n of
// its hits charged by ChargeHits and the k after them loaded (k at least
// a period, so each line is loaded again), leaves the cache where n+k
// Loads leave it: the counters, the replacement clock, every line's
// stamp and so the victim of the next conflicting fill — for every
// policy at every associativity.
func TestChargeHitsActsAsLoadsThatHit(t *testing.T) {
	for i := range Protocols {
		for _, ways := range []int{1, 2, 4} {
			stride := uint32(DefaultParams(1).DCacheBytes / ways) // one set apart
			var set, period []uint32                              // the ways of one set; the pattern
			for w := 0; w < ways; w++ {
				set = append(set, rigBase+0x40+uint32(w)*stride)
			}
			period = append(period, rigBase+0x84) // a line of another set, then the set backwards
			for w := ways - 1; w >= 0; w-- {
				period = append(period, set[w]+uint32(4*w))
			}
			l := len(period)
			for _, nk := range [][2]int{{0, l}, {1, l}, {l, l}, {3*l + 2, l + 1}, {13, 2*l + 3}} {
				n, k := nk[0], nk[1]
				var rigs [2]*rig
				for j := range rigs {
					r := newRigWith(t, Protocol(i), 1, 1, func(p *Params) { p.Ways = ways })
					for _, a := range append(set, period[0]) { // stamped in this order
						r.load(0, a)
					}
					rigs[j] = r
				}
				ref, dut := rigs[0], rigs[1]
				hit := func(r *rig, x int) {
					if _, ok := r.DCaches[0].Load(r.now, period[x%l]); !ok {
						t.Fatalf("%v ways=%d: load of %#x missed", Protocol(i), ways, period[x%l])
					}
				}
				for x := 0; x < n+k; x++ {
					hit(ref, x)
				}
				dut.DCaches[0].ChargeHits(uint64(n))
				for x := n; x < n+k; x++ {
					hit(dut, x)
				}
				ra, _ := ref.line(0, set[0])
				da, _ := dut.line(0, set[0])
				if *ref.DCaches[0].Stats() != *dut.DCaches[0].Stats() || ra.clock != da.clock || !reflect.DeepEqual(ra.lru, da.lru) {
					t.Fatalf("%v ways=%d n=%d k=%d: %d Loads left %+v clock %d stamps %v; ChargeHits and %d Loads %+v clock %d stamps %v",
						Protocol(i), ways, n, k, n+k, *ref.DCaches[0].Stats(), ra.clock, ra.lru, k, *dut.DCaches[0].Stats(), da.clock, da.lru)
				}
				for _, r := range rigs {
					r.load(0, set[0]+uint32(ways)*stride) // conflicts with every way of the set
					r.settle()
				}
				if a, b := ref.DCaches[0].Lines(), dut.DCaches[0].Lines(); !reflect.DeepEqual(a, b) {
					t.Fatalf("%v ways=%d n=%d k=%d: a conflicting fill left %v after Loads, %v after ChargeHits", Protocol(i), ways, n, k, a, b)
				}
			}
		}
	}
}

func TestAssociativityReducesConflictMisses(t *testing.T) {
	// Alternating between two conflicting blocks: the direct-mapped
	// array misses every time, the 2-way array hits after warm-up.
	count := func(ways int) int {
		c := newCacheArray(4096, ways)
		sets := uint32(4096 / 32 / ways)
		a, b := uint32(0x2000), uint32(0x2000)+sets*32
		misses := 0
		for i := 0; i < 20; i++ {
			for _, addr := range []uint32{a, b} {
				if _, hit := c.lookup(addr); !hit {
					misses++
					c.fill(addr, Shared, make([]byte, 32))
				}
			}
		}
		return misses
	}
	if dm := count(1); dm != 40 {
		t.Fatalf("direct-mapped misses = %d, want 40 (thrash)", dm)
	}
	if w2 := count(2); w2 != 2 {
		t.Fatalf("2-way misses = %d, want 2 (compulsory only)", w2)
	}
}

func TestFillReplacesResidentBlockInPlace(t *testing.T) {
	c := newCacheArray(4096, 2)
	a := uint32(0x3000)
	l1 := c.fill(a, Shared, make([]byte, 32))
	l2 := c.fill(a, Modified, make([]byte, 32))
	if l1 != l2 {
		t.Fatalf("refill of a resident block moved it: %d -> %d", l1, l2)
	}
	if c.state[l2] != Modified {
		t.Fatal("refill did not update the state")
	}
}
