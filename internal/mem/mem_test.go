package mem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceWordRoundTrip(t *testing.T) {
	s := NewSpace()
	s.WriteWord(0x1000, 0xdeadbeef)
	if got := s.ReadWord(0x1000); got != 0xdeadbeef {
		t.Fatalf("ReadWord = %#x", got)
	}
	if got := s.ReadWord(0x2000); got != 0 {
		t.Fatalf("untouched word = %#x", got)
	}
}

// Size reports the total initialized bytes in the image.
func (im *Image) Size() int {
	n := 0
	for _, s := range im.segments {
		n += len(s.data)
	}
	return n
}

// WriteFloat stores a float32 at word-aligned addr.
func (s *Space) WriteFloat(addr uint32, v float32) {
	s.WriteWord(addr, math.Float32bits(v))
}

// Byte returns the byte at addr (zero if the page was never written).
func (s *Space) Byte(addr uint32) byte {
	if p := s.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

func TestSpaceByteWordConsistency(t *testing.T) {
	s := NewSpace()
	s.WriteWord(0x100, 0x04030201)
	for i := uint32(0); i < 4; i++ {
		if got := s.Byte(0x100 + i); got != byte(i+1) {
			t.Fatalf("byte %d = %#x (little endian expected)", i, got)
		}
	}
	s.SetByte(0x102, 0xaa)
	if got := s.ReadWord(0x100); got != 0x04aa0201 {
		t.Fatalf("word after byte poke = %#x", got)
	}
}

func TestSpaceBlockRoundTrip(t *testing.T) {
	s := NewSpace()
	blk := make([]byte, 32)
	for i := range blk {
		blk[i] = byte(i * 3)
	}
	s.WriteBlock(0x2000, blk)
	got := make([]byte, 32)
	s.ReadBlock(0x2000, got)
	for i := range blk {
		if got[i] != blk[i] {
			t.Fatalf("block byte %d = %#x, want %#x", i, got[i], blk[i])
		}
	}
	// Unallocated block reads as zero even into a dirty buffer.
	s.ReadBlock(0x4000, got)
	for i := range got {
		if got[i] != 0 {
			t.Fatal("unallocated block not zero")
		}
	}
}

func TestSpaceUnalignedPanics(t *testing.T) {
	s := NewSpace()
	for _, f := range []func(){
		func() { s.ReadWord(1) },
		func() { s.WriteWord(2, 0) },
		func() { s.ReadBlock(8, make([]byte, 32)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unaligned access did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSpaceWordProperty(t *testing.T) {
	s := NewSpace()
	f := func(addr uint32, v uint32) bool {
		addr &^= 3
		s.WriteWord(addr, v)
		return s.ReadWord(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceFloat(t *testing.T) {
	s := NewSpace()
	s.WriteFloat(0x20, 3.5)
	if got := s.ReadFloat(0x20); got != 3.5 {
		t.Fatalf("ReadFloat = %v", got)
	}
}

func TestAddrMapSingleAndInterleaved(t *testing.T) {
	m := NewAddrMap(4)
	m.AddRegion(Region{Name: "lo", Base: 0x1000, Size: 0x1000, Banks: []int{3}})
	m.AddRegion(Region{Name: "hi", Base: 0x8000, Size: 0x3000, Banks: []int{0, 1, 2}, Granule: 64})
	if got := m.BankOf(0x1800); got != 3 {
		t.Fatalf("lo bank = %d", got)
	}
	if got := m.BankOf(0x8000); got != 0 {
		t.Fatalf("hi chunk 0 bank = %d", got)
	}
	if got := m.BankOf(0x8040); got != 1 {
		t.Fatalf("hi chunk 1 bank = %d", got)
	}
	if got := m.BankOf(0x80c0); got != 0 {
		t.Fatalf("hi chunk 3 wraps to bank %d", got)
	}
}

func TestAddrMapUnmappedPanics(t *testing.T) {
	m := NewAddrMap(1)
	m.AddRegion(Region{Name: "r", Base: 0x1000, Size: 0x100, Banks: []int{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("unmapped access did not panic")
		}
	}()
	m.BankOf(0x5000)
}

func TestAddrMapOverlapPanics(t *testing.T) {
	m := NewAddrMap(1)
	m.AddRegion(Region{Name: "a", Base: 0x1000, Size: 0x100, Banks: []int{0}})
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping region did not panic")
		}
	}()
	m.AddRegion(Region{Name: "b", Base: 0x10f0, Size: 0x100, Banks: []int{0}})
}

func TestAddrMapInterleavePartitionProperty(t *testing.T) {
	// Within an interleaved region, consecutive granules rotate over
	// the banks and addresses within a granule share a bank.
	m := NewAddrMap(3)
	r := Region{Name: "i", Base: 0x4000, Size: 0x3000, Banks: []int{0, 1, 2}, Granule: 64}
	m.AddRegion(r)
	f := func(off uint32) bool {
		off %= r.Size
		addr := r.Base + off
		want := int(off/64) % 3
		return m.BankOf(addr) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestArchBankCounts(t *testing.T) {
	if Arch1.NumBanks(64) != 2 {
		t.Fatal("arch1 must have 2 banks")
	}
	if Arch2.NumBanks(16) != 19 {
		t.Fatal("arch2 must have n+3 banks")
	}
}

func TestArchMapsCoverLayout(t *testing.T) {
	for _, arch := range []Arch{Arch1, Arch2} {
		for _, n := range []int{1, 4, 16} {
			l := DefaultLayout(n)
			m := arch.BuildMap(l)
			// Every layout address resolves to a valid bank.
			probes := []uint32{
				l.CodeBase, l.CodeBase + l.CodeSize - 4,
				l.SharedBase, l.SharedBase + l.SharedSize - 4,
				l.PrivateSeg(0), l.StackTop(n-1) - 4,
			}
			for _, a := range probes {
				b := m.BankOf(a)
				if b < 0 || b >= arch.NumBanks(n) {
					t.Fatalf("%v n=%d: addr %#x -> bank %d", arch, n, a, b)
				}
			}
		}
	}
}

func TestArch1Centralization(t *testing.T) {
	// The defining property of Architecture 1: all data in bank 0.
	l := DefaultLayout(8)
	m := Arch1.BuildMap(l)
	for _, a := range []uint32{l.SharedBase, l.SharedBase + 4096, l.PrivateSeg(3), l.StackTop(7) - 4} {
		if b := m.BankOf(a); b != 0 {
			t.Fatalf("data address %#x on bank %d, want 0", a, b)
		}
	}
	if b := m.BankOf(l.CodeBase); b != 1 {
		t.Fatalf("code on bank %d, want 1", b)
	}
}

func TestArch2PrivateBanks(t *testing.T) {
	// The defining property of Architecture 2: CPU i's private segment
	// on bank i, shared data spread over the last three banks.
	l := DefaultLayout(8)
	m := Arch2.BuildMap(l)
	for cpu := 0; cpu < 8; cpu++ {
		if b := m.BankOf(l.PrivateSeg(cpu) + 64); b != cpu {
			t.Fatalf("cpu %d private data on bank %d", cpu, b)
		}
	}
	seen := map[int]bool{}
	for off := uint32(0); off < 64*SharedInterleaveGranule; off += SharedInterleaveGranule {
		seen[m.BankOf(l.SharedBase+off)] = true
	}
	if len(seen) != 3 || !seen[8] || !seen[9] || !seen[10] {
		t.Fatalf("shared data banks = %v, want {8,9,10}", seen)
	}
}

func TestImageSegmentsAndSymbols(t *testing.T) {
	img := NewImage()
	img.AddSegment(0x1000, []byte{1, 2, 3, 4})
	img.WriteWord(0x1000, 0xa0b0c0d0) // merge into existing segment
	img.WriteWord(0x3000, 42)         // new segment
	img.Define("answer", 0x3000)

	s := NewSpace()
	img.LoadInto(s)
	if got := s.ReadWord(0x1000); got != 0xa0b0c0d0 {
		t.Fatalf("merged word = %#x", got)
	}
	if got := s.ReadWord(0x3000); got != 42 {
		t.Fatalf("symbol word = %d", got)
	}
	if a := img.Symbols["answer"]; a != 0x3000 {
		t.Fatalf("symbol = %#x", a)
	}
	if _, ok := img.Symbols["nope"]; ok {
		t.Fatal("undefined symbol resolved")
	}
	if img.Size() != 8 {
		t.Fatalf("Size = %d", img.Size())
	}
}

func TestImageOverlapPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		add  func(img *Image)
		want string
	}{
		{"into the segment below", func(img *Image) { img.AddSegment(0x1008, make([]byte, 16)) },
			"mem: image segment at 0x1008 overlaps segment at 0x1000"},
		{"into the segment above", func(img *Image) { img.AddSegment(0xff8, make([]byte, 16)) },
			"mem: image segment at 0xff8 overlaps segment at 0x1000"},
		{"over several", func(img *Image) { img.AddSegment(0x800, make([]byte, 0x2000)) },
			"mem: image segment at 0x800 overlaps segment at 0x1000"},
		{"a word across a segment's end", func(img *Image) { img.WriteWord(0x100e, 1) },
			"mem: image segment at 0x100e overlaps segment at 0x1000"},
		{"a word grown into the next segment", func(img *Image) { img.WriteWord(0x1ffe, 1); img.WriteWord(0x2002, 1) },
			"mem: image segment at 0x2002 overlaps segment at 0x2004"},
	} {
		t.Run(c.name, func(t *testing.T) {
			img := NewImage()
			img.AddSegment(0x1000, make([]byte, 16))
			img.AddSegment(0x2004, make([]byte, 16))
			defer func() {
				if got := fmt.Sprint(recover()); got != c.want {
					t.Fatalf("panic %q, want %q", got, c.want)
				}
			}()
			c.add(img)
		})
	}
}

// TestImageWordsLoadLikeANaiveImage writes words in the orders the
// workloads do — runs that grow upward, two arrays interleaved, strays,
// rewrites — and checks the loaded Space page for page against one the
// same words were written into directly, with the segments coalesced
// instead of one per word.
func TestImageWordsLoadLikeANaiveImage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img, want := NewImage(), NewSpace()
	img.AddSegment(0x1000, make([]byte, 64)) // code
	want.WriteBlock(0x1000, make([]byte, 64))
	write := func(addr, v uint32) {
		img.WriteWord(addr, v)
		want.WriteWord(addr, v)
	}
	for i := uint32(0); i < 300; i++ {
		write(0x20000+4*i, rng.Uint32()) // one array ...
		write(0x30000+4*i, rng.Uint32()) // ... interleaved with another
		if i%7 == 0 {
			write(0x40000+64*uint32(rng.Intn(200)), i) // strays, any order, repeats
			write(0x20000+4*uint32(rng.Intn(int(i+1))), i)
		}
		if i%50 == 0 {
			write(0x1000+4*uint32(rng.Intn(16)), i) // inside an added segment
		}
	}
	if n := len(img.segments); n > 3+43 {
		t.Fatalf("%d segments for code, two arrays and at most 43 strays", n)
	}
	got := NewSpace()
	img.LoadInto(got)
	if len(got.pages) != len(want.pages) {
		t.Fatalf("%d pages loaded, want %d", len(got.pages), len(want.pages))
	}
	//lint:allow maprange every page is compared, in any order
	for pn, p := range want.pages {
		if g := got.pages[pn]; g == nil || *g != *p {
			t.Fatalf("page %#x differs from the words written", pn)
		}
	}
}

func TestLayoutStacksDisjoint(t *testing.T) {
	l := DefaultLayout(4)
	for i := 0; i < 3; i++ {
		if l.StackTop(i) >= l.PrivateSeg(i+1) {
			t.Fatalf("stack %d overlaps next private segment", i)
		}
	}
}
