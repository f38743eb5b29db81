package mem

import (
	"fmt"
	"math"
	"sort"
)

// Image is a loadable memory image: the host-side equivalent of a
// linked binary plus pre-initialized data. Workloads build an Image
// (code from the assembler or code generator, data written directly by
// the host loader) and the system loads it into the Space before the
// simulation starts — this replaces the paper's OS boot and application
// initialization phases, which are not part of the measured comparison.
type Image struct {
	segments []segment
	Symbols  map[string]uint32
	Entry    uint32 // reset PC for every CPU
}

type segment struct {
	base uint32
	data []byte
}

// NewImage returns an empty image.
func NewImage() *Image {
	return &Image{Symbols: make(map[string]uint32)}
}

// AddSegment registers raw bytes at base. Overlapping segments are a
// build error and panic.
func (im *Image) AddSegment(base uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	for _, s := range im.segments {
		if base < s.base+uint32(len(s.data)) && s.base < base+uint32(len(data)) {
			panic(fmt.Sprintf("mem: image segment at %#x overlaps segment at %#x", base, s.base))
		}
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	im.segments = append(im.segments, segment{base: base, data: cp})
	sort.Slice(im.segments, func(i, j int) bool { return im.segments[i].base < im.segments[j].base })
}

// WriteWord stores a single initialized word into the image, merging
// into an existing segment when possible.
func (im *Image) WriteWord(addr uint32, v uint32) {
	var b [4]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	for idx := range im.segments {
		s := &im.segments[idx]
		if addr >= s.base && addr+4 <= s.base+uint32(len(s.data)) {
			copy(s.data[addr-s.base:], b[:])
			return
		}
	}
	im.AddSegment(addr, b[:])
}

// WriteFloat stores a float32 into the image.
func (im *Image) WriteFloat(addr uint32, v float32) {
	im.WriteWord(addr, math.Float32bits(v))
}

// Define records a symbol for later lookup by tests and harnesses.
func (im *Image) Define(name string, addr uint32) { im.Symbols[name] = addr }

// MustSymbol is Symbol but panics when the symbol is unknown.
func (im *Image) MustSymbol(name string) uint32 {
	a, ok := im.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("mem: undefined symbol %q", name))
	}
	return a
}

// LoadInto copies every segment into the space.
func (im *Image) LoadInto(s *Space) {
	for _, seg := range im.segments {
		for i, b := range seg.data {
			s.SetByte(seg.base+uint32(i), b)
		}
	}
}
