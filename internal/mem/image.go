package mem

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	// Sorted by base and disjoint: only the neighbours can overlap.
	i := sort.Search(len(im.segments), func(i int) bool { return im.segments[i].base > base })
	for _, s := range im.segments[max(i-1, 0):min(i+1, len(im.segments))] {
		if base < s.base+uint32(len(s.data)) && s.base < base+uint32(len(data)) {
			panic(fmt.Sprintf("mem: image segment at %#x overlaps segment at %#x", base, s.base))
		}
	}
	im.segments = slices.Insert(im.segments, i, segment{base: base, data: slices.Clone(data)})
}

// WriteWord stores a single initialized word into the image: inside the
// segment covering it, on the end of the one below, else as a new one.
func (im *Image) WriteWord(addr uint32, v uint32) {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 4), v)
	if i := sort.Search(len(im.segments), func(i int) bool { return im.segments[i].base > addr }); i > 0 {
		s := &im.segments[i-1]
		end := s.base + uint32(len(s.data))
		switch {
		case addr+4 <= end:
			copy(s.data[addr-s.base:], b)
			return
		case addr == end && (i == len(im.segments) || addr+4 <= im.segments[i].base):
			s.data = append(s.data, b...)
			return
		}
	}
	im.AddSegment(addr, b)
}

// WriteFloat stores a float32 into the image.
func (im *Image) WriteFloat(addr uint32, v float32) {
	im.WriteWord(addr, math.Float32bits(v))
}

// Define records a symbol for later lookup by tests and harnesses.
func (im *Image) Define(name string, addr uint32) { im.Symbols[name] = addr }

// Code returns the segment the entry point lies in: the program text.
func (im *Image) Code() (base uint32, data []byte) {
	for _, s := range im.segments {
		if im.Entry-s.base < uint32(len(s.data)) {
			return s.base, s.data
		}
	}
	return 0, nil
}

// LoadInto copies every segment into the space.
func (im *Image) LoadInto(s *Space) {
	for _, seg := range im.segments {
		for i, b := range seg.data {
			s.SetByte(seg.base+uint32(i), b)
		}
	}
}
