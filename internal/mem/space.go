// Package mem models the memory substrate of the simulated platform:
// byte-addressable backing storage, the address-to-bank map that defines
// the paper's two architectures, the standard address-space layout, and
// loadable program images.
//
// Storage is held in a single Space shared by all banks; each bank owns
// a disjoint set of addresses (per the AddrMap) and contributes timing
// and directory state, which live in the coherence package. Keeping the
// bits in one paged structure keeps the model bit-accurate without
// allocating the full 4 GiB address space.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Space is a sparse, byte-addressable 32-bit physical memory. Pages are
// allocated on first touch. The zero value is ready to use.
type Space struct {
	pages map[uint32]*[pageSize]byte
}

// NewSpace returns an empty memory space.
func NewSpace() *Space {
	return &Space{pages: make(map[uint32]*[pageSize]byte)}
}

func (s *Space) page(addr uint32, alloc bool) *[pageSize]byte {
	pn := addr >> pageShift
	p := s.pages[pn]
	if p == nil && alloc {
		p = new([pageSize]byte)
		s.pages[pn] = p
	}
	return p
}

// SetByte stores one byte at addr.
func (s *Space) SetByte(addr uint32, v byte) {
	s.page(addr, true)[addr&pageMask] = v
}

// ReadWord returns the little-endian 32-bit word at addr, which must be
// word-aligned.
func (s *Space) ReadWord(addr uint32) uint32 {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word read at %#x", addr))
	}
	p := s.page(addr, false)
	if p == nil {
		return 0
	}
	off := addr & pageMask
	return binary.LittleEndian.Uint32(p[off : off+4])
}

// WriteWord stores a little-endian 32-bit word at addr, which must be
// word-aligned.
func (s *Space) WriteWord(addr uint32, v uint32) {
	if addr&3 != 0 {
		panic(fmt.Sprintf("mem: unaligned word write at %#x", addr))
	}
	p := s.page(addr, true)
	off := addr & pageMask
	binary.LittleEndian.PutUint32(p[off:off+4], v)
}

// ReadBlock copies the block of len(dst) bytes starting at addr into
// dst. addr must be aligned to len(dst).
func (s *Space) ReadBlock(addr uint32, dst []byte) {
	if addr%uint32(len(dst)) != 0 {
		panic(fmt.Sprintf("mem: unaligned block read at %#x", addr))
	}
	p := s.page(addr, false)
	off := addr & pageMask
	if p == nil {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	copy(dst, p[off:off+uint32(len(dst))])
}

// WriteBlock stores src at addr, which must be aligned to len(src).
func (s *Space) WriteBlock(addr uint32, src []byte) {
	if addr%uint32(len(src)) != 0 {
		panic(fmt.Sprintf("mem: unaligned block write at %#x", addr))
	}
	p := s.page(addr, true)
	off := addr & pageMask
	copy(p[off:off+uint32(len(src))], src)
}

// ReadFloat returns the float32 stored at word-aligned addr.
func (s *Space) ReadFloat(addr uint32) float32 {
	return math.Float32frombits(s.ReadWord(addr))
}
