package mem

import (
	"fmt"
	"sort"
)

// Region maps one contiguous address range to memory banks. A region
// either belongs to a single bank or is block-interleaved across a set
// of banks with the given granule (the paper's "accesses sprayed over
// memory banks").
type Region struct {
	Name    string
	Base    uint32
	Size    uint32
	Banks   []int  // one entry = single bank; more = interleaved
	Granule uint32 // interleave granule in bytes; ignored for 1 bank
}

// AddrMap resolves addresses to memory-bank indices. It is the piece of
// configuration that distinguishes the paper's Architecture 1
// (centralized: everything in one bank) from Architecture 2
// (distributed: a private bank per CPU plus interleaved shared banks).
type AddrMap struct {
	NumBanks int
	regions  []Region
}

// NewAddrMap returns an address map over numBanks banks with no regions.
func NewAddrMap(numBanks int) *AddrMap {
	return &AddrMap{NumBanks: numBanks}
}

// AddRegion registers a region. Regions must not overlap and bank
// indices must be valid; AddRegion panics otherwise since maps are
// built from static configuration.
func (m *AddrMap) AddRegion(r Region) {
	if r.Size == 0 {
		panic(fmt.Sprintf("mem: region %q has zero size", r.Name))
	}
	if len(r.Banks) == 0 {
		panic(fmt.Sprintf("mem: region %q has no banks", r.Name))
	}
	for _, b := range r.Banks {
		if b < 0 || b >= m.NumBanks {
			panic(fmt.Sprintf("mem: region %q references bank %d of %d", r.Name, b, m.NumBanks))
		}
	}
	if len(r.Banks) > 1 && (r.Granule == 0 || r.Granule&(r.Granule-1) != 0) {
		panic(fmt.Sprintf("mem: region %q: interleave granule must be a power of two", r.Name))
	}
	for i := range m.regions {
		o := &m.regions[i]
		if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
			panic(fmt.Sprintf("mem: region %q overlaps %q", r.Name, o.Name))
		}
	}
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].Base < m.regions[j].Base })
}

// Lookup returns the region containing addr, or nil.
func (m *AddrMap) Lookup(addr uint32) *Region {
	// Binary search over sorted regions.
	lo, hi := 0, len(m.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := &m.regions[mid]
		switch {
		case addr < r.Base:
			hi = mid
		case addr-r.Base >= r.Size:
			lo = mid + 1
		default:
			return r
		}
	}
	return nil
}

// BankOf returns the bank index owning addr. Accesses outside every
// region are a programming error in the workload and panic with the
// offending address.
func (m *AddrMap) BankOf(addr uint32) int {
	r := m.Lookup(addr)
	if r == nil {
		panic(fmt.Sprintf("mem: access to unmapped address %#x", addr))
	}
	if len(r.Banks) == 1 {
		return r.Banks[0]
	}
	chunk := (addr - r.Base) / r.Granule
	return r.Banks[chunk%uint32(len(r.Banks))]
}
