package coherence

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// LineState is the stable state of one cache line. WTI uses only
// Invalid and Shared (its "Valid"); MESI uses all four.
type LineState uint8

// Cache line states. Ordering matters: states from Owned upward are
// "supplier" states (the cache can source the block for a fetch), and
// Owned/Modified are the dirty ones.
const (
	Invalid LineState = iota
	Shared            // WTI: Valid; MESI/MOESI: S
	Owned             // MOESI: dirty and shared; this cache supplies the data
	Exclusive
	Modified
)

// Dirty reports whether a line in this state differs from memory.
func (s LineState) Dirty() bool { return s == Owned || s == Modified }

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Owned:
		return "O"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

// cacheArray is a set-associative tag/data array with LRU replacement.
// The paper's platforms are direct-mapped (Table 2), the default; the
// associativity knob exists for the cache-geometry ablation. Lines are
// addressed by a flat line index (set*ways + way). Block size and set
// count are powers of two — the contract, Params.Validate rejects the
// rest — so set and tag are a shift and a mask. A direct-mapped array
// keeps no replacement state: a set's only way is its victim.
type cacheArray struct {
	ways       int
	blockShift uint32
	setMask    uint32
	tagShift   uint32

	state []LineState
	tag   []uint32
	lru   []uint64 // last-touch stamp per line; nil when ways == 1
	data  []byte   // lines*blockBytes; nil in a tag-only array
	clock uint64
}

// newCacheArray builds the tag and data arrays of a cache.
func newCacheArray(cacheBytes, blockBytes, ways int) *cacheArray {
	c := newTagArray(cacheBytes, blockBytes, ways)
	c.data = make([]byte, cacheBytes)
	return c
}

// newTagArray builds one without data: the owner keeps the lines' content.
func newTagArray(cacheBytes, blockBytes, ways int) *cacheArray {
	lines := cacheBytes / blockBytes
	if ways < 1 || lines%ways != 0 || !isPow2(lines/ways) || !isPow2(blockBytes) {
		panic(fmt.Sprintf("coherence: %d lines of %d bytes cannot form a power-of-two number of %d-way sets", lines, blockBytes, ways))
	}
	c := &cacheArray{
		ways:       ways,
		blockShift: uint32(bits.TrailingZeros32(uint32(blockBytes))),
		setMask:    uint32(lines/ways - 1),
		state:      make([]LineState, lines),
		tag:        make([]uint32, lines),
	}
	c.tagShift = c.blockShift + uint32(bits.Len32(c.setMask))
	if ways > 1 {
		c.lru = make([]uint64, lines)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// blockAddr reconstructs the block address stored at line.
func (c *cacheArray) blockAddr(line int) uint32 {
	return c.tag[line]<<c.tagShift | uint32(line/c.ways)<<c.blockShift
}

// probe locates the addressed block without touching replacement state
// (used by invalidations, peeks, and the invariant checker). On a miss
// line is the first way of the addressed set.
//
//lint:hot
func (c *cacheArray) probe(addr uint32) (line int, hit bool) {
	tag := addr >> c.tagShift
	base := int(addr>>c.blockShift&c.setMask) * c.ways
	if c.ways == 1 {
		return base, c.state[base] != Invalid && c.tag[base] == tag
	}
	for l := base; l < base+c.ways; l++ {
		if c.state[l] != Invalid && c.tag[l] == tag {
			return l, true
		}
	}
	return base, false
}

// lookup locates the addressed block and, on a hit, marks it most
// recently used.
//
//lint:hot
func (c *cacheArray) lookup(addr uint32) (line int, hit bool) {
	line, hit = c.probe(addr)
	if hit && c.lru != nil {
		c.clock++
		c.lru[line] = c.clock
	}
	return line, hit
}

// chargeHits counts n read hits through lookup in st and advances the
// clock past them; their lines are stamped by the caller's later lookups.
func (c *cacheArray) chargeHits(st *DCacheStats, n uint64) {
	st.Loads, st.LoadHits = st.Loads+n, st.LoadHits+n
	if c.lru != nil {
		c.clock += n
	}
}

// victim returns the line a fill of addr would use: the block itself if
// resident, else an Invalid way, else the least recently used way.
func (c *cacheArray) victim(addr uint32) int {
	base, hit := c.probe(addr)
	if hit || c.ways == 1 {
		return base
	}
	best := base
	for l := base; l < base+c.ways; l++ {
		if c.state[l] == Invalid {
			return l
		}
		if c.lru[l] < c.lru[best] {
			best = l
		}
	}
	return best
}

// lineData returns the data slice of line.
func (c *cacheArray) lineData(line int) []byte {
	return c.data[line<<c.blockShift : (line+1)<<c.blockShift]
}

// fill installs a block into its victim way, marked most recently used,
// and returns the line; a tag-only array takes no block.
func (c *cacheArray) fill(addr uint32, st LineState, block []byte) int {
	line := c.victim(addr)
	c.state[line] = st
	c.tag[line] = addr >> c.tagShift
	if c.lru != nil {
		c.clock++
		c.lru[line] = c.clock
	}
	if c.data != nil {
		copy(c.lineData(line), block)
	}
	return line
}

// readWord returns the 32-bit word at addr from the hitting line.
func (c *cacheArray) readWord(line int, addr uint32) uint32 {
	off := addr & (1<<c.blockShift - 1) &^ 3
	d := c.lineData(line)
	return binary.LittleEndian.Uint32(d[off : off+4])
}

// writeWord updates bytes of the word at addr selected by byteEn.
func (c *cacheArray) writeWord(line int, addr uint32, v uint32, byteEn uint8) {
	off := addr & (1<<c.blockShift - 1) &^ 3
	d := c.lineData(line)
	for i := uint32(0); i < 4; i++ {
		if byteEn&(1<<i) != 0 {
			d[off+i] = byte(v >> (8 * i))
		}
	}
}

// invalidate drops the block containing addr if present; it reports
// whether a copy was dropped.
func (c *cacheArray) invalidate(addr uint32) bool {
	if line, hit := c.probe(addr); hit {
		c.state[line] = Invalid
		return true
	}
	return false
}

// lines enumerates the resident lines.
func (c *cacheArray) lines() []LineInfo {
	var out []LineInfo
	for line, st := range c.state {
		if st != Invalid {
			out = append(out, LineInfo{Addr: c.blockAddr(line), State: st, Data: c.lineData(line)})
		}
	}
	return out
}

// fingerprint appends every resident line — state, address and bytes
// — and then Invalid, which ends the list. Replacement stamps are left
// out: the model checker's scopes never fill a set.
func (c *cacheArray) fingerprint(e *Enc) {
	for line, st := range c.state {
		if st != Invalid {
			e.U32(uint32(st), c.blockAddr(line))
			e.Bytes(c.lineData(line))
		}
	}
	e.U32(uint32(Invalid))
}
