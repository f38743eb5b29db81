package coherence

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
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
// addressed by a flat line index (set*ways + way).
type cacheArray struct {
	blockBytes int
	ways       int
	numSets    int

	// Shift/mask forms of the index arithmetic, valid when blockBytes
	// and numSets are both powers of two (every standard geometry;
	// setOf and tagOf sit on the per-access hot path and the divisors
	// are not compile-time constants, so the strength reduction has to
	// be done by hand).
	pow2       bool
	blockShift uint32
	setMask    uint32
	tagShift   uint32

	// Magic-multiply form of the division by numSets for non-pow2 set
	// counts (the geometry ablation), valid whenever blockBytes is a
	// power of two: q = (x*magicM)>>magicP computes x/numSets exactly
	// for every 30-bit x (see newCacheArray for the error bound).
	magicOK bool
	magicM  uint64
	magicP  uint32

	state []LineState
	tag   []uint32
	lru   []uint64 // last-touch stamp per line
	data  []byte   // numSets*ways*blockBytes
	clock uint64
}

func newCacheArray(cacheBytes, blockBytes, ways int) *cacheArray {
	lines := cacheBytes / blockBytes
	if ways < 1 || lines%ways != 0 {
		panic(fmt.Sprintf("coherence: %d lines cannot form %d-way sets", lines, ways))
	}
	c := &cacheArray{
		blockBytes: blockBytes,
		ways:       ways,
		numSets:    lines / ways,
		state:      make([]LineState, lines),
		tag:        make([]uint32, lines),
		lru:        make([]uint64, lines),
		data:       make([]byte, lines*blockBytes),
	}
	if isPow2(blockBytes) {
		c.blockShift = uint32(bits.TrailingZeros32(uint32(blockBytes)))
		if isPow2(c.numSets) {
			c.pow2 = true
			c.setMask = uint32(c.numSets - 1)
			c.tagShift = c.blockShift + uint32(bits.TrailingZeros32(uint32(c.numSets)))
		} else if c.blockShift >= 2 {
			// Round-up magic number for division by d := numSets: with
			// p = 32+L, L = ceil(log2 d), m = ceil(2^p/d), the error
			// e := m*d - 2^p satisfies 0 <= e < d <= 2^L, so for
			// x < 2^30 the term x*e < 2^(30+L) stays below d*2^p times
			// the worst fractional gap 1/d — hence floor((x*m)>>p) is
			// exactly x/d. blockShift >= 2 keeps x = addr>>blockShift
			// under 2^30, and the product under 2^63.
			d := uint64(c.numSets)
			L := uint32(bits.Len64(d - 1))
			c.magicP = 32 + L
			c.magicM = ((uint64(1) << c.magicP) + d - 1) / d
			c.magicOK = true
		}
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// setOf returns the set selected by addr.
func (c *cacheArray) setOf(addr uint32) int {
	if c.pow2 {
		return int((addr >> c.blockShift) & c.setMask)
	}
	if c.magicOK {
		x := addr >> c.blockShift
		q := uint32((uint64(x) * c.magicM) >> c.magicP)
		return int(x - q*uint32(c.numSets))
	}
	return int(addr/uint32(c.blockBytes)) % c.numSets
}

// tagOf returns the tag portion of addr.
func (c *cacheArray) tagOf(addr uint32) uint32 {
	if c.pow2 {
		return addr >> c.tagShift
	}
	if c.magicOK {
		x := addr >> c.blockShift
		return uint32((uint64(x) * c.magicM) >> c.magicP)
	}
	return addr / uint32(c.blockBytes) / uint32(c.numSets)
}

// blockAddr reconstructs the block address stored at line.
func (c *cacheArray) blockAddr(line int) uint32 {
	set := line / c.ways
	return (c.tag[line]*uint32(c.numSets) + uint32(set)) * uint32(c.blockBytes)
}

// probe locates the addressed block without touching replacement state
// (used by invalidations, peeks, and the invariant checker).
//
//lint:hot
func (c *cacheArray) probe(addr uint32) (line int, hit bool) {
	set := c.setOf(addr)
	tag := c.tagOf(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := base + w
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
	if hit {
		c.clock++
		c.lru[line] = c.clock
	}
	return line, hit
}

// victim returns the line a fill of addr would use: the block itself if
// resident, else an Invalid way, else the least recently used way.
func (c *cacheArray) victim(addr uint32) int {
	if line, hit := c.probe(addr); hit {
		return line
	}
	set := c.setOf(addr)
	base := set * c.ways
	best := base
	for w := 0; w < c.ways; w++ {
		l := base + w
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
	return c.data[line*c.blockBytes : (line+1)*c.blockBytes]
}

// fill installs a block into its victim way and returns the line.
func (c *cacheArray) fill(addr uint32, st LineState, block []byte) int {
	line := c.victim(addr)
	c.state[line] = st
	c.tag[line] = c.tagOf(addr)
	copy(c.lineData(line), block)
	c.clock++
	c.lru[line] = c.clock
	return line
}

// readWord returns the 32-bit word at addr from the hitting line.
func (c *cacheArray) readWord(line int, addr uint32) uint32 {
	off := addr & uint32(c.blockBytes-1) &^ 3
	d := c.lineData(line)
	return binary.LittleEndian.Uint32(d[off : off+4])
}

// writeWord updates bytes of the word at addr selected by byteEn.
func (c *cacheArray) writeWord(line int, addr uint32, v uint32, byteEn uint8) {
	off := addr & uint32(c.blockBytes-1) &^ 3
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

// fingerprint writes every resident line: address, state and bytes.
// Replacement stamps are left out: the model checker's scopes never
// fill a set.
func (c *cacheArray) fingerprint(b *strings.Builder) {
	for line, st := range c.state {
		if st != Invalid {
			fmt.Fprintf(b, "L%x:%d:%x;", c.blockAddr(line), st, c.lineData(line))
		}
	}
}
