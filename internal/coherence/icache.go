package coherence

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// codeStore is the decoded form of every distinct code block a
// hierarchy's instruction caches were filled with, keyed by its bytes:
// the n cores run one read-only program, so a block is decoded once (at
// SeedCode, else at its first fill) and shared. A line is thus exactly
// what its RspIData carried; rewritten text just adds blocks.
type codeStore map[string][]isa.Instr

// block finds or adds the decoded form of data.
func (s codeStore) block(data []byte) []isa.Instr {
	b, ok := s[string(data)]
	if !ok {
		b = make([]isa.Instr, len(data)/4)
		for i := range b {
			b[i] = isa.Decode(binary.LittleEndian.Uint32(data[4*i:]))
		}
		s[string(data)] = b
	}
	return b
}

// ICache is the read-only instruction cache. Code is never written by
// the simulated programs, so instruction blocks are fetched outside the
// directory (ReqIFetch) and never invalidated; the cache still shares
// the CPU's single NoC port with the data cache, so heavy data traffic
// delays instruction refills exactly as the paper describes.
//
// It is tags plus a reference per line into the hierarchy's code store,
// and the core fetches by line: Line (or, running ahead, Resident) hands
// out the resident block and the core indexes it while the pc stays
// inside, counting those fetches in Fetches itself. A line is replaced
// only by the fill answering this core's own miss, and on that miss — a
// failed Line — the core drops its line. Those fetches skip the LRU
// stamp: re-touching the most recent line cannot change the order victim
// reads; stamps are in no output. A slept spin's counted periods stamp
// nothing either: the tail the core then executes restamps every line
// the loop enters, in the naive order.
type ICache struct {
	id    int
	arr   *cacheArray   // tags only
	lines [][]isa.Instr // per line of arr: its block in code
	code  codeStore
	node  *Node
	req   request // the refill: ReqIFetch of a block

	// Stats.
	Fetches uint64
	Misses  uint64
}

// newICache builds the instruction cache for CPU id.
func newICache(id int, p Params, node *Node, code codeStore) *ICache {
	return &ICache{
		id:    id,
		arr:   newTagArray(p.ICacheBytes, p.Ways),
		lines: make([][]isa.Instr, p.ICacheBytes/BlockBytes),
		code:  code,
		node:  node,
	}
}

// Line counts one fetch at addr and returns the decoded block holding
// it; a miss starts the refill and reports false until it has landed.
func (c *ICache) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	if c.req.kind != MsgInvalid {
		return nil, false
	}
	c.Fetches++
	if b, ok := c.Resident(addr); ok {
		return b, true
	}
	c.Misses++
	c.req.pose(c.node, ReqIFetch, BlockAddr(addr), 0, now)
	return nil, false
}

// Resident is Line's hit, stamp and all, without its fetch; a miss, or
// any call while a refill is pending, changes nothing and starts nothing.
func (c *ICache) Resident(addr uint32) ([]isa.Instr, bool) {
	if c.req.kind == MsgInvalid {
		if line, hit := c.arr.lookup(addr); hit {
			return c.lines[line], true
		}
	}
	return nil, false
}

// Tick retries an unsent refill request.
func (c *ICache) Tick(now uint64) { c.req.issue(c.node, now) }

// NextWake reports now while an unissued refill retries every cycle,
// since the issue must still be made; otherwise Tick is a strict no-op
// until protocol state changes. Pure.
func (c *ICache) NextWake(now uint64) uint64 { return c.req.wake(now) }

// HandleMsg processes the refill response.
func (c *ICache) HandleMsg(m *Msg, now uint64) {
	if m.Kind != RspIData || c.req.kind == MsgInvalid || m.Addr != c.req.addr {
		panic(fmt.Sprintf("coherence: icache %d: unexpected %v", c.id, m))
	}
	c.lines[c.arr.fill(m.Addr, Shared, nil)] = c.code.block(m.Data[:])
	c.req = request{}
}

// Drained reports whether no refill is outstanding.
func (c *ICache) Drained() bool { return c.req.kind == MsgInvalid }
