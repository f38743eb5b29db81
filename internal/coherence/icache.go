package coherence

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/sim"
)

// ICache is the read-only instruction cache. Code is never written by
// the simulated programs, so instruction blocks are fetched outside the
// directory (ReqIFetch) and never invalidated; the cache still shares
// the CPU's single NoC port with the data cache, so heavy data traffic
// delays instruction refills exactly as the paper describes.
type ICache struct {
	id       int
	p        Params
	arr      *cacheArray
	node     *Node
	amap     *mem.AddrMap
	bankBase int

	pendActive bool
	pendIssued bool
	pendAddr   uint32

	// Stats.
	Fetches uint64
	Misses  uint64
}

// NewICache builds the instruction cache for CPU id.
func NewICache(id int, p Params, node *Node, amap *mem.AddrMap, bankBase int) *ICache {
	return &ICache{
		id:       id,
		p:        p,
		arr:      newCacheArray(p.ICacheBytes, p.BlockBytes, p.Ways),
		node:     node,
		amap:     amap,
		bankBase: bankBase,
	}
}

// Fetch returns the instruction word at addr if present, following the
// same poll-retry discipline as the data cache.
func (c *ICache) Fetch(now uint64, addr uint32) (uint32, bool) {
	if c.pendActive {
		return 0, false
	}
	if set, hit := c.arr.lookup(addr); hit {
		c.Fetches++
		return c.arr.readWord(set, WordAddr(addr)), true
	}
	c.Fetches++
	c.Misses++
	c.pendActive = true
	c.pendIssued = false
	c.pendAddr = c.p.BlockAddr(addr)
	c.tryIssue(now)
	return 0, false
}

func (c *ICache) tryIssue(now uint64) {
	if !c.pendActive || c.pendIssued || !c.node.CanSendReq() {
		return
	}
	m := c.node.NewMsg()
	m.Kind = ReqIFetch
	m.Src = c.id
	m.Addr = c.pendAddr
	if c.node.TrySendReq(m, c.bankBase+c.amap.BankOf(c.pendAddr), now) {
		c.pendIssued = true
	}
}

// Tick retries an unsent refill request.
func (c *ICache) Tick(now uint64) { c.tryIssue(now) }

// NextWake reports now while an unissued refill retries (and charges
// send-stall counters) every cycle; otherwise Tick is a strict no-op
// until protocol state changes. Pure.
func (c *ICache) NextWake(now uint64) uint64 {
	if c.pendActive && !c.pendIssued {
		return now
	}
	return sim.NoWake
}

// Skip implements cpu.InstrPort: each retry of a data-stalled core
// re-fetches the current instruction, which hits and counts.
func (c *ICache) Skip(from, to uint64) { c.Fetches += to - from }

// HandleMsg processes the refill response.
func (c *ICache) HandleMsg(m *Msg, now uint64) {
	if m.Kind != RspIData || !c.pendActive || m.Addr != c.pendAddr {
		panic(fmt.Sprintf("coherence: icache %d: unexpected %v", c.id, m))
	}
	c.arr.fill(m.Addr, Shared, m.Data)
	c.pendActive = false
}

// Drained reports whether no refill is outstanding.
func (c *ICache) Drained() bool { return !c.pendActive }
