package coherence

import (
	"fmt"

	"repro/internal/obs"
)

// MESICache is the write-back MESI (Illinois-like) data-cache
// controller the paper compares against. Stores require exclusivity:
// a Shared write hit sends a blocking ReqUpgrade, a write miss a
// blocking ReqReadExcl (write-allocate, up to the paper's 6-hop
// scenario when the directory must fetch a remote dirty copy and the
// victim is dirty). Dirty victims move to a one-entry eviction buffer
// whose writeback proceeds in the background (the "+2 n.b." of
// Table 1).
type MESICache struct {
	dcache // req: ReqRead, ReqReadExcl or ReqUpgrade of a block
	w      mesiWrite
	evict  mesiEvict
}

// mesiWrite is the store or swap deferred until the request's
// exclusivity arrives. It lives and is cleared with req.
type mesiWrite struct {
	apply   bool
	isSwap  bool
	done    bool // store/swap completed; the retry returns success
	waddr   uint32
	word    uint32
	swapOld uint32
}

type mesiEvict struct {
	active bool
	addr   uint32
	begin  uint64 // cycle the victim entered the buffer
}

// newWriteBackCache builds the write-back controller for CPU id under
// proto; the Protocols table's constructor. MOESI (extension) is MESI
// in which a fetched dirty block stays with its owner in Owned state
// and is supplied cache-to-cache without refreshing memory, so it
// requires Params.CacheToCache.
func newWriteBackCache(proto Protocol, id int, p Params, node *Node) DataCache {
	if proto == MOESI && !p.CacheToCache {
		panic("coherence: MOESI requires Params.CacheToCache")
	}
	return &MESICache{dcache: newDCache(proto, id, p, node)}
}

// WBOccupancy implements DataCache: there is no write buffer.
func (c *MESICache) WBOccupancy() int { return 0 }

// Posted implements DataCache: every word of the block in the eviction
// buffer, whose writeback memory has not yet acknowledged.
func (c *MESICache) Posted(waddr uint32) bool {
	return c.evict.active && c.evict.addr == BlockAddr(waddr)
}

// startMiss prepares an allocation for blk: a dirty victim moves to the
// one-entry eviction buffer, which Load and write, the callers, have
// found free, and the request is posed.
func (c *MESICache) startMiss(now uint64, kind MsgKind, blk uint32) {
	line := c.arr.victim(blk)
	if c.arr.state[line].Dirty() {
		victim := c.arr.blockAddr(line)
		wb := Msg{Kind: ReqWriteBack, Src: c.id, Addr: victim, Data: [BlockBytes]byte(c.arr.lineData(line))}
		c.evict = mesiEvict{active: true, addr: victim, begin: now}
		c.arr.state[line] = Invalid
		c.st.Writebacks++
		// Writebacks are control-class: they must keep their place in
		// the node's FIFO ahead of any later no-data fetch response.
		c.node.SendHome(wb, now)
	}
	c.req.pose(c.node, kind, blk, 0, now)
}

// completePend records the finishing blocking transaction; the caller
// still owns clearing or completing the request.
func (c *MESICache) completePend(now uint64, addr uint32) {
	k := obs.LatReadMiss
	switch {
	case c.w.isSwap:
		k = obs.LatSwap
	case c.req.kind == ReqUpgrade:
		k = obs.LatUpgrade
	case c.w.apply:
		k = obs.LatWriteAlloc
	}
	c.node.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, k, c.req.begin, now, addr)
}

// Load implements DataCache.
func (c *MESICache) Load(now uint64, addr uint32) (uint32, bool) {
	if c.req.kind != MsgInvalid {
		return 0, false
	}
	waddr := WordAddr(addr)
	if set, hit := c.arr.lookup(addr); hit {
		c.st.Loads++
		c.st.LoadHits++
		return c.arr.readWord(set, waddr), true
	}
	blk := BlockAddr(addr)
	if c.arr.state[c.arr.victim(blk)].Dirty() && c.evict.active {
		return 0, false // stall until the eviction buffer frees
	}
	c.st.Loads++
	c.st.LoadMisses++
	c.startMiss(now, ReqRead, blk)
	return 0, false
}

// Hit implements DataCache.
func (c *MESICache) Hit(addr uint32) bool {
	_, hit := c.arr.probe(addr)
	return hit && c.req.kind == MsgInvalid
}

// Store implements DataCache.
func (c *MESICache) Store(now uint64, addr uint32, word uint32) bool {
	_, done := c.write(now, addr, word, false)
	return done
}

// Swap implements DataCache: obtain exclusivity, then perform the
// read-modify-write locally.
func (c *MESICache) Swap(now uint64, addr uint32, newWord uint32) (uint32, bool) {
	return c.write(now, addr, newWord, true)
}

// write is the one path of a store or swap: a hit on an exclusive line
// completes at once; a Shared or Owned hit sends a blocking ReqUpgrade,
// a miss write-allocates with a blocking ReqReadExcl, and either
// applies the write when exclusivity arrives (completeWrite), the
// core's retry then collecting the result. It returns the word a swap
// replaced.
func (c *MESICache) write(now uint64, addr, word uint32, isSwap bool) (uint32, bool) {
	if c.req.kind != MsgInvalid {
		if !c.w.done {
			return 0, false
		}
		old := c.w.swapOld
		c.req, c.w = request{}, mesiWrite{}
		return old, true
	}
	waddr, blk := WordAddr(addr), BlockAddr(addr)
	set, hit := c.arr.lookup(addr)
	if !hit && c.arr.state[c.arr.victim(blk)].Dirty() && c.evict.active {
		return 0, false // stall until the eviction buffer frees
	}
	switch {
	case isSwap:
		c.st.Swaps++
	case hit:
		c.st.Stores++
		c.st.StoreHits++
	default:
		c.st.Stores++
		c.st.StoreMisses++
	}
	if !hit {
		c.startMiss(now, ReqReadExcl, blk)
	} else {
		switch c.arr.state[set] {
		case Modified, Exclusive:
			old := c.arr.readWord(set, waddr)
			c.arr.writeWord(set, waddr, word)
			c.arr.state[set] = Modified
			return old, true
		case Shared, Owned:
			c.st.Upgrades++
			c.req.pose(c.node, ReqUpgrade, blk, 0, now)
		}
	}
	c.w = mesiWrite{apply: true, isSwap: isSwap, waddr: waddr, word: word}
	return 0, false
}

// Tick implements DataCache.
func (c *MESICache) Tick(now uint64) { c.req.issue(c.node, now) }

// NextWake implements DataCache: an unissued pending request retries
// every cycle, since the issue must still be made; an active eviction is
// passive — its writeback already sits in the node's outbound queue.
func (c *MESICache) NextWake(now uint64) uint64 { return c.req.wake(now) }

// Skip implements DataCache: a retry against the pending transaction is
// rejected without counting anything.
func (c *MESICache) Skip(from, to uint64) {}

// completeWrite applies the deferred store/swap to the (now exclusive)
// line and marks the transaction done.
func (c *MESICache) completeWrite(set int) {
	if c.w.isSwap {
		c.w.swapOld = c.arr.readWord(set, c.w.waddr)
	}
	c.arr.writeWord(set, c.w.waddr, c.w.word)
	c.arr.state[set] = Modified
	c.w.done = true
}

// HandleMsg implements DataCache.
func (c *MESICache) HandleMsg(m *Msg, now uint64) {
	switch m.Kind {
	case RspData:
		if c.req.kind == MsgInvalid || c.req.addr != m.Addr {
			panic(fmt.Sprintf("coherence: MESI cache %d: unexpected %v", c.id, m))
		}
		if m.Forwarded {
			// Cache-to-cache delivery: tell the directory the transfer
			// landed so it can close the transaction (a racing
			// invalidation must not overtake this data).
			c.node.SendHome(Msg{Kind: RspC2CDone, Src: c.id, Addr: m.Addr}, now)
		}
		st := Shared
		if m.Excl {
			st = Exclusive
		}
		set := c.arr.fill(m.Addr, st, m.Data[:])
		c.completePend(now, m.Addr)
		if c.w.apply {
			if !m.Excl {
				panic(fmt.Sprintf("coherence: MESI cache %d: write allocation granted without exclusivity", c.id))
			}
			c.completeWrite(set)
		} else {
			c.req, c.w = request{}, mesiWrite{}
		}
	case RspUpgradeAck:
		if c.req.kind != ReqUpgrade || c.req.addr != m.Addr {
			panic(fmt.Sprintf("coherence: MESI cache %d: unexpected %v", c.id, m))
		}
		set, hit := c.arr.lookup(m.Addr)
		if !hit {
			// The ack is only sent when we were still a sharer at the
			// directory's serialization point, and any invalidation is
			// ordered after it on the same channel.
			panic(fmt.Sprintf("coherence: MESI cache %d: upgrade ack for lost line %#x", c.id, m.Addr))
		}
		c.completePend(now, m.Addr)
		c.completeWrite(set)
	case RspWriteAck:
		if !c.evict.active || c.evict.addr != m.Addr {
			panic(fmt.Sprintf("coherence: MESI cache %d: stray writeback ack %v", c.id, m))
		}
		c.node.Obs.Done(obs.CPUPid(c.id), obs.TidLane, obs.LatWriteback, c.evict.begin, now, m.Addr)
		c.evict = mesiEvict{}
	case CmdInval:
		c.inval(m, now)
	case CmdFetch, CmdFetchInval:
		c.st.FetchesServed++
		rsp := Msg{Kind: RspFetch, Src: c.id, Addr: m.Addr}
		if set, hit := c.arr.lookup(m.Addr); hit && c.arr.state[set] >= Owned {
			// MOESI: a dirty block fetched for reading stays here in
			// Owned state; memory is not refreshed and this cache keeps
			// supplying the data.
			retain := c.proto == MOESI && m.Kind == CmdFetch && c.arr.state[set].Dirty()
			if m.HasFwd {
				// Cache-to-cache transfer: data goes straight to the
				// requester. For an exclusive transfer (and for an
				// Owned retention) the memory copy is skipped; a MESI
				// shared downgrade must still refresh memory so all
				// clean copies agree with it.
				c.st.C2CTransfers++
				c.node.SendCtrl(Msg{Kind: RspData, Src: c.id, Addr: m.Addr, Excl: m.Kind == CmdFetchInval,
					Forwarded: true, Data: [BlockBytes]byte(c.arr.lineData(set))}, m.Fwd, now)
				rsp.Forwarded = true
				if m.Kind == CmdFetch && !retain {
					copy(rsp.Data[:], c.arr.lineData(set))
				} else {
					rsp.NoData = true
				}
			} else {
				copy(rsp.Data[:], c.arr.lineData(set))
			}
			rsp.RetainOwner = retain
			switch {
			case retain:
				c.arr.state[set] = Owned
			case m.Kind == CmdFetch:
				c.arr.state[set] = Shared
			default:
				c.arr.state[set] = Invalid
			}
		} else {
			// Silently evicted (clean) or written back (dirty, with the
			// writeback ordered ahead of this response): memory is or
			// will be current before this answer arrives. Never Shared:
			// the directory grants S only to a cache it does not record as
			// owner, and fetches from its owner only after the grant that
			// made it one (E, M or O), on the same FIFO channel.
			rsp.NoData = true
		}
		c.node.SendHome(rsp, now)
	default:
		panic(fmt.Sprintf("coherence: MESI cache %d: unhandled %v", c.id, m))
	}
}

// Drained implements DataCache.
func (c *MESICache) Drained() bool { return c.req.kind == MsgInvalid && !c.evict.active }

// Fingerprint implements DataCache; the one-entry eviction buffer is
// part of the transaction state.
func (c *MESICache) Fingerprint(e *Enc) {
	c.req.fingerprint(e)
	e.Bools(c.w.apply, c.w.isSwap, c.w.done, c.evict.active)
	e.U32(c.w.waddr, c.w.word, c.w.swapOld, c.evict.addr)
	c.arr.fingerprint(e)
}
