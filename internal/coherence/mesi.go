package coherence

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
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
	id       int
	proto    Protocol
	p        Params
	arr      *cacheArray
	node     *Node
	amap     *mem.AddrMap
	bankBase int

	pend  mesiPending
	evict mesiEvict
	st    DCacheStats

	// Obs, when attached, records blocking-transaction and writeback
	// spans plus request latencies.
	Obs *obs.Recorder
}

type mesiPending struct {
	active bool
	issued bool
	kind   MsgKind // ReqRead, ReqReadExcl or ReqUpgrade
	blk    uint32  // block address

	// Deferred write to apply when exclusivity arrives.
	apply   bool
	isSwap  bool
	waddr   uint32
	word    uint32
	byteEn  uint8
	swapOld uint32
	done    bool   // store/swap completed; the retry returns success
	begin   uint64 // cycle the transaction started (latency attribution)
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
func newWriteBackCache(proto Protocol, id int, p Params, node *Node, amap *mem.AddrMap, bankBase int) DataCache {
	if proto == MOESI && !p.CacheToCache {
		panic("coherence: MOESI requires Params.CacheToCache")
	}
	return &MESICache{
		id:       id,
		proto:    proto,
		p:        p,
		arr:      newCacheArray(p.DCacheBytes, p.BlockBytes, p.Ways),
		node:     node,
		amap:     amap,
		bankBase: bankBase,
	}
}

// Stats implements DataCache.
func (c *MESICache) Stats() *DCacheStats { return &c.st }

// SetObserver implements DataCache.
func (c *MESICache) SetObserver(r *obs.Recorder) { c.Obs = r }

// WBOccupancy implements DataCache: there is no write buffer.
func (c *MESICache) WBOccupancy() int { return 0 }

// PostedBytes implements DataCache: every byte of the block in the
// eviction buffer, whose writeback memory has not yet acknowledged.
func (c *MESICache) PostedBytes(waddr uint32) uint8 {
	if c.evict.active && c.evict.addr == c.p.BlockAddr(waddr) {
		return 0xf
	}
	return 0
}

func (c *MESICache) bankNode(addr uint32) int {
	return c.bankBase + c.amap.BankOf(addr)
}

// startMiss prepares an allocation for blk: a dirty victim moves to the
// one-entry eviction buffer, which Load and write, the callers, have
// found free, and the request is recorded.
func (c *MESICache) startMiss(now uint64, kind MsgKind, blk uint32) {
	line := c.arr.victim(blk)
	if c.arr.state[line].Dirty() {
		victim := c.arr.blockAddr(line)
		wb := c.node.NewMsg()
		wb.Kind = ReqWriteBack
		wb.Src = c.id
		wb.Addr = victim
		wb.ensureData(c.p.BlockBytes)
		copy(wb.Data, c.arr.lineData(line))
		c.evict = mesiEvict{active: true, addr: victim, begin: now}
		c.arr.state[line] = Invalid
		c.st.Writebacks++
		// Writebacks are control-class: they must keep their place in
		// the node's FIFO ahead of any later no-data fetch response.
		// The message owns its data copy exclusively (pool contract).
		c.node.SendCtrl(wb, c.bankNode(victim), now)
	}
	c.pend = mesiPending{active: true, kind: kind, blk: blk, begin: now}
	c.tryIssue(now)
}

// completePend records the finishing blocking transaction; the caller
// still owns clearing or completing c.pend.
func (c *MESICache) completePend(now uint64, addr uint32) {
	k := obs.LatReadMiss
	switch {
	case c.pend.isSwap:
		k = obs.LatSwap
	case c.pend.kind == ReqUpgrade:
		k = obs.LatUpgrade
	case c.pend.apply:
		k = obs.LatWriteAlloc
	}
	c.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, k, c.pend.begin, now, addr)
}

func (c *MESICache) tryIssue(now uint64) {
	if !c.pend.active || c.pend.issued || !c.node.CanSendReq() {
		return
	}
	m := c.node.NewMsg()
	m.Kind = c.pend.kind
	m.Src = c.id
	m.Addr = c.pend.blk
	if c.node.TrySendReq(m, c.bankNode(c.pend.blk), now) {
		c.pend.issued = true
	}
}

// Load implements DataCache.
func (c *MESICache) Load(now uint64, addr uint32, byteEn uint8) (uint32, bool) {
	if c.pend.active {
		return 0, false
	}
	waddr := WordAddr(addr)
	if set, hit := c.arr.lookup(addr); hit {
		c.st.Loads++
		c.st.LoadHits++
		return c.arr.readWord(set, waddr), true
	}
	blk := c.p.BlockAddr(addr)
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
	return hit && !c.pend.active
}

// ChargeHits implements DataCache.
func (c *MESICache) ChargeHits(n uint64) { c.arr.chargeHits(&c.st, n) }

// Store implements DataCache.
func (c *MESICache) Store(now uint64, addr uint32, word uint32, byteEn uint8) bool {
	_, done := c.write(now, addr, word, byteEn, false)
	return done
}

// Swap implements DataCache: obtain exclusivity, then perform the
// read-modify-write locally.
func (c *MESICache) Swap(now uint64, addr uint32, newWord uint32) (uint32, bool) {
	return c.write(now, addr, newWord, 0xf, true)
}

// write is the one path of a store or swap: a hit on an exclusive line
// completes at once; a Shared or Owned hit sends a blocking ReqUpgrade,
// a miss write-allocates with a blocking ReqReadExcl, and either
// applies the write when exclusivity arrives (completeWrite), the
// core's retry then collecting the result. It returns the word a swap
// replaced.
func (c *MESICache) write(now uint64, addr, word uint32, byteEn uint8, isSwap bool) (uint32, bool) {
	if c.pend.active {
		if !c.pend.done {
			return 0, false
		}
		old := c.pend.swapOld
		c.pend = mesiPending{}
		return old, true
	}
	waddr, blk := WordAddr(addr), c.p.BlockAddr(addr)
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
			c.arr.writeWord(set, waddr, word, byteEn)
			c.arr.state[set] = Modified
			return old, true
		case Shared, Owned:
			c.st.Upgrades++
			c.pend = mesiPending{active: true, kind: ReqUpgrade, blk: blk, begin: now}
			c.tryIssue(now)
		}
	}
	c.pend.apply, c.pend.isSwap = true, isSwap
	c.pend.waddr, c.pend.word, c.pend.byteEn = waddr, word, byteEn
	return 0, false
}

// Tick implements DataCache.
func (c *MESICache) Tick(now uint64) { c.tryIssue(now) }

// NextWake implements DataCache: an unissued pending request retries
// every cycle, since the issue must still be made; an active eviction is
// passive — its writeback already sits in the node's outbound queue.
func (c *MESICache) NextWake(now uint64) uint64 {
	if c.pend.active && !c.pend.issued {
		return now
	}
	return sim.NoWake
}

// Skip implements DataCache: a retry against the pending transaction is
// rejected without counting anything.
func (c *MESICache) Skip(from, to uint64) {}

// completeWrite applies the deferred store/swap to the (now exclusive)
// line and marks the transaction done.
func (c *MESICache) completeWrite(set int) {
	if c.pend.isSwap {
		c.pend.swapOld = c.arr.readWord(set, c.pend.waddr)
	}
	c.arr.writeWord(set, c.pend.waddr, c.pend.word, c.pend.byteEn)
	c.arr.state[set] = Modified
	c.pend.done = true
}

// HandleMsg implements DataCache.
func (c *MESICache) HandleMsg(m *Msg, now uint64) {
	switch m.Kind {
	case RspData:
		if !c.pend.active || c.pend.blk != m.Addr {
			panic(fmt.Sprintf("coherence: MESI cache %d: unexpected %v", c.id, m))
		}
		if m.Forwarded {
			// Cache-to-cache delivery: tell the directory the transfer
			// landed so it can close the transaction (a racing
			// invalidation must not overtake this data).
			done := c.node.NewMsg()
			done.Kind = RspC2CDone
			done.Src = c.id
			done.Addr = m.Addr
			c.node.SendCtrl(done, c.bankNode(m.Addr), now)
		}
		st := Shared
		if m.Excl {
			st = Exclusive
		}
		set := c.arr.fill(m.Addr, st, m.Data)
		c.completePend(now, m.Addr)
		if c.pend.apply {
			if !m.Excl {
				panic(fmt.Sprintf("coherence: MESI cache %d: write allocation granted without exclusivity", c.id))
			}
			c.completeWrite(set)
		} else {
			c.pend = mesiPending{}
		}
	case RspUpgradeAck:
		if !c.pend.active || c.pend.kind != ReqUpgrade || c.pend.blk != m.Addr {
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
		c.Obs.Done(obs.CPUPid(c.id), obs.TidLane, obs.LatWriteback, c.evict.begin, now, m.Addr)
		c.evict = mesiEvict{}
	case CmdInval:
		c.st.InvalsReceived++
		if c.arr.invalidate(m.Addr) {
			c.st.CopiesDropped++
		}
		ack := c.node.NewMsg()
		ack.Kind = RspInvAck
		ack.Src = c.id
		ack.Addr = m.Addr
		c.node.SendCtrl(ack, c.bankNode(m.Addr), now)
	case CmdFetch, CmdFetchInval:
		c.st.FetchesServed++
		rsp := c.node.NewMsg()
		rsp.Kind = RspFetch
		rsp.Src = c.id
		rsp.Addr = m.Addr
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
				// clean copies agree with it. Each message carries its
				// own copy of the line (pool contract: no sharing).
				c.st.C2CTransfers++
				fwd := c.node.NewMsg()
				fwd.Kind = RspData
				fwd.Src = c.id
				fwd.Addr = m.Addr
				fwd.Excl = m.Kind == CmdFetchInval
				fwd.Forwarded = true
				fwd.ensureData(c.p.BlockBytes)
				copy(fwd.Data, c.arr.lineData(set))
				c.node.SendCtrl(fwd, m.Fwd, now)
				rsp.Forwarded = true
				if m.Kind == CmdFetch && !retain {
					rsp.ensureData(c.p.BlockBytes)
					copy(rsp.Data, c.arr.lineData(set))
				} else {
					rsp.NoData = true
				}
			} else {
				rsp.ensureData(c.p.BlockBytes)
				copy(rsp.Data, c.arr.lineData(set))
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
		c.node.SendCtrl(rsp, c.bankNode(m.Addr), now)
	default:
		panic(fmt.Sprintf("coherence: MESI cache %d: unhandled %v", c.id, m))
	}
}

// Drained implements DataCache.
func (c *MESICache) Drained() bool { return !c.pend.active && !c.evict.active }

// Lines implements DataCache.
func (c *MESICache) Lines() []LineInfo { return c.arr.lines() }

// FlushDirty implements DataCache.
func (c *MESICache) FlushDirty(s *mem.Space) {
	for line := range c.arr.state {
		if c.arr.state[line].Dirty() {
			addr := c.arr.blockAddr(line)
			d := c.arr.lineData(line)
			for off := 0; off < len(d); off += 4 {
				s.WriteWord(addr+uint32(off), binary.LittleEndian.Uint32(d[off:off+4]))
			}
		}
	}
}

// Fingerprint implements DataCache; the one-entry eviction buffer is
// part of the transaction state.
func (c *MESICache) Fingerprint(e *Enc) {
	p := &c.pend
	e.Bools(p.active, p.issued, p.apply, p.isSwap, p.done, c.evict.active)
	e.U32(uint32(p.kind), p.blk, p.waddr, p.word, uint32(p.byteEn), p.swapOld, c.evict.addr)
	c.arr.fingerprint(e)
}
