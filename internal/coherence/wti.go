package coherence

import (
	"fmt"

	"repro/internal/obs"
)

// WTICache is the write-through data-cache controller: a direct-mapped,
// write-no-allocate cache with Valid(=Shared)/Invalid lines and a
// posted write buffer. It serves both write-through policies — the
// paper's WTI (the directory invalidates other copies on a write) and
// the WTU extension (the directory forwards the written word to the
// other copies instead); the cache side only differs in handling the
// incoming directory command. Behaviour follows the paper's Figure 1
// FSM and Table 1 costs:
//
//   - read hit: served locally;
//   - read miss: blocking 2-hop ReqRead;
//   - write (hit or miss handled identically): posted into the write
//     buffer and sent to the bank as a ReqWriteThrough — non-blocking
//     for the processor until the buffer is full (2 hops without
//     sharers, 4 hops when the directory must invalidate copies);
//   - atomic swap: performed at the bank, blocking, after the write
//     buffer has drained (it is the synchronization primitive).
type WTICache struct {
	dcache
	wb     *writeBuffer
	strict bool // Params.StrictSC

	swapDone bool   // the swap's RspSwap arrived; the retry collects swapOld
	swapOld  uint32 // the word the swap replaced

	// strictStore tracks the store blocking for its ack in StrictSC
	// mode; strictDone reports the ack arrived and the next retry may
	// complete.
	strictStore bool
	strictDone  bool

	// lastStoreFull records that the most recent Store attempt was
	// rejected on a full write buffer: the exact stall Skip charges for
	// the retry cycles the engine does not execute.
	lastStoreFull bool
}

// newWriteThroughCache builds the write-through controller for CPU id
// under proto (WTI or WTU); the Protocols table's constructor.
func newWriteThroughCache(proto Protocol, id int, p Params, node *Node) DataCache {
	return &WTICache{
		dcache: newDCache(proto, id, p, node),
		wb:     newWriteBuffer(p.WriteBufferWords),
		strict: p.StrictSC,
	}
}

// WBOccupancy implements DataCache.
func (c *WTICache) WBOccupancy() int { return c.wb.Len() }

// Load implements DataCache.
func (c *WTICache) Load(now uint64, addr uint32) (uint32, bool) {
	if c.req.kind == ReqRead {
		// Outstanding read miss; the fill handler clears req and the
		// retry will hit below.
		return 0, false
	}
	waddr := WordAddr(addr)
	// Under WTU the local line is only brought up to date by the
	// directory's own CmdUpdate (serialization order!), so the write
	// buffer must be consulted before a line hit; under WTI a store
	// hit updated the line immediately, so the hit is always fresh.
	if c.proto == WTU {
		if w, ok := c.wb.Forward(waddr); ok {
			c.st.Loads++
			c.st.WBForwards++
			return w, true
		}
	}
	if set, hit := c.arr.lookup(addr); hit {
		c.st.Loads++
		c.st.LoadHits++
		return c.arr.readWord(set, waddr), true
	}
	// Forward from the write buffer when it holds the word.
	if w, ok := c.wb.Forward(waddr); ok {
		c.st.Loads++
		c.st.WBForwards++
		return w, true
	}
	blk := BlockAddr(addr)
	if c.wb.HasUnsentInBlock(blk) {
		return 0, false // posted writes to this block must depart first
	}
	if c.req.kind == MsgInvalid {
		c.st.Loads++
		c.st.LoadMisses++
		c.req.pose(c.node, ReqRead, blk, 0, now)
	}
	return 0, false
}

// Hit implements DataCache.
func (c *WTICache) Hit(addr uint32) bool {
	if c.req.kind != MsgInvalid || c.proto == WTU && !c.wb.Empty() {
		return false
	}
	_, hit := c.arr.probe(addr)
	return hit
}

// Store implements DataCache.
func (c *WTICache) Store(now uint64, addr uint32, word uint32) bool {
	waddr := WordAddr(addr)
	c.lastStoreFull = false
	if c.strict {
		if c.strictDone {
			c.strictDone = false
			return true
		}
		if c.strictStore || !c.wb.Empty() {
			return false // previous store still in flight
		}
		c.wb.Push(now, waddr, word) // cannot fail: empty, and WriteBufferWords >= 1
		c.recordStore(addr, waddr, word)
		c.strictStore = true
		return false // completes (returns true) only after the ack
	}
	if !c.wb.Push(now, waddr, word) {
		c.st.WBufFullStalls++
		c.lastStoreFull = true
		return false
	}
	c.recordStore(addr, waddr, word)
	return true
}

// recordStore updates the local copy on a write hit and the counters.
// Under WTU the local copy is deliberately NOT written here: the
// directory serializes all writes to a word and brings every sharer —
// including the writer — up to date through CmdUpdate, so a locally
// applied value could otherwise be clobbered out of order by a remote
// update that was serialized earlier but arrives later. The window
// until the writer's own CmdUpdate arrives is covered by write-buffer
// forwarding.
func (c *WTICache) recordStore(addr, waddr uint32, word uint32) {
	c.st.Stores++
	if set, hit := c.arr.lookup(addr); hit {
		c.st.StoreHits++
		if c.proto != WTU {
			c.arr.writeWord(set, waddr, word)
		}
	} else {
		c.st.StoreMisses++ // write-no-allocate: nothing else to do
	}
}

// Swap implements DataCache. The swap is a blocking read-modify-write
// performed at the memory bank; the requester drops its own copy and
// the directory invalidates every other one.
func (c *WTICache) Swap(now uint64, addr uint32, newWord uint32) (uint32, bool) {
	waddr := WordAddr(addr)
	if c.req.kind != MsgInvalid {
		// This swap's own: a cache has one operation in flight, re-issued
		// until ok (DataCache), so no read miss is pending beside it.
		if c.swapDone {
			old := c.swapOld
			c.req, c.swapDone, c.swapOld = request{}, false, 0
			return old, true
		}
		return 0, false
	}
	if !c.wb.Empty() {
		return 0, false // swaps order after every earlier store
	}
	c.st.Swaps++
	c.arr.invalidate(waddr) // self-invalidate: the bank owns the new value
	c.req.pose(c.node, ReqSwap, waddr, newWord, now)
	return 0, false
}

// Tick implements DataCache: retries unsent requests and drains the
// write buffer (one write-through in flight at a time).
func (c *WTICache) Tick(now uint64) {
	c.req.issue(c.node, now)
	if e, ok := c.wb.NextToSend(); ok && c.node.CanSendReq() {
		c.node.SendHome(Msg{Kind: ReqWriteThrough, Src: c.id, Addr: e.addr, Word: e.word}, now)
		e.sent = true
		c.node.veto = now + 1 // a load stalled on the entry retries then
	}
}

// NextWake implements DataCache: now while there is an unissued pending
// request (the issue must be retried) or a write-buffer entry ready to
// depart. The cycle after a departure is the node's Veto.
func (c *WTICache) NextWake(now uint64) uint64 {
	if _, ok := c.wb.NextToSend(); ok {
		return now
	}
	return c.req.wake(now)
}

// Skip implements DataCache: each retry of a store against a full
// write buffer charges the full-stall counter.
func (c *WTICache) Skip(from, to uint64) {
	if c.lastStoreFull {
		c.st.WBufFullStalls += to - from
	}
}

// HandleMsg implements DataCache.
func (c *WTICache) HandleMsg(m *Msg, now uint64) {
	switch m.Kind {
	case RspData:
		if c.req.kind != ReqRead || c.req.addr != m.Addr {
			panic(fmt.Sprintf("coherence: WTI cache %d: unexpected %v", c.id, m))
		}
		c.arr.fill(m.Addr, Shared, m.Data[:])
		c.node.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, obs.LatReadMiss, c.req.begin, now, m.Addr)
		c.req = request{}
	case RspWriteAck:
		pushedAt, ok := c.wb.Ack(m.Addr)
		if !ok {
			panic(fmt.Sprintf("coherence: WTI cache %d: stray write ack %v", c.id, m))
		}
		c.node.Obs.Done(obs.CPUPid(c.id), obs.TidLane, obs.LatWriteDrain, pushedAt, now, m.Addr)
		if c.strictStore && c.wb.Empty() {
			c.strictStore = false
			c.strictDone = true
		}
	case RspSwap:
		if c.req.kind != ReqSwap || c.req.addr != m.Addr {
			panic(fmt.Sprintf("coherence: WTI cache %d: unexpected %v", c.id, m))
		}
		c.swapDone, c.swapOld = true, m.Word
		c.node.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, obs.LatSwap, c.req.begin, now, m.Addr)
	case CmdInval:
		c.inval(m, now)
	case CmdUpdate:
		c.st.UpdatesReceived++
		if set, hit := c.arr.lookup(m.Addr); hit {
			c.arr.writeWord(set, WordAddr(m.Addr), m.Word)
			c.st.UpdatesApplied++
		}
		c.node.SendHome(Msg{Kind: RspInvAck, Src: c.id, Addr: m.Addr}, now)
	default:
		panic(fmt.Sprintf("coherence: WTI cache %d: unhandled %v", c.id, m))
	}
}

// Drained implements DataCache.
func (c *WTICache) Drained() bool {
	return c.req.kind == MsgInvalid && c.wb.Empty()
}

// Posted implements DataCache: the write buffer holds the word.
func (c *WTICache) Posted(waddr uint32) bool {
	_, ok := c.wb.Forward(waddr)
	return ok
}

// Fingerprint implements DataCache.
func (c *WTICache) Fingerprint(e *Enc) {
	c.req.fingerprint(e)
	e.Bools(c.swapDone, c.strictStore, c.strictDone)
	e.U32(c.swapOld, uint32(len(c.wb.entries)))
	for i := range c.wb.entries {
		w := &c.wb.entries[i]
		e.U32(w.addr, w.word)
		e.Bools(w.sent)
	}
	c.arr.fingerprint(e)
}
