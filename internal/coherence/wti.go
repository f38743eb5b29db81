package coherence

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
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
	id       int // CPU / node id
	proto    Protocol
	p        Params
	arr      *cacheArray
	wb       *writeBuffer
	node     *Node
	amap     *mem.AddrMap
	bankBase int // node id of bank 0

	pend wtiPending
	st   DCacheStats

	// Obs, when attached, records transaction spans (a posted write's
	// push-to-ack drain on a lane) and request latencies.
	Obs *obs.Recorder

	// strictStore tracks the store blocking for its ack in StrictSC
	// mode; strictDone reports the ack arrived and the next retry may
	// complete.
	strictStore bool
	strictDone  bool

	// lastStoreFull records that the most recent Store attempt was
	// rejected on a full write buffer: the exact stall Skip charges for
	// the retry cycles the engine does not execute.
	lastStoreFull bool

	// sendVeto is the first cycle after the most recent write-buffer
	// departure (entry handed to the outbound FIFO). That cycle must
	// execute: a data-stalled load blocked on HasUnsentInBlock may be
	// unblocked by the departure, and the CPU's retry acts one cycle
	// after it — the send-side analogue of Node.recvVeto. Monotonic;
	// stale values below the current cycle are inert.
	sendVeto uint64
}

type wtiPending struct {
	active bool
	isSwap bool
	issued bool
	addr   uint32 // block address (read) or word address (swap)
	newVal uint32 // swap operand
	oldVal uint32 // swap result
	done   bool   // swap completed
	begin  uint64 // cycle the request became pending (latency attribution)
}

// newWriteThroughCache builds the write-through controller for CPU id
// under proto (WTI or WTU); the Protocols table's constructor.
func newWriteThroughCache(proto Protocol, id int, p Params, node *Node, amap *mem.AddrMap, bankBase int) DataCache {
	return &WTICache{
		id:       id,
		proto:    proto,
		p:        p,
		arr:      newCacheArray(p.DCacheBytes, p.BlockBytes, p.Ways),
		wb:       newWriteBuffer(p.WriteBufferWords),
		node:     node,
		amap:     amap,
		bankBase: bankBase,
	}
}

// SetObserver implements DataCache.
func (c *WTICache) SetObserver(r *obs.Recorder) { c.Obs = r }

// WBOccupancy implements DataCache.
func (c *WTICache) WBOccupancy() int { return c.wb.Len() }

// Stats implements DataCache.
func (c *WTICache) Stats() *DCacheStats { return &c.st }

func (c *WTICache) bankNode(addr uint32) int {
	return c.bankBase + c.amap.BankOf(addr)
}

// Load implements DataCache.
func (c *WTICache) Load(now uint64, addr uint32, byteEn uint8) (uint32, bool) {
	if c.pend.active && !c.pend.isSwap {
		// Outstanding read miss; the fill handler clears pend and the
		// retry will hit below.
		return 0, false
	}
	waddr := WordAddr(addr)
	// Under WTU the local line is only brought up to date by the
	// directory's own CmdUpdate (serialization order!), so the write
	// buffer must be consulted before a line hit; under WTI a store
	// hit updated the line immediately, so the hit is always fresh.
	if c.proto == WTU {
		if w, ok, conflict := c.wb.Forward(waddr, byteEn); ok {
			c.st.Loads++
			c.st.WBForwards++
			return w, true
		} else if conflict {
			return 0, false // partial overlap: wait for the drain
		}
	}
	if set, hit := c.arr.lookup(addr); hit {
		c.st.Loads++
		c.st.LoadHits++
		return c.arr.readWord(set, waddr), true
	}
	// Forward from the write buffer when it fully covers the access.
	if w, ok, conflict := c.wb.Forward(waddr, byteEn); ok {
		c.st.Loads++
		c.st.WBForwards++
		return w, true
	} else if conflict {
		return 0, false // partial overlap: wait for the drain
	}
	blk := c.p.BlockAddr(addr)
	if c.wb.HasUnsentInBlock(blk, c.p.BlockBytes) {
		return 0, false // posted writes to this block must depart first
	}
	if !c.pend.active {
		c.st.Loads++
		c.st.LoadMisses++
		c.pend = wtiPending{active: true, addr: blk, begin: now}
		c.tryIssue(now)
	}
	return 0, false
}

// Hit implements DataCache.
func (c *WTICache) Hit(addr uint32) bool {
	if c.pend.active || c.proto == WTU && !c.wb.Empty() {
		return false
	}
	_, hit := c.arr.probe(addr)
	return hit
}

// ChargeHits implements DataCache.
func (c *WTICache) ChargeHits(n uint64) { c.arr.chargeHits(&c.st, n) }

// Store implements DataCache.
func (c *WTICache) Store(now uint64, addr uint32, word uint32, byteEn uint8) bool {
	waddr := WordAddr(addr)
	c.lastStoreFull = false
	if c.p.StrictSC {
		if c.strictDone {
			c.strictDone = false
			return true
		}
		if c.strictStore || !c.wb.Empty() {
			return false // previous store still in flight
		}
		c.wb.Push(now, waddr, word, byteEn) // cannot fail: empty, and WriteBufferWords >= 1
		c.recordStore(addr, waddr, word, byteEn)
		c.strictStore = true
		return false // completes (returns true) only after the ack
	}
	if !c.wb.Push(now, waddr, word, byteEn) {
		c.st.WBufFullStalls++
		c.lastStoreFull = true
		return false
	}
	c.recordStore(addr, waddr, word, byteEn)
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
func (c *WTICache) recordStore(addr, waddr uint32, word uint32, byteEn uint8) {
	c.st.Stores++
	if set, hit := c.arr.lookup(addr); hit {
		c.st.StoreHits++
		if c.proto != WTU {
			c.arr.writeWord(set, waddr, word, byteEn)
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
	if c.pend.active {
		// This swap's own: a cache has one operation in flight, re-issued
		// until ok (DataCache), so no read miss is pending beside it.
		if c.pend.done {
			old := c.pend.oldVal
			c.pend = wtiPending{}
			return old, true
		}
		return 0, false
	}
	if !c.wb.Empty() {
		return 0, false // swaps order after every earlier store
	}
	c.st.Swaps++
	c.arr.invalidate(waddr) // self-invalidate: the bank owns the new value
	c.pend = wtiPending{active: true, isSwap: true, addr: waddr, newVal: newWord, begin: now}
	c.tryIssue(now)
	return 0, false
}

// tryIssue attempts to place the pending miss or swap on the wire. The
// admission pre-check keeps backpressured retry cycles (which recur
// every cycle until the queue drains) from allocating a message that
// would only be rejected.
func (c *WTICache) tryIssue(now uint64) {
	if !c.pend.active || c.pend.issued || !c.node.CanSendReq() {
		return
	}
	m := c.node.NewMsg()
	m.Src = c.id
	m.Addr = c.pend.addr
	if c.pend.isSwap {
		m.Kind = ReqSwap
		m.Word = c.pend.newVal
	} else {
		m.Kind = ReqRead
	}
	if c.node.TrySendReq(m, c.bankNode(c.pend.addr), now) {
		c.pend.issued = true
	}
}

// Tick implements DataCache: retries unsent requests and drains the
// write buffer (one write-through in flight at a time).
func (c *WTICache) Tick(now uint64) {
	c.tryIssue(now)
	if e, ok := c.wb.NextToSend(); ok && c.node.CanSendReq() {
		m := c.node.NewMsg()
		m.Kind = ReqWriteThrough
		m.Src = c.id
		m.Addr = e.addr
		m.Word = e.word
		m.ByteEn = e.byteEn
		if c.node.TrySendReq(m, c.bankNode(e.addr), now) {
			e.sent = true
			c.sendVeto = now + 1
		}
	}
}

// NextWake implements DataCache: now while there is an unissued pending
// request (the issue must be retried), a write-buffer
// entry ready to depart, or a departure in the cycle just executed
// (sendVeto — the CPU's stalled retry may react to it now).
func (c *WTICache) NextWake(now uint64) uint64 {
	if c.sendVeto >= now || c.pend.active && !c.pend.issued {
		return now
	}
	if _, ok := c.wb.NextToSend(); ok {
		return now
	}
	return sim.NoWake
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
		if !c.pend.active || c.pend.isSwap || c.pend.addr != m.Addr {
			panic(fmt.Sprintf("coherence: WTI cache %d: unexpected %v", c.id, m))
		}
		c.arr.fill(m.Addr, Shared, m.Data)
		c.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, obs.LatReadMiss, c.pend.begin, now, m.Addr)
		c.pend = wtiPending{}
	case RspWriteAck:
		pushedAt, ok := c.wb.Ack(m.Addr)
		if !ok {
			panic(fmt.Sprintf("coherence: WTI cache %d: stray write ack %v", c.id, m))
		}
		c.Obs.Done(obs.CPUPid(c.id), obs.TidLane, obs.LatWriteDrain, pushedAt, now, m.Addr)
		if c.strictStore && c.wb.Empty() {
			c.strictStore = false
			c.strictDone = true
		}
	case RspSwap:
		if !c.pend.active || !c.pend.isSwap || c.pend.addr != m.Addr {
			panic(fmt.Sprintf("coherence: WTI cache %d: unexpected %v", c.id, m))
		}
		c.pend.done = true
		c.pend.oldVal = m.Word
		c.Obs.Done(obs.CPUPid(c.id), obs.TidDCache, obs.LatSwap, c.pend.begin, now, m.Addr)
	case CmdInval:
		c.st.InvalsReceived++
		if c.arr.invalidate(m.Addr) {
			c.st.CopiesDropped++
		}
		c.sendInvAck(m.Addr, now)
	case CmdUpdate:
		c.st.UpdatesReceived++
		if set, hit := c.arr.lookup(m.Addr); hit {
			c.arr.writeWord(set, WordAddr(m.Addr), m.Word, m.ByteEn)
			c.st.UpdatesApplied++
		}
		c.sendInvAck(m.Addr, now)
	default:
		panic(fmt.Sprintf("coherence: WTI cache %d: unhandled %v", c.id, m))
	}
}

// sendInvAck acknowledges a directory command for addr.
func (c *WTICache) sendInvAck(addr uint32, now uint64) {
	m := c.node.NewMsg()
	m.Kind = RspInvAck
	m.Src = c.id
	m.Addr = addr
	c.node.SendCtrl(m, c.bankNode(addr), now)
}

// Drained implements DataCache.
func (c *WTICache) Drained() bool {
	return !c.pend.active && c.wb.Empty()
}

// Lines implements DataCache.
func (c *WTICache) Lines() []LineInfo { return c.arr.lines() }

// PostedBytes implements DataCache: the union of the write buffer's
// entries for the word.
func (c *WTICache) PostedBytes(waddr uint32) uint8 {
	var covered uint8
	for i := range c.wb.entries {
		if e := &c.wb.entries[i]; e.addr == waddr {
			covered |= e.byteEn
		}
	}
	return covered
}

// FlushDirty implements DataCache: memory is always up to date, one of
// the write-through properties the paper highlights.
func (c *WTICache) FlushDirty(*mem.Space) {}

// Fingerprint implements DataCache.
func (c *WTICache) Fingerprint(e *Enc) {
	p := &c.pend
	e.Bools(p.active, p.isSwap, p.issued, p.done, c.strictStore, c.strictDone)
	e.U32(p.addr, p.newVal, p.oldVal, uint32(len(c.wb.entries)))
	for i := range c.wb.entries {
		w := &c.wb.entries[i]
		e.U32(w.addr, w.word, uint32(w.byteEn))
		e.Bools(w.sent)
	}
	c.arr.fingerprint(e)
}
