package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mem"
	"repro/internal/obs"
)

// MemStats aggregates one bank's activity.
type MemStats struct {
	Reads         uint64
	ReadExcls     uint64
	Upgrades      uint64
	WriteThroughs uint64
	WriteBacks    uint64
	Swaps         uint64
	IFetches      uint64
	InvalsSent    uint64
	UpdatesSent   uint64
	FetchesSent   uint64
	Deferred      uint64
}

// dirEntry is one block's full-map directory record (Censier–Feautrier:
// a presence bit per cache plus an exclusivity owner). Records are
// carved from the bank's chunks, so a block costs its record and its
// map slot; the bank's few open transactions live in its pool.
type dirEntry struct {
	sharers uint64 // presence bitmap, one bit per CPU (hence the 64-CPU cap)
	tx      *dirTx // the open transaction and the requests behind it; nil while idle
	owner   int16  // exclusive owner cache id, -1 when none (MESI only)
	// bcast marks a limited-pointer entry that overflowed its pointers:
	// the bitmap stays faithful for checking, but the protocol must
	// broadcast its invalidations/updates as real Dir_k_B hardware
	// would, having lost precise sharer knowledge.
	bcast bool
}

// dirTx is one block's multi-message transaction, taken from the bank's
// pool when it opens and returned once the block is idle with nothing
// deferred.
type dirTx struct {
	kind MsgKind // transaction being completed; MsgInvalid: none
	// req is a value copy of the original request awaiting completion:
	// the delivered *Msg is the node's receive buffer, overwritten by
	// the next delivery, so the directory may never retain the pointer.
	req         Msg
	fetchTarget int16 // owner a Cmd{Fetch,FetchInval} was sent to, while fetchPending
	waitAcks    int
	oldWord     uint32 // a swap's value to return
	// Fetch/forwarding bookkeeping: a transaction with a pending fetch
	// closes only when the owner's RspFetch arrived (plus, when it was
	// forwarded cache-to-cache, the requester's RspC2CDone) and every
	// awaited invalidation ack is in — in any arrival order.
	fetchPending bool
	fetchSeen    bool
	fetchFwd     bool
	fetchHadData bool
	retainOwner  bool
	c2cDone      bool
	begin        uint64 // the cycle the transaction opened (its trace span)
	// deferred queues requests behind the busy block, as value copies
	// for the same reason as req; the pool keeps its capacity.
	deferred []Msg
	next     *dirTx // the bank's free list
}

// busy reports whether the block has a transaction open.
func (e *dirEntry) busy() bool { return e.tx != nil && e.tx.kind != MsgInvalid }

// open starts the block's multi-message transaction of the given kind
// on behalf of request m (an upgrade promoted to an exclusive read opens
// a ReqReadExcl), in the transaction the block holds while it replays
// its deferred requests, else in one from the pool.
func (mc *MemCtrl) open(e *dirEntry, kind MsgKind, m *Msg, now uint64) *dirTx {
	t := e.tx
	if t == nil {
		if t = mc.txFree; t != nil {
			mc.txFree = t.next
		} else {
			t = new(dirTx)
		}
		e.tx = t
	}
	mc.busyTx++
	*t = dirTx{kind: kind, req: *m, begin: now, deferred: t.deferred}
	return t
}

// MemCtrl is one memory bank: backing storage timing, the co-located
// full-map directory, and the memory-side protocol engine for whichever
// write policy the platform runs. It consumes at most one message per
// service interval, so bank contention appears as NoC backpressure —
// the effect driving the paper's Architecture 1 results.
type MemCtrl struct {
	p     Params
	proto Protocol
	bank  int
	node  *Node // the bank's port, set by NewHierarchy
	space *mem.Space

	dir       map[uint32]*dirEntry
	chunk     []dirEntry // the records dir indexes are carved from
	txFree    *dirTx     // idle transactions, each with its deferred array
	busyUntil uint64
	st        MemStats

	// busyTx counts blocks with a transaction in flight; queuedReqs
	// counts deferred requests waiting behind busy blocks. Both are
	// maintained unconditionally (two integer bumps) so the sampler
	// can read bank pressure without walking the directory map.
	busyTx     int
	queuedReqs int

	// Fault seeds protocol mutations for verification self-tests; the
	// zero value (production) injects nothing. See FaultPlan.
	Fault FaultPlan
}

// newMemCtrl builds the controller for one bank, all but its port.
func newMemCtrl(bank int, p Params, proto Protocol, space *mem.Space) *MemCtrl {
	return &MemCtrl{p: p, proto: proto, bank: bank, space: space, dir: make(map[uint32]*dirEntry)}
}

// Stats returns the bank's counters.
func (mc *MemCtrl) Stats() *MemStats { return &mc.st }

// Accept implements Sink: the bank takes one message per service
// interval.
func (mc *MemCtrl) Accept(now uint64) bool { return now >= mc.busyUntil }

func (mc *MemCtrl) entry(blk uint32) *dirEntry {
	e := mc.dir[blk]
	if e == nil {
		if len(mc.chunk) == cap(mc.chunk) {
			// 384 B: a larger object with pointers carries a malloc header.
			mc.chunk = make([]dirEntry, 0, 16)
		}
		mc.chunk = mc.chunk[:len(mc.chunk)+1]
		e = &mc.chunk[len(mc.chunk)-1]
		e.owner = -1
		mc.dir[blk] = e
	}
	return e
}

// newCtrl returns a message from the bank.
func (mc *MemCtrl) newCtrl(kind MsgKind, addr uint32) Msg {
	return Msg{Kind: kind, Src: mc.node.ID, Addr: addr}
}

// HandleMsg implements Sink: the port stays busy MemService cycles, one
// for an ack, a fetched block or a writeback.
func (mc *MemCtrl) HandleMsg(m *Msg, now uint64) {
	mc.busyUntil = now + uint64(mc.p.MemService)
	if m.Kind == RspInvAck || m.Kind == RspFetch || m.Kind == ReqWriteBack {
		mc.busyUntil = now + 1
	}
	mc.process(m, now)
}

// process dispatches one message; deferred messages re-enter here when
// their block's transaction completes.
func (mc *MemCtrl) process(m *Msg, now uint64) {
	switch m.Kind {
	case ReqIFetch:
		mc.st.IFetches++
		rsp := mc.newCtrl(RspIData, m.Addr)
		mc.space.ReadBlock(m.Addr, rsp.Data[:])
		mc.node.SendCtrl(rsp, m.Src, now+uint64(mc.p.MemLatency))
		return
	case ReqWriteBack:
		// Never deferred: writebacks unblock pending transactions.
		mc.st.WriteBacks++
		mc.space.WriteBlock(m.Addr, m.Data[:])
		e := mc.entry(m.Addr)
		if e.owner == int16(m.Src) {
			e.owner = -1
		}
		mc.node.SendCtrl(mc.newCtrl(RspWriteAck, m.Addr), m.Src, now+1)
		return
	case RspInvAck, RspFetch, RspC2CDone:
		mc.handleRsp(m, now)
		return
	}

	blk := BlockAddr(m.Addr)
	e := mc.entry(blk)
	if e.busy() {
		mc.st.Deferred++
		mc.queuedReqs++
		e.tx.deferred = append(e.tx.deferred, *m)
		return
	}
	switch m.Kind {
	case ReqRead:
		mc.handleRead(e, m, now)
	case ReqReadExcl:
		mc.handleReadExcl(e, m, now)
	case ReqUpgrade:
		mc.handleUpgrade(e, m, now)
	case ReqWriteThrough:
		mc.handleWriteThrough(e, m, now)
	case ReqSwap:
		mc.handleSwap(e, m, now)
	default:
		panic(fmt.Sprintf("coherence: bank %d: unhandled %v", mc.bank, m))
	}
	if !e.busy() && mc.node.Obs.Tracing() {
		// Single-message request, served and answered in this call.
		mc.node.Obs.Instant(obs.DirPid(mc.bank), 0, m.Kind.String(), now, m.Addr)
	}
}

// PendingTx reports the number of blocks with an open directory
// transaction (observability gauge).
func (mc *MemCtrl) PendingTx() int { return mc.busyTx }

// QueuedRequests reports the requests deferred behind busy blocks
// (observability gauge).
func (mc *MemCtrl) QueuedRequests() int { return mc.queuedReqs }

// respondData sends a block data response granting excl or shared.
func (mc *MemCtrl) respondData(blk uint32, dst int, excl bool, now uint64) {
	rsp := mc.newCtrl(RspData, blk)
	rsp.Excl = excl
	mc.space.ReadBlock(blk, rsp.Data[:])
	mc.node.SendCtrl(rsp, dst, now+uint64(mc.p.MemLatency))
}

// noteSharer records a new sharer and, under a limited-pointer
// directory, flips the entry to broadcast mode when the pointer budget
// overflows.
func (mc *MemCtrl) noteSharer(e *dirEntry, cpu int) {
	e.sharers |= 1 << cpu
	if k := mc.p.DirPointers; k > 0 && bits.OnesCount64(e.sharers) > k {
		e.bcast = true
	}
}

// invalTargets returns the caches an invalidation (or update) must go
// to, excluding the writer: the precise sharer set, or — after a
// limited-pointer overflow — every cache in the system.
func (mc *MemCtrl) invalTargets(e *dirEntry, writer int) uint64 {
	if e.bcast {
		all := uint64(1)<<mc.p.NumCPUs - 1
		return all &^ (1 << writer)
	}
	return e.sharers &^ (1 << writer)
}

// sendInvals issues CmdInval to every cache in the mask, in ascending
// CPU order, and returns the count.
func (mc *MemCtrl) sendInvals(blk uint32, mask uint64, now uint64) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		if mc.Fault.faultDropInval() {
			continue // seeded mutation: stale copy survives
		}
		mc.node.SendCtrl(mc.newCtrl(CmdInval, blk), bits.TrailingZeros64(mask), now)
		mc.st.InvalsSent++
		n++
	}
	return n
}

// openFetch opens a transaction that must first recall the block from
// its owner with cmd (CmdFetch or CmdFetchInval), forwarded cache to
// cache when fwd is set.
func (mc *MemCtrl) openFetch(e *dirEntry, kind, cmd MsgKind, m *Msg, fwd bool, now uint64) {
	t := mc.open(e, kind, m, now)
	t.fetchTarget = e.owner
	t.fetchPending = true
	mc.st.FetchesSent++
	c := mc.newCtrl(cmd, m.Addr)
	c.HasFwd = fwd
	c.Fwd = m.Src
	mc.node.SendCtrl(c, int(e.owner), now)
}

func (mc *MemCtrl) handleRead(e *dirEntry, m *Msg, now uint64) {
	mc.st.Reads++
	blk := m.Addr
	if mc.proto == WBMESI || mc.proto == MOESI {
		switch {
		case e.owner >= 0 && int(e.owner) != m.Src:
			// Remote dirty (or exclusive) copy: fetch it first — the
			// paper's 4-hop read (3 hops with cache-to-cache forwarding).
			mc.openFetch(e, ReqRead, CmdFetch, m, mc.p.CacheToCache, now)
			return
		case e.owner == int16(m.Src):
			// The owner itself re-reads after a silent clean eviction.
			e.owner = -1
		}
		if e.sharers == 0 && e.owner < 0 {
			// Illinois exclusivity on a clean private read.
			e.owner = int16(m.Src)
			mc.respondData(blk, m.Src, true, now)
			return
		}
		mc.noteSharer(e, m.Src)
		mc.respondData(blk, m.Src, false, now)
		return
	}
	// WTI: memory is always current; just record the sharer.
	mc.noteSharer(e, m.Src)
	mc.respondData(blk, m.Src, false, now)
}

func (mc *MemCtrl) handleReadExcl(e *dirEntry, m *Msg, now uint64) {
	mc.st.ReadExcls++
	blk := m.Addr
	switch {
	case e.owner >= 0 && int(e.owner) != m.Src:
		// MOESI: an Owned block may also have Shared copies; they are
		// invalidated in the same transaction, and the owner's data then
		// goes through the bank, so M is granted only after every ack.
		others := mc.invalTargets(e, m.Src) &^ (1 << uint(e.owner))
		mc.openFetch(e, ReqReadExcl, CmdFetchInval, m, mc.p.CacheToCache && others == 0, now)
		if others != 0 {
			e.tx.waitAcks = mc.sendInvals(blk, others, now)
		}
		e.sharers, e.bcast = 0, false
		return
	case e.owner == int16(m.Src):
		// Silent clean eviction by the owner itself.
		mc.respondData(blk, m.Src, true, now)
		return
	}
	others := mc.invalTargets(e, m.Src)
	e.sharers, e.bcast = 0, false
	if others != 0 {
		mc.open(e, ReqReadExcl, m, now).waitAcks = mc.sendInvals(blk, others, now)
		return
	}
	e.owner = int16(m.Src)
	mc.respondData(blk, m.Src, true, now)
}

func (mc *MemCtrl) handleUpgrade(e *dirEntry, m *Msg, now uint64) {
	// Grantable without data to a requester that still holds the block:
	// MOESI's Owned holder wanting exclusivity back, or a sharer of an
	// unowned block.
	if e.owner != int16(m.Src) && (e.owner >= 0 || e.sharers&(1<<m.Src) == 0) {
		// The requester lost its copy to an earlier-serialized writer;
		// the upgrade is promoted to a full exclusive read.
		mc.handleReadExcl(e, m, now)
		return
	}
	mc.st.Upgrades++
	others := mc.invalTargets(e, m.Src)
	e.sharers, e.bcast = 0, false
	if others != 0 {
		mc.open(e, ReqUpgrade, m, now).waitAcks = mc.sendInvals(m.Addr, others, now)
		return
	}
	e.owner = int16(m.Src)
	mc.node.SendCtrl(mc.newCtrl(RspUpgradeAck, m.Addr), m.Src, now+1)
}

func (mc *MemCtrl) handleWriteThrough(e *dirEntry, m *Msg, now uint64) {
	mc.st.WriteThroughs++
	if !mc.Fault.faultSkipWTApply() {
		mc.space.WriteWord(m.Addr, m.Word)
	}
	blk := BlockAddr(m.Addr)
	// WTU updates every sharer, the writer included: all copies must
	// observe the bank's serialization order. WTI invalidates the
	// other copies; the writer's own copy was updated at store time
	// and stays valid. A broadcast-mode entry targets every cache.
	targets := mc.invalTargets(e, m.Src)
	if mc.proto == WTU {
		targets |= e.sharers & (1 << m.Src)
	} else {
		e.sharers &= 1 << m.Src
		e.bcast = false
	}
	if targets == 0 {
		// The paper's 2-hop write.
		mc.node.SendCtrl(mc.newCtrl(RspWriteAck, m.Addr), m.Src, now+1)
		return
	}
	// The 4-hop write: invalidate (WTI) or update (WTU) the copies,
	// acknowledging the writer once their acks are in.
	t := mc.open(e, ReqWriteThrough, m, now)
	if mc.proto == WTU {
		t.waitAcks = mc.sendUpdates(targets, m.Addr, m.Word, now)
	} else {
		t.waitAcks = mc.sendInvals(blk, targets, now)
	}
}

// sendUpdates issues CmdUpdate carrying the written word (addr and word
// — scalars, so no template message is built) to every cache in the
// mask, in ascending CPU order, and returns the count.
func (mc *MemCtrl) sendUpdates(mask uint64, addr, word uint32, now uint64) int {
	n := bits.OnesCount64(mask)
	mc.st.UpdatesSent += uint64(n)
	for ; mask != 0; mask &= mask - 1 {
		upd := mc.newCtrl(CmdUpdate, addr)
		upd.Word = word
		mc.node.SendCtrl(upd, bits.TrailingZeros64(mask), now)
	}
	return n
}

func (mc *MemCtrl) handleSwap(e *dirEntry, m *Msg, now uint64) {
	mc.st.Swaps++
	old := mc.space.ReadWord(m.Addr)
	mc.space.WriteWord(m.Addr, m.Word)
	blk := BlockAddr(m.Addr)
	others := mc.invalTargets(e, m.Src) // the requester self-invalidated
	if mc.proto == WTU {
		e.sharers &^= 1 << m.Src // other copies survive, updated in place
	} else {
		e.sharers, e.bcast = 0, false
	}
	if others == 0 {
		rsp := mc.newCtrl(RspSwap, m.Addr)
		rsp.Word = old
		mc.node.SendCtrl(rsp, m.Src, now+uint64(mc.p.MemLatency))
		return
	}
	t := mc.open(e, ReqSwap, m, now)
	t.oldWord = old
	if mc.proto == WTU {
		t.waitAcks = mc.sendUpdates(others, m.Addr, m.Word, now)
	} else {
		t.waitAcks = mc.sendInvals(blk, others, now)
	}
}

// handleRsp folds an ack, a fetched block or a forward's confirmation
// into its block's open transaction.
func (mc *MemCtrl) handleRsp(m *Msg, now uint64) {
	blk := BlockAddr(m.Addr)
	e := mc.dir[blk]
	if e == nil || !e.busy() {
		panic(fmt.Sprintf("coherence: bank %d: stray %v", mc.bank, m))
	}
	switch t := e.tx; {
	case m.Kind == RspInvAck && t.waitAcks > 0:
		t.waitAcks--
	case m.Kind == RspC2CDone:
		t.c2cDone = true
	case m.Kind == RspFetch && t.fetchPending && int(t.fetchTarget) == m.Src:
		if !m.NoData {
			mc.space.WriteBlock(blk, m.Data[:])
		}
		t.fetchSeen, t.fetchFwd, t.fetchHadData, t.retainOwner = true, m.Forwarded, !m.NoData, m.RetainOwner
	default:
		panic(fmt.Sprintf("coherence: bank %d: stray %v", mc.bank, m))
	}
	mc.maybeComplete(e, blk, now)
}

// maybeComplete closes the transaction once every awaited message is
// in, applying the directory updates and sending the response. A fetch
// leg has landed when the owner answered and a forwarded transfer was
// confirmed received by the requester (so a later invalidation can
// never overtake the forwarded data).
func (mc *MemCtrl) maybeComplete(e *dirEntry, blk uint32, now uint64) {
	t := e.tx
	if t.waitAcks > 0 || t.fetchPending && !(t.fetchSeen && (!t.fetchFwd || t.c2cDone)) {
		return
	}
	req := &t.req
	switch t.kind {
	case ReqWriteThrough:
		mc.node.SendCtrl(mc.newCtrl(RspWriteAck, req.Addr), req.Src, now+1)
	case ReqSwap:
		rsp := mc.newCtrl(RspSwap, req.Addr)
		rsp.Word = t.oldWord
		mc.node.SendCtrl(rsp, req.Src, now+1)
	case ReqRead:
		if t.retainOwner {
			// MOESI: the previous owner keeps the block Owned (dirty,
			// memory stays stale) and supplied the requester directly.
			if !t.fetchFwd {
				panic(fmt.Sprintf("coherence: bank %d: owner retained without forwarding", mc.bank))
			}
			mc.noteSharer(e, req.Src)
			break
		}
		old := int(t.fetchTarget)
		e.owner = -1
		if t.fetchHadData || t.fetchFwd {
			// The previous owner keeps a Shared copy only if it still
			// had the block to answer with.
			mc.noteSharer(e, old)
		}
		switch {
		case t.fetchFwd:
			// Cache-to-cache: the requester already has the data.
			mc.noteSharer(e, req.Src)
		case e.sharers == 0:
			e.owner = int16(req.Src)
			mc.respondData(blk, req.Src, true, now)
		default:
			mc.noteSharer(e, req.Src)
			mc.respondData(blk, req.Src, false, now)
		}
	case ReqReadExcl:
		e.owner = int16(req.Src)
		e.sharers, e.bcast = 0, false
		if !t.fetchFwd {
			mc.respondData(blk, req.Src, true, now)
		}
	case ReqUpgrade:
		e.owner = int16(req.Src)
		e.sharers, e.bcast = 0, false
		mc.node.SendCtrl(mc.newCtrl(RspUpgradeAck, blk), req.Src, now+1)
	default:
		panic(fmt.Sprintf("coherence: bank %d: completion of unexpected %v transaction", mc.bank, t.kind))
	}
	mc.finish(e, blk, now)
}

// finish closes the block's transaction and replays deferred requests
// until one of them re-blocks the entry (or none remain); an idle
// block's transaction goes back to the pool.
func (mc *MemCtrl) finish(e *dirEntry, blk uint32, now uint64) {
	t := e.tx
	mc.busyTx--
	mc.node.Obs.Span(obs.DirPid(mc.bank), obs.TidLane, t.kind.String(), t.begin, now, blk)
	*t = dirTx{deferred: t.deferred}
	for !e.busy() && len(t.deferred) > 0 {
		// The head stays in place while it runs: nothing it does
		// appends to this block's queue.
		mc.queuedReqs--
		mc.process(&t.deferred[0], now)
		t.deferred = t.deferred[:copy(t.deferred, t.deferred[1:])]
	}
	if !e.busy() {
		e.tx, t.next, mc.txFree = nil, mc.txFree, t
	}
}

// Drained reports whether no transaction is in flight at this bank.
// The busy/deferred gauges are maintained exactly (see process/finish),
// so this avoids iterating the directory map — O(1) instead of O(blocks)
// per quiescence poll, and no map-order dependence.
func (mc *MemCtrl) Drained() bool {
	return mc.busyTx == 0 && mc.queuedReqs == 0
}

// DirSnapshot exposes directory state for the invariant checker:
// sharer bitmap and owner for the block.
func (mc *MemCtrl) DirSnapshot(blk uint32) (sharers uint64, owner int) {
	e := mc.dir[blk]
	if e == nil {
		return 0, -1
	}
	return e.sharers, int(e.owner)
}

// DirBusy reports whether the block has a directory transaction open
// (requests arriving now would be deferred). The runtime invariant
// checker uses it to recognize transient windows.
func (mc *MemCtrl) DirBusy(blk uint32) bool {
	e := mc.dir[blk]
	return e != nil && e.busy()
}

// Fingerprint appends the bank's behaviour-relevant state to e: every
// directory entry holding any state (by block address, so the result is
// deterministic) with its serialization state and deferred requests,
// then the cycles the service port stays occupied from now.
func (mc *MemCtrl) Fingerprint(e *Enc, now uint64) {
	blks := make([]uint32, 0, len(mc.dir))
	for blk, d := range mc.dir { //lint:allow maprange — sorted immediately below
		if d.tx != nil || d.sharers != 0 || d.owner >= 0 || d.bcast {
			blks = append(blks, blk) // else indistinguishable from an absent entry
		}
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	e.U32(uint32(len(blks)))
	var idle dirTx // an idle block encodes a zero transaction
	for _, blk := range blks {
		d, t, reqSrc := mc.dir[blk], &idle, -1
		if d.tx != nil { // open: an idle block's went back to the pool
			t, reqSrc = d.tx, d.tx.req.Src
		}
		e.U64(d.sharers)
		e.U32(blk, uint32(d.owner), uint32(t.kind), uint32(reqSrc), uint32(t.waitAcks),
			uint32(t.fetchTarget), t.oldWord, uint32(len(t.deferred)))
		e.Bools(d.bcast, d.busy(), t.fetchPending, t.fetchSeen, t.fetchFwd, t.fetchHadData,
			t.retainOwner, t.c2cDone)
		for i := range t.deferred {
			t.deferred[i].Fingerprint(e)
		}
	}
	e.U64(max(mc.busyUntil, now) - now)
}
