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

// dirEntry is one block's full-map directory state (Censier–Feautrier:
// a presence bit per cache plus an exclusivity owner) together with the
// per-block transaction serialization state.
type dirEntry struct {
	sharers uint64 // presence bitmap, one bit per CPU (hence the 64-CPU cap)
	owner   int16  // exclusive owner cache id, -1 when none (MESI only)
	// bcast marks a limited-pointer entry that overflowed its pointers:
	// the bitmap stays faithful for checking, but the protocol must
	// broadcast its invalidations/updates as real Dir_k_B hardware
	// would, having lost precise sharer knowledge.
	bcast bool

	busy bool
	kind MsgKind // transaction being completed
	// req is a value copy of the original request awaiting completion:
	// the delivered *Msg is recycled into the node's pool the moment
	// HandleMsg returns, so the directory may never retain the pointer.
	// Every deferrable/completable kind is data-free, and the copy's
	// Data slice is nilled to keep the pooled buffer unreferenced.
	req         Msg
	fetchTarget int16 // owner a Cmd{Fetch,FetchInval} was sent to
	waitAcks    int
	oldWord     uint32 // WTI swap: value to return
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
	// deferred queues requests behind a busy block, as value copies for
	// the same pool-ownership reason as req (the queued kinds —
	// ReqRead/ReadExcl/Upgrade/WriteThrough/Swap — never carry Data).
	deferred []Msg

	// begin is the cycle the busy transaction opened (its trace span).
	begin uint64
}

// open starts the block's multi-message transaction of the given kind
// on behalf of request m (an upgrade promoted to an exclusive read opens
// a ReqReadExcl).
func (e *dirEntry) open(kind MsgKind, m *Msg) {
	e.busy = true
	e.kind = kind
	e.req = *m
	e.req.Data = nil
}

// MemCtrl is one memory bank: backing storage timing, the co-located
// full-map directory, and the memory-side protocol engine for whichever
// write policy the platform runs. It consumes at most one message per
// service interval, so bank contention appears as NoC backpressure —
// the effect driving the paper's Architecture 1 results.
type MemCtrl struct {
	p      Params
	proto  Protocol
	bank   int
	nodeID int
	node   *Node
	space  *mem.Space

	dir       map[uint32]*dirEntry
	busyUntil uint64
	st        MemStats

	// Obs, when attached, records directory transactions as trace
	// spans and keeps the occupancy gauges below exact for sampling.
	Obs *obs.Recorder
	// busyTx counts blocks with a transaction in flight; queuedReqs
	// counts deferred requests waiting behind busy blocks. Both are
	// maintained unconditionally (two integer bumps) so the sampler
	// can read bank pressure without walking the directory map.
	busyTx     int
	queuedReqs int

	// replay is the scratch slot deferred requests are popped into when
	// a transaction closes: a persistent field, not a loop local, so the
	// replayed message never escapes to the heap per replay.
	replay Msg

	// Fault seeds protocol mutations for verification self-tests; the
	// zero value (production) injects nothing. See FaultPlan.
	Fault FaultPlan
}

// NewMemCtrl builds the controller for one bank. Call SetNode before
// the first cycle.
func NewMemCtrl(bank, nodeID int, p Params, proto Protocol, space *mem.Space) *MemCtrl {
	return &MemCtrl{
		p:      p,
		proto:  proto,
		bank:   bank,
		nodeID: nodeID,
		space:  space,
		dir:    make(map[uint32]*dirEntry),
	}
}

// SetNode attaches the bank's NoC node (created after the controller
// because the node needs the controller as its sink).
func (mc *MemCtrl) SetNode(n *Node) { mc.node = n }

// Stats returns the bank's counters.
func (mc *MemCtrl) Stats() *MemStats { return &mc.st }

// Accept implements Sink: the bank takes one message per service
// interval.
func (mc *MemCtrl) Accept(now uint64) bool { return now >= mc.busyUntil }

func (mc *MemCtrl) entry(blk uint32) *dirEntry {
	e := mc.dir[blk]
	if e == nil {
		e = &dirEntry{owner: -1, fetchTarget: -1}
		mc.dir[blk] = e
	}
	return e
}

// readBlockInto fills m's (reused) data buffer with the block at blk.
func (mc *MemCtrl) readBlockInto(m *Msg, blk uint32) {
	m.ensureData(mc.p.BlockBytes)
	mc.space.ReadBlock(blk, m.Data)
}

// newCtrl draws a pooled message and stamps the bank as its source.
func (mc *MemCtrl) newCtrl(kind MsgKind, addr uint32) *Msg {
	m := mc.node.NewMsg()
	m.Kind = kind
	m.Src = mc.nodeID
	m.Addr = addr
	return m
}

func serviceCost(k MsgKind, memService int) int {
	switch k {
	case RspInvAck, RspFetch, ReqWriteBack:
		return 1
	default:
		return memService
	}
}

// HandleMsg implements Sink.
func (mc *MemCtrl) HandleMsg(m *Msg, now uint64) {
	mc.busyUntil = now + uint64(serviceCost(m.Kind, mc.p.MemService))
	mc.process(m, now)
}

// process dispatches one message; deferred messages re-enter here when
// their block's transaction completes.
func (mc *MemCtrl) process(m *Msg, now uint64) {
	switch m.Kind {
	case ReqIFetch:
		mc.st.IFetches++
		rsp := mc.newCtrl(RspIData, m.Addr)
		mc.readBlockInto(rsp, m.Addr)
		mc.node.SendCtrl(rsp, m.Src, now+uint64(mc.p.MemLatency))
		return
	case ReqWriteBack:
		// Never deferred: writebacks unblock pending transactions.
		mc.st.WriteBacks++
		mc.space.WriteBlock(m.Addr, m.Data)
		e := mc.entry(m.Addr)
		if e.owner == int16(m.Src) {
			e.owner = -1
		}
		mc.node.SendCtrl(mc.newCtrl(RspWriteAck, m.Addr), m.Src, now+1)
		return
	case RspInvAck:
		mc.handleInvAck(m, now)
		return
	case RspFetch:
		mc.handleFetchRsp(m, now)
		return
	case RspC2CDone:
		mc.handleC2CDone(m, now)
		return
	}

	blk := mc.p.BlockAddr(m.Addr)
	e := mc.entry(blk)
	if e.busy {
		mc.st.Deferred++
		mc.queuedReqs++
		e.deferred = append(e.deferred, *m)
		e.deferred[len(e.deferred)-1].Data = nil
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
	// The entry was idle on dispatch, so a busy entry here means the
	// handler just opened a multi-message transaction.
	if e.busy {
		mc.busyTx++
		e.begin = now
	} else if mc.Obs.Tracing() {
		// Single-message request, served and answered in this call.
		mc.Obs.Instant(obs.DirPid(mc.bank), 0, m.Kind.String(), now, m.Addr)
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
	mc.readBlockInto(rsp, blk)
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
	e.open(kind, m)
	e.fetchTarget = e.owner
	e.fetchPending = true
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
			e.waitAcks = mc.sendInvals(blk, others, now)
		}
		e.sharers = 0
		e.bcast = false
		return
	case e.owner == int16(m.Src):
		// Silent clean eviction by the owner itself.
		mc.respondData(blk, m.Src, true, now)
		return
	}
	others := mc.invalTargets(e, m.Src)
	e.sharers = 0
	e.bcast = false
	if others != 0 {
		e.open(ReqReadExcl, m)
		e.waitAcks = mc.sendInvals(blk, others, now)
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
	e.sharers = 0
	e.bcast = false
	if others != 0 {
		e.open(ReqUpgrade, m)
		e.waitAcks = mc.sendInvals(m.Addr, others, now)
		return
	}
	e.owner = int16(m.Src)
	mc.node.SendCtrl(mc.newCtrl(RspUpgradeAck, m.Addr), m.Src, now+1)
}

func (mc *MemCtrl) handleWriteThrough(e *dirEntry, m *Msg, now uint64) {
	mc.st.WriteThroughs++
	if !mc.Fault.faultSkipWTApply() {
		mc.space.WriteMasked(m.Addr, m.Word, m.ByteEn)
	}
	blk := mc.p.BlockAddr(m.Addr)
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
	e.open(ReqWriteThrough, m)
	if mc.proto == WTU {
		e.waitAcks = mc.sendUpdates(targets, m.Addr, m.Word, m.ByteEn, now)
	} else {
		e.waitAcks = mc.sendInvals(blk, targets, now)
	}
}

// sendUpdates issues CmdUpdate carrying the written word (addr, word,
// byteEn — scalars, so no template message is built) to every cache in
// the mask, in ascending CPU order, and returns the count.
func (mc *MemCtrl) sendUpdates(mask uint64, addr, word uint32, byteEn uint8, now uint64) int {
	n := bits.OnesCount64(mask)
	mc.st.UpdatesSent += uint64(n)
	for ; mask != 0; mask &= mask - 1 {
		upd := mc.newCtrl(CmdUpdate, addr)
		upd.Word = word
		upd.ByteEn = byteEn
		mc.node.SendCtrl(upd, bits.TrailingZeros64(mask), now)
	}
	return n
}

func (mc *MemCtrl) handleSwap(e *dirEntry, m *Msg, now uint64) {
	mc.st.Swaps++
	old := mc.space.ReadWord(m.Addr)
	mc.space.WriteWord(m.Addr, m.Word)
	blk := mc.p.BlockAddr(m.Addr)
	others := mc.invalTargets(e, m.Src) // the requester self-invalidated
	if mc.proto == WTU {
		e.sharers &^= 1 << m.Src // other copies survive, updated in place
	} else {
		e.sharers = 0
		e.bcast = false
	}
	if others == 0 {
		rsp := mc.newCtrl(RspSwap, m.Addr)
		rsp.Word = old
		mc.node.SendCtrl(rsp, m.Src, now+uint64(mc.p.MemLatency))
		return
	}
	e.open(ReqSwap, m)
	e.oldWord = old
	if mc.proto == WTU {
		e.waitAcks = mc.sendUpdates(others, m.Addr, m.Word, 0xf, now)
	} else {
		e.waitAcks = mc.sendInvals(blk, others, now)
	}
}

func (mc *MemCtrl) handleInvAck(m *Msg, now uint64) {
	blk := mc.p.BlockAddr(m.Addr)
	e := mc.dir[blk]
	if e == nil || !e.busy || e.waitAcks <= 0 {
		panic(fmt.Sprintf("coherence: bank %d: stray inv ack %v", mc.bank, m))
	}
	e.waitAcks--
	mc.maybeComplete(e, blk, now)
}

func (mc *MemCtrl) handleC2CDone(m *Msg, now uint64) {
	blk := mc.p.BlockAddr(m.Addr)
	e := mc.dir[blk]
	if e == nil || !e.busy {
		panic(fmt.Sprintf("coherence: bank %d: stray c2c done %v", mc.bank, m))
	}
	e.c2cDone = true
	mc.maybeComplete(e, blk, now)
}

func (mc *MemCtrl) handleFetchRsp(m *Msg, now uint64) {
	blk := m.Addr
	e := mc.dir[blk]
	if e == nil || !e.busy || !e.fetchPending || e.fetchTarget < 0 || int(e.fetchTarget) != m.Src {
		panic(fmt.Sprintf("coherence: bank %d: stray fetch response %v", mc.bank, m))
	}
	if !m.NoData {
		mc.space.WriteBlock(blk, m.Data)
	}
	e.fetchSeen = true
	e.fetchFwd = m.Forwarded
	e.fetchHadData = !m.NoData
	e.retainOwner = m.RetainOwner
	mc.maybeComplete(e, blk, now)
}

// fetchDone reports whether the transaction's fetch leg (if any) has
// fully landed: the owner answered, and a forwarded transfer was
// confirmed received by the requester (so a later invalidation can
// never overtake the forwarded data).
func (e *dirEntry) fetchDone() bool {
	if !e.fetchPending {
		return true
	}
	return e.fetchSeen && (!e.fetchFwd || e.c2cDone)
}

// maybeComplete closes the transaction once every awaited message is
// in, applying the directory updates and sending the response.
func (mc *MemCtrl) maybeComplete(e *dirEntry, blk uint32, now uint64) {
	if e.waitAcks > 0 || !e.fetchDone() {
		return
	}
	req := &e.req
	switch e.kind {
	case ReqWriteThrough:
		mc.node.SendCtrl(mc.newCtrl(RspWriteAck, req.Addr), req.Src, now+1)
	case ReqSwap:
		rsp := mc.newCtrl(RspSwap, req.Addr)
		rsp.Word = e.oldWord
		mc.node.SendCtrl(rsp, req.Src, now+1)
	case ReqRead:
		if e.retainOwner {
			// MOESI: the previous owner keeps the block Owned (dirty,
			// memory stays stale) and supplied the requester directly.
			if !e.fetchFwd {
				panic(fmt.Sprintf("coherence: bank %d: owner retained without forwarding", mc.bank))
			}
			mc.noteSharer(e, req.Src)
			break
		}
		old := int(e.fetchTarget)
		e.owner = -1
		if e.fetchHadData || e.fetchFwd {
			// The previous owner keeps a Shared copy only if it still
			// had the block to answer with.
			mc.noteSharer(e, old)
		}
		switch {
		case e.fetchFwd:
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
		e.sharers = 0
		e.bcast = false
		if !e.fetchFwd {
			mc.respondData(blk, req.Src, true, now)
		}
	case ReqUpgrade:
		e.owner = int16(req.Src)
		e.sharers = 0
		e.bcast = false
		mc.node.SendCtrl(mc.newCtrl(RspUpgradeAck, blk), req.Src, now+1)
	default:
		panic(fmt.Sprintf("coherence: bank %d: completion of unexpected %v transaction", mc.bank, e.kind))
	}
	mc.finish(e, blk, now)
}

// finish closes the block's transaction and replays deferred requests
// until one of them re-blocks the entry (or none remain).
func (mc *MemCtrl) finish(e *dirEntry, blk uint32, now uint64) {
	mc.busyTx--
	mc.Obs.Span(obs.DirPid(mc.bank), obs.TidLane, e.kind.String(), e.begin, now, blk)
	e.busy = false
	e.req = Msg{}
	e.kind = MsgInvalid
	e.fetchTarget = -1
	e.fetchPending = false
	e.fetchSeen = false
	e.fetchFwd = false
	e.fetchHadData = false
	e.retainOwner = false
	e.c2cDone = false
	for !e.busy && len(e.deferred) > 0 {
		mc.replay = e.deferred[0]
		copy(e.deferred, e.deferred[1:])
		e.deferred = e.deferred[:len(e.deferred)-1]
		mc.queuedReqs--
		mc.process(&mc.replay, now)
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
	return e != nil && e.busy
}

// Fingerprint appends the bank's behaviour-relevant state to e: every
// directory entry holding any state (by block address, so the result is
// deterministic) with its serialization state and deferred requests,
// then the cycles the service port stays occupied from now.
func (mc *MemCtrl) Fingerprint(e *Enc, now uint64) {
	blks := make([]uint32, 0, len(mc.dir))
	for blk, d := range mc.dir { //lint:allow maprange — sorted immediately below
		if d.busy || d.sharers != 0 || d.owner >= 0 || d.bcast || len(d.deferred) > 0 {
			blks = append(blks, blk) // else indistinguishable from an absent entry
		}
	}
	sort.Slice(blks, func(i, j int) bool { return blks[i] < blks[j] })
	e.U32(uint32(len(blks)))
	for _, blk := range blks {
		d := mc.dir[blk]
		reqSrc := -1
		if d.busy {
			reqSrc = d.req.Src
		}
		e.U64(d.sharers)
		e.U32(blk, uint32(d.owner), uint32(d.kind), uint32(reqSrc), uint32(d.waitAcks),
			uint32(d.fetchTarget), d.oldWord, uint32(len(d.deferred)))
		e.Bools(d.bcast, d.busy, d.fetchPending, d.fetchSeen, d.fetchFwd, d.fetchHadData,
			d.retainOwner, d.c2cDone)
		for i := range d.deferred {
			d.deferred[i].Fingerprint(e)
		}
	}
	e.U64(max(mc.busyUntil, now) - now)
}
