package coherence

import "repro/internal/sim"

// DataCache is one protocol's data-cache controller: the CPU-facing
// operations, the scheduling contract, and what the platform around it
// (Hierarchy, the invariant checkers, the model checker, the
// observability layer) asks of any controller, so that none of them
// names a concrete one.
//
// Operations follow a poll-retry discipline: one operation is in flight
// per cache, re-issued every cycle until ok is reported; controllers keep
// the outstanding transaction state, so repeated calls are idempotent.
// Both controllers embed dcache, which holds that state's shared part —
// the one blocking request — beside the line array, the port and the
// counters; a controller file holds only its policy.
//
// Every access is one aligned word: addr is a multiple of 4.
type DataCache interface {
	Load(now uint64, addr uint32) (word uint32, ok bool)
	Store(now uint64, addr uint32, word uint32) bool
	Swap(now uint64, addr uint32, newWord uint32) (old uint32, ok bool)
	// Hit reports whether an aligned word Load of addr would be served
	// this cycle from the cache's own line, touching nothing a message
	// or another Tick could observe: no transaction pending and the block
	// resident (and, under WTU, no posted write that must be forwarded
	// first). Pure; it stays true until the controller's next Tick or
	// HandleMsg, which is what lets a core load ahead of the clock.
	Hit(addr uint32) bool
	// ChargeHits counts n word Loads Hit vouched for, stamping no line:
	// the caller loads each line they hit again before the next Tick.
	ChargeHits(n uint64)
	// Tick retries any postponed protocol actions (posted writes,
	// unsent requests).
	Tick(now uint64)
	// NextWake reports now while Tick has such an action to retry and
	// sim.NoWake once it is a strict no-op until protocol state changes
	// (the sim.Sleeper question). Pure.
	NextWake(now uint64) uint64
	// Skip accounts the rejected retries of the access a data-stalled
	// core re-issues on each of the cycles [from, to) it does not
	// execute.
	Skip(from, to uint64)
	// HandleMsg processes a message delivered to this cache.
	HandleMsg(m *Msg, now uint64)
	// Drained reports whether the cache has no outstanding activity
	// (used for quiescence checks at end of simulation).
	Drained() bool
	Stats() *DCacheStats

	// Lines enumerates the resident (non-Invalid) lines.
	Lines() []LineInfo
	// Posted reports whether the word at waddr is covered by a write
	// the cache has posted but memory has not yet acknowledged (a
	// write-through cache's write-buffer entry, a write-back cache's
	// block in its eviction buffer). The runtime checker exempts such a
	// word from value agreement with memory.
	Posted(waddr uint32) bool
	// WBOccupancy reports the occupied write-buffer entries (0 for a
	// controller without one).
	WBOccupancy() int
	// Fingerprint appends the controller's complete
	// behaviour-relevant state — pending transactions, posted writes,
	// resident lines — to e. Counters and latency-attribution
	// timestamps are excluded: they do not influence future behaviour,
	// and including them would keep the model checker from ever merging
	// two states.
	Fingerprint(e *Enc)
}

// request is a cache's one blocking transaction (a miss, swap, upgrade
// or refill): posed when it starts, sent home once the port admits it
// (Tick retries a refused cycle), cleared when its answer is collected.
// It holds no Msg (80 B): the message is built only when it goes.
type request struct {
	kind   MsgKind // MsgInvalid: none posed
	issued bool
	addr   uint32 // block address, or a swap's word address
	word   uint32 // a swap's new word
	begin  uint64 // cycle it was posed (latency attribution)
}

// pose records the request and tries to issue it.
func (r *request) pose(n *Node, kind MsgKind, addr, word uint32, now uint64) {
	*r = request{kind: kind, addr: addr, word: word, begin: now}
	r.issue(n, now)
}

// issue sends the posed request home through n, a CPU-side port (whose
// ID is its CPU's), once n admits a request.
func (r *request) issue(n *Node, now uint64) {
	if r.kind == MsgInvalid || r.issued || !n.CanSendReq() {
		return
	}
	n.SendHome(Msg{Kind: r.kind, Src: n.ID, Addr: r.addr, Word: r.word}, now)
	r.issued = true
}

// wake is now while the request is posed but unissued — only Tick
// retries the issue — and sim.NoWake otherwise. Pure.
func (r *request) wake(now uint64) uint64 {
	if r.kind != MsgInvalid && !r.issued {
		return now
	}
	return sim.NoWake
}

// fingerprint appends the request's state, begin left out.
func (r *request) fingerprint(e *Enc) {
	e.Bools(r.issued)
	e.U32(uint32(r.kind), r.addr, r.word)
}

// dcache is what the data-cache controllers share: the CPU and policy
// they serve, the line array, the port, the blocking request and the
// counters.
type dcache struct {
	id    int // CPU / node id
	proto Protocol
	arr   *cacheArray
	node  *Node
	req   request
	st    DCacheStats
}

// newDCache builds the shared part of CPU id's data cache under proto.
func newDCache(proto Protocol, id int, p Params, node *Node) dcache {
	return dcache{id: id, proto: proto, arr: newCacheArray(p.DCacheBytes, p.Ways), node: node}
}

// Stats implements DataCache.
func (c *dcache) Stats() *DCacheStats { return &c.st }

// Lines implements DataCache.
func (c *dcache) Lines() []LineInfo { return c.arr.lines() }

// ChargeHits implements DataCache.
func (c *dcache) ChargeHits(n uint64) { c.arr.chargeHits(&c.st, n) }

// inval serves a CmdInval: drop the copy, if any, and acknowledge.
func (c *dcache) inval(m *Msg, now uint64) {
	c.st.InvalsReceived++
	if c.arr.invalidate(m.Addr) {
		c.st.CopiesDropped++
	}
	c.node.SendHome(Msg{Kind: RspInvAck, Src: c.id, Addr: m.Addr}, now)
}

// LineInfo describes one resident cache line for inspection. Data
// aliases the cache's storage: read it before the cache next runs.
type LineInfo struct {
	Addr  uint32
	State LineState
	Data  []byte
}

// DCacheStats aggregates one data cache's activity counters.
type DCacheStats struct {
	Loads       uint64
	Stores      uint64
	Swaps       uint64
	LoadHits    uint64
	LoadMisses  uint64
	StoreHits   uint64
	StoreMisses uint64
	// WBForwards counts loads satisfied from the write buffer (WTI).
	WBForwards uint64
	// InvalsReceived counts CmdInval messages processed.
	InvalsReceived uint64
	// UpdatesReceived / UpdatesApplied count WTU word updates seen and
	// actually merged into a resident line.
	UpdatesReceived uint64
	UpdatesApplied  uint64
	// CopiesDropped counts invalidations that actually dropped a copy.
	CopiesDropped uint64
	// FetchesServed counts CmdFetch/CmdFetchInval served (MESI owner).
	FetchesServed uint64
	// C2CTransfers counts cache-to-cache data transfers served.
	C2CTransfers uint64
	// Writebacks counts dirty evictions (MESI).
	Writebacks uint64
	// Upgrades counts Shared write hits requiring exclusivity (MESI).
	Upgrades uint64
	// WBufFullStalls counts stores rejected on a full write buffer.
	WBufFullStalls uint64
}

// WordAddr returns the aligned word address containing addr.
func WordAddr(addr uint32) uint32 { return addr &^ 3 }
