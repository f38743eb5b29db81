package coherence

import (
	"strings"

	"repro/internal/mem"
	"repro/internal/obs"
)

// DataCache is one protocol's data-cache controller: the CPU-facing
// operations, the scheduling contract, and what the platform around it
// (Hierarchy, the invariant checkers, the model checker, the
// observability layer) asks of any controller, so that none of them
// names a concrete one.
//
// Operations follow a poll-retry discipline: one operation is in flight
// per cache, re-issued every cycle until ok is reported; controllers keep
// the outstanding transaction state, so repeated calls are idempotent.
//
// addr/byteEn convention: addr is the byte address of the access; the
// controller works on the aligned word containing it, with byteEn
// selecting the accessed bytes (bit 0 = least significant byte of the
// word). Load returns the full aligned word; only the bytes selected by
// byteEn are meaningful. Store expects the data positioned within the
// word at the addressed bytes.
type DataCache interface {
	Load(now uint64, addr uint32, byteEn uint8) (word uint32, ok bool)
	Store(now uint64, addr uint32, word uint32, byteEn uint8) bool
	Swap(now uint64, addr uint32, newWord uint32) (old uint32, ok bool)
	// Hit reports whether an aligned word Load of addr would be served
	// this cycle from the cache's own line, touching nothing a message
	// or another Tick could observe: no transaction pending and the block
	// resident (and, under WTU, no posted write that must be forwarded
	// first). Pure; it stays true until the controller's next Tick or
	// HandleMsg, which is what lets a core load ahead of the clock.
	Hit(addr uint32) bool
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
	// PostedBytes reports which bytes of the aligned word at waddr are
	// covered by writes the cache has posted but memory has not yet
	// acknowledged (a byte-enable mask: a write-through cache's
	// write-buffer entries, a write-back cache's block in its eviction
	// buffer). The runtime checker exempts them from value agreement
	// with memory.
	PostedBytes(waddr uint32) uint8
	// WBOccupancy reports the occupied write-buffer entries (0 for a
	// controller without one).
	WBOccupancy() int
	// FlushDirty writes every dirty block into s, so host-side checks
	// see the final architectural state. Write-through caches have
	// nothing to flush.
	FlushDirty(s *mem.Space)
	// Fingerprint writes a canonical encoding of the controller's
	// complete behaviour-relevant state — pending transactions, posted
	// writes, resident lines — into b. Counters, observability handles
	// and latency-attribution timestamps are excluded: they do not
	// influence future behaviour, and including them would keep the
	// model checker from ever merging two states.
	Fingerprint(b *strings.Builder)
	// SetObserver attaches the observability recorder (nil detaches).
	SetObserver(r *obs.Recorder)
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

// ByteEnFor returns the byte-enable mask for an access of the given
// size (1, 2 or 4 bytes) at addr.
func ByteEnFor(addr uint32, size int) uint8 {
	shift := addr & 3
	switch size {
	case 1:
		return 1 << shift
	case 2:
		return 3 << shift
	case 4:
		return 0xf
	default:
		panic("coherence: unsupported access size")
	}
}
