package coherence

import (
	"fmt"
	"strings"
)

// Protocol selects the memory write policy under study: an index into
// the Protocols table.
type Protocol int

// The paper's two compared policies and the two extensions.
const (
	// WTI is write-through invalidate: write-no-allocate caches with
	// Valid/Invalid lines, every store forwarded to memory through the
	// write buffer, other copies invalidated by the directory.
	WTI Protocol = iota
	// WTU is write-through update: like WTI, every store is forwarded
	// to memory, but instead of invalidating the other cached copies
	// the directory sends them the written word. Copies stay readable
	// at the price of update traffic to every (possibly stale-listed)
	// sharer — the other hardware-protocol category the paper cites
	// (Stenström's write-update class). Provided as an extension for
	// the three-way ablation.
	WTU
	// WBMESI is write-back MESI (Illinois-like): dirty blocks live in
	// caches, stores require exclusivity obtained from the directory.
	WBMESI
	// MOESI extends WB-MESI with the Owned state: a dirty block can be
	// shared, with its owner — not memory — supplying the data, so
	// dirty read-sharing never writes memory back. It requires the
	// cache-to-cache transfer path (the owner must be able to send the
	// block straight to the requester) and is provided as an extension
	// beyond the paper's two policies.
	MOESI
)

// ProtocolRow is everything the platform needs to know about one write
// policy besides its controller code.
type ProtocolRow struct {
	// Name is the paper's label; the CLIs take it in lower case.
	Name string
	// New builds the policy's data-cache controller for CPU id, whose
	// port is node.
	New func(proto Protocol, id int, p Params, node *Node) DataCache
	// ForcesC2C marks a policy that only works with cache-to-cache
	// transfers: NewHierarchy switches Params.CacheToCache on for it.
	ForcesC2C bool
}

// Protocols is the table of write policies, indexed by Protocol.
// Adding a policy is a constant above, a row here and its controller
// (plus memctrl.go where its directory side differs); String,
// ParseProtocol, NewHierarchy, the model checker's "all" and the test
// rigs walk the table.
var Protocols = [...]ProtocolRow{
	WTI:    {Name: "WTI", New: newWriteThroughCache},
	WTU:    {Name: "WTU", New: newWriteThroughCache},
	WBMESI: {Name: "WB", New: newWriteBackCache},
	MOESI:  {Name: "MOESI", New: newWriteBackCache, ForcesC2C: true},
}

// String implements fmt.Stringer using the paper's labels.
func (p Protocol) String() string {
	if p < 0 || int(p) >= len(Protocols) {
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
	return Protocols[p].Name
}

// ProtocolNames lists the names the CLIs take, in table order: each
// row's Name in lower case.
func ProtocolNames() []string {
	names := make([]string, len(Protocols))
	for p := range Protocols {
		names[p] = strings.ToLower(Protocols[p].Name)
	}
	return names
}

// ParseProtocol is the inverse of String for ProtocolNames.
func ParseProtocol(name string) (Protocol, error) {
	names := ProtocolNames()
	for p, n := range names {
		if n == name {
			return Protocol(p), nil
		}
	}
	return 0, fmt.Errorf("unknown protocol %q (valid: %s)", name, strings.Join(names, ", "))
}

// BlockBytes is the cache block size, fixed by the paper's platform
// (Table 2: 32 bytes); blockShift is its base-2 logarithm.
const (
	BlockBytes = 32
	blockShift = 5
)

// Params collects the memory-hierarchy parameters shared by every
// controller. Defaults mirror the paper's Table 2.
type Params struct {
	NumCPUs int
	// DCacheBytes / ICacheBytes are the cache sizes (Table 2: 4 KiB each).
	DCacheBytes int
	ICacheBytes int
	// Ways is the cache associativity (Table 2: direct-mapped = 1).
	Ways int
	// WriteBufferWords is the WTI write-buffer depth (Table 2: 8 words).
	WriteBufferWords int
	// MemLatency is the bank storage access time in cycles, added to
	// every data-bearing bank response.
	MemLatency int
	// MemService is the bank occupancy per handled request, bounding
	// the bank to one request per MemService cycles.
	MemService int
	// StrictSC makes WTI stores block until acknowledged, restoring
	// textbook sequential consistency (ablation B); the paper's
	// configuration is the non-blocking write buffer (false).
	StrictSC bool
	// DirPointers selects the directory organization: 0 (default) is
	// the paper's Censier–Feautrier full map (one presence bit per
	// cache — the "area overhead [that] does not scale well" the paper
	// notes); k > 0 models a limited-pointer Dir_k_B directory (the
	// class of "more efficient solutions" the paper says its study can
	// be adapted to): each block tracks at most k precise sharers and
	// falls back to broadcast invalidation/update once more caches
	// share it.
	DirPointers int
	// CacheToCache enables the MESI optimization the paper suggests:
	// an owner asked to surrender a block sends the data directly to
	// the requester (3-hop critical path) instead of bouncing it
	// through the memory node (4 hops); dirty exclusive transfers skip
	// the memory update entirely. Off by default, as in the paper's
	// deliberately symmetric implementations.
	CacheToCache bool
}

// DefaultParams returns the paper's Table 2 memory parameters for n CPUs.
func DefaultParams(n int) Params {
	return Params{
		NumCPUs:          n,
		DCacheBytes:      4096,
		ICacheBytes:      4096,
		Ways:             1,
		WriteBufferWords: 8,
		MemLatency:       6,
		MemService:       2,
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.NumCPUs < 1 || p.NumCPUs > 64:
		return fmt.Errorf("coherence: NumCPUs %d outside 1..64 (the full-map directory uses a 64-bit sharer set)", p.NumCPUs)
	case p.DCacheBytes < BlockBytes || p.DCacheBytes%BlockBytes != 0:
		return fmt.Errorf("coherence: DCacheBytes %d must be a multiple of the block size", p.DCacheBytes)
	case p.ICacheBytes < BlockBytes || p.ICacheBytes%BlockBytes != 0:
		return fmt.Errorf("coherence: ICacheBytes %d must be a multiple of the block size", p.ICacheBytes)
	case p.Ways < 1 || (p.DCacheBytes/BlockBytes)%p.Ways != 0 || (p.ICacheBytes/BlockBytes)%p.Ways != 0:
		return fmt.Errorf("coherence: Ways %d must divide the line counts", p.Ways)
	case !isPow2(p.DCacheBytes/BlockBytes/p.Ways) || !isPow2(p.ICacheBytes/BlockBytes/p.Ways):
		return fmt.Errorf("coherence: the set counts DCacheBytes/BlockBytes/Ways and ICacheBytes/BlockBytes/Ways must be powers of two")
	case p.WriteBufferWords < 1:
		return fmt.Errorf("coherence: WriteBufferWords must be positive")
	case p.MemLatency < 0 || p.MemService < 1:
		return fmt.Errorf("coherence: bank timing must be non-negative (latency) and positive (service)")
	case p.DirPointers < 0 || p.DirPointers > p.NumCPUs:
		return fmt.Errorf("coherence: DirPointers %d outside 0..NumCPUs", p.DirPointers)
	}
	return nil
}

// BlockAddr returns the block-aligned address containing addr.
func BlockAddr(addr uint32) uint32 { return addr &^ (BlockBytes - 1) }
