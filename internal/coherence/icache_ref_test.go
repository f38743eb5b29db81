package coherence

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/noc"
)

// refICache is the per-fetch instruction cache this package had before
// the code store, kept as the reference the differential rig holds the
// line-handing ICache to: raw bytes per line, and on every fetch of a
// new pc a full lookup (LRU stamp included), a byte-assembled word and
// a Decode. It speaks cpu.InstrPort by handing out one-word lines, so
// the only fetches the core serves itself are the retries of the very
// same word.
type refICache struct {
	id       int
	p        Params
	arr      *cacheArray
	node     *Node
	amap     *mem.AddrMap
	bankBase int

	pendActive bool
	pendIssued bool
	pendAddr   uint32

	word [1]isa.Instr

	Fetches uint64
	Misses  uint64
}

func (c *refICache) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	if c.pendActive {
		return nil, false
	}
	if line, hit := c.arr.lookup(addr); hit {
		c.Fetches++
		c.word[0] = isa.Decode(c.arr.readWord(line, WordAddr(addr)))
		return c.word[:], true
	}
	c.Fetches++
	c.Misses++
	c.pendActive = true
	c.pendIssued = false
	c.pendAddr = c.p.BlockAddr(addr)
	c.tryIssue(now)
	return nil, false
}

// Resident reports nothing resident: the reference core is ticked every
// cycle and never runs ahead.
func (c *refICache) Resident(addr uint32) ([]isa.Instr, bool) { return nil, false }

func (c *refICache) tryIssue(now uint64) {
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

// Accept and HandleMsg make the reference its node's sink: the refill
// is its own, everything else is the data cache's.
type refSink struct {
	d DataCache
	i *refICache
}

func (s *refSink) Accept(now uint64) bool { return true }

func (s *refSink) HandleMsg(m *Msg, now uint64) {
	if m.Kind != RspIData {
		s.d.HandleMsg(m, now)
		return
	}
	c := s.i
	if !c.pendActive || m.Addr != c.pendAddr {
		panic(fmt.Sprintf("coherence: ref icache %d: unexpected %v", c.id, m))
	}
	c.arr.fill(m.Addr, Shared, m.Data)
	c.pendActive = false
}

// FetchMachine is one CPU's worth of hierarchy for the differential rig
// in icache_diff_test.go (package coherence_test, which may import
// cpu): a one-bank WTI Hierarchy over a GMN whose instruction side is
// either the real ICache or, with ref set, the reference above spliced
// into the node in its place.
type FetchMachine struct {
	*Hierarchy
	Net   *noc.GMN
	Space *mem.Space
	ref   *refICache
}

// FetchMachineBase is where a FetchMachine's one region starts.
const FetchMachineBase = rigBase

func NewFetchMachine(icacheLines, ways int, ref bool) *FetchMachine {
	p := DefaultParams(1)
	p.ICacheBytes = icacheLines * p.BlockBytes
	p.Ways = ways
	amap := mem.NewAddrMap(1)
	amap.AddRegion(mem.Region{Name: "all", Base: rigBase, Size: 1 << 20, Banks: []int{0}})
	m := &FetchMachine{Net: noc.NewGMN(noc.DefaultGMNConfig(2)), Space: mem.NewSpace()}
	m.Hierarchy = NewHierarchy(m.Net, m.Space, amap, p, WTI)
	if ref {
		m.ref = &refICache{p: p, arr: newCacheArray(p.ICacheBytes, p.BlockBytes, ways), node: m.Nodes[0], amap: amap, bankBase: 1}
		m.Nodes[0].sink = &refSink{m.DCaches[0], m.ref}
	}
	return m
}

// Port is the machine's instruction side as the core sees it: the port
// and the counter of its fetches.
func (m *FetchMachine) Port() (interface {
	Line(now uint64, addr uint32) ([]isa.Instr, bool)
	Resident(addr uint32) ([]isa.Instr, bool)
}, *uint64) {
	if m.ref != nil {
		return m.ref, &m.ref.Fetches
	}
	return m.ICaches[0], &m.ICaches[0].Fetches
}

// Step is Hierarchy.Step with the reference's refill retry in the real
// ICache's place in the order.
func (m *FetchMachine) Step(now uint64) {
	if m.ref == nil {
		m.Hierarchy.Step(now)
		return
	}
	m.DCaches[0].Tick(now)
	m.ref.tryIssue(now)
	m.Nodes[0].Tick(now)
	m.BNodes[0].Tick(now)
	m.net.Tick(now)
}

// IStats reports the instruction side's fetches and misses.
func (m *FetchMachine) IStats() (fetches, misses uint64) {
	if m.ref != nil {
		return m.ref.Fetches, m.ref.Misses
	}
	return m.ICaches[0].Fetches, m.ICaches[0].Misses
}
