package coherence

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
)

// Hierarchy is the memory system of the paper's Figure 3, wired once:
// n split I/D caches sharing one NoC port each (node ids 0..n-1) and m
// memory banks with co-located directories (node ids n..n+m-1), all
// attached to one interconnect over one memory space. The simulator
// (core.Build) schedules its parts through the engine; the model
// checker and the test rigs step it by hand with Step.
type Hierarchy struct {
	DCaches []DataCache
	ICaches []*ICache
	Nodes   []*Node // CPU-side ports
	Banks   []*MemCtrl
	BNodes  []*Node // bank-side ports
	// Ports is every port by node id: Nodes followed by BNodes.
	Ports []*Node

	net   noc.Network
	space *mem.Space
	amap  *mem.AddrMap
	code  codeStore // the one decoded copy of the program the ICaches share
	msgs  msgSlab   // every message between its send and its delivery
}

// NewHierarchy builds the hierarchy for p.NumCPUs caches running proto
// and amap.NumBanks banks. A protocol whose row forces cache-to-cache
// transfers gets them regardless of p.
func NewHierarchy(net noc.Network, space *mem.Space, amap *mem.AddrMap, p Params, proto Protocol) *Hierarchy {
	row := &Protocols[proto]
	if row.ForcesC2C {
		p.CacheToCache = true
	}
	n, m := p.NumCPUs, amap.NumBanks
	h := &Hierarchy{
		DCaches: make([]DataCache, n),
		ICaches: make([]*ICache, n),
		Banks:   make([]*MemCtrl, m),
		Ports:   make([]*Node, n+m),
		net:     net,
		space:   space,
		amap:    amap,
		code:    codeStore{},
	}
	h.Nodes, h.BNodes = h.Ports[:n:n], h.Ports[n:]
	for b := range h.Banks {
		// The port needs the controller as its sink and the controller
		// its port to answer through.
		mc := newMemCtrl(b, p, proto, space)
		mc.node = newNode(n+b, net, mc, &h.msgs)
		h.Banks[b], h.BNodes[b] = mc, mc.node
	}
	for i := range h.DCaches {
		sink := &CPUSink{}
		h.Nodes[i] = newNode(i, net, sink, &h.msgs)
		h.Nodes[i].amap, h.Nodes[i].bankBase = amap, n
		h.DCaches[i] = row.New(proto, i, p, h.Nodes[i])
		h.ICaches[i] = newICache(i, p, h.Nodes[i], h.code)
		sink.D, sink.I = h.DCaches[i], h.ICaches[i]
	}
	return h
}

// InFlight returns the message packet p carries while p is in flight on
// h's network: sent, not yet delivered. A duplicate a fault plan made
// of it outlives that; the network discards it unread.
func (h *Hierarchy) InFlight(p noc.Packet) *Msg { return &h.msgs.msgs[p.Ref] }

// SeedCode decodes the code loaded at base, as memory holds it, ahead
// of the run, so the fills of an unmodified program allocate nothing.
func (h *Hierarchy) SeedCode(base uint32, code []byte) {
	var buf [BlockBytes]byte
	for a := BlockAddr(base); a < base+uint32(len(code)); a += BlockBytes {
		h.space.ReadBlock(a, buf[:])
		h.code.block(buf[:])
	}
}

// Step runs one cycle without an engine, in the order the simulator's
// tickers are registered: each CPU side's data cache, instruction cache
// and port, then the bank ports, then the interconnect. Whatever drives
// the caches (a CPU model, a test) acts before it.
func (h *Hierarchy) Step(now uint64) {
	for i, dc := range h.DCaches {
		dc.Tick(now)
		h.ICaches[i].Tick(now)
		h.Nodes[i].Tick(now)
	}
	for _, nd := range h.BNodes {
		nd.Tick(now)
	}
	h.net.Tick(now)
}

// Pending reports whether anything is still in flight below the CPUs:
// an undrained cache or bank, a queued port message, a packet in the
// interconnect. A non-nil report is told every component holding work.
func (h *Hierarchy) Pending(report func(part string)) bool {
	found := false
	note := func(busy bool, format string, i int) {
		if busy {
			found = true
			if report != nil {
				report(fmt.Sprintf(format, i))
			}
		}
	}
	for i, dc := range h.DCaches {
		note(!dc.Drained(), "cache%d not drained", i)
		note(!h.ICaches[i].Drained(), "icache%d not drained", i)
		note(!h.Nodes[i].Idle(), "node%d queue not empty", i)
	}
	for b, mc := range h.Banks {
		note(!mc.Drained(), "bank%d not drained", b)
		note(!h.BNodes[b].Idle(), "bank-node%d queue not empty", b)
	}
	if !h.net.Quiet() {
		found = true
		if report != nil {
			report("packets in flight")
		}
	}
	return found
}

// FlushCaches writes every dirty cached block back into the memory
// space so host-side checks observe the final architectural state.
func (h *Hierarchy) FlushCaches() {
	for _, dc := range h.DCaches {
		for _, li := range dc.Lines() {
			if li.State.Dirty() {
				h.space.WriteBlock(li.Addr, li.Data)
			}
		}
	}
}

// Fingerprint appends the behaviour-relevant state of every data cache,
// port and bank to e, with all times relative to now so states
// reached at different absolute cycles can merge. The instruction
// caches are left out (nothing that fingerprints a hierarchy fetches
// through them), as are the interconnect, whose packets only its owner
// can walk, and memory, of which only the owner knows the words in
// play.
func (h *Hierarchy) Fingerprint(e *Enc, now uint64) {
	for i, dc := range h.DCaches {
		dc.Fingerprint(e)
		h.Nodes[i].Fingerprint(e, now)
	}
	for i, mc := range h.Banks {
		mc.Fingerprint(e, now)
		h.BNodes[i].Fingerprint(e, now)
	}
}

// Enc is a fingerprint in bytes. Every Fingerprint method appends its
// fields at fixed width, a slice with its length first and a time as
// cycles from now, so two states have equal encodings exactly when
// nothing that steers their future differs.
type Enc []byte

// U32 appends each value as four little-endian bytes.
func (e *Enc) U32(vs ...uint32) {
	for _, v := range vs {
		*e = binary.LittleEndian.AppendUint32(*e, v)
	}
}

// U64 appends v as eight little-endian bytes.
func (e *Enc) U64(v uint64) { *e = binary.LittleEndian.AppendUint64(*e, v) }

// Bools appends up to eight flags as the bits of one byte.
func (e *Enc) Bools(bs ...bool) {
	var x byte
	for i, b := range bs {
		if b {
			x |= 1 << i
		}
	}
	*e = append(*e, x)
}

// Bytes appends b after its length.
func (e *Enc) Bytes(b []byte) {
	e.U32(uint32(len(b)))
	*e = append(*e, b...)
}

func (h *Hierarchy) bankFor(addr uint32) *MemCtrl {
	return h.Banks[h.amap.BankOf(addr)]
}
