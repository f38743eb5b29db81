// Package noc models the on-chip interconnect. Three interchangeable
// models are provided behind the Network interface:
//
//   - GMN: the paper's "Generic Micro Network" — a crossbar-like
//     interconnect with a configurable minimum transfer delay and
//     bounded internal FIFOs, parameterised so latency and contention
//     match a 2D mesh of the same size. This is the model used for all
//     headline experiments, exactly as in the paper.
//   - Mesh: a real 2D-mesh of store-and-forward routers with XY
//     routing, used for the ablation that checks the GMN approximation
//     does not change the study's conclusions.
//   - Bus: one shared medium, one transaction at a time — the
//     interconnect the paper's introduction dismisses, kept for the
//     ablation that shows why.
//
// All three serialize packets at one flit per cycle per port, give
// per-(source,destination) FIFO ordering (which the coherence protocols
// require), exert backpressure through bounded buffers, and account
// traffic in bytes for the paper's Figure 5.
//
// Every queue in the package is a sim.Port[Packet], and the half of a
// model that faces the nodes — injection and arrival ports, delivery,
// the traffic counters — is the one endpoints struct all three embed.
// A model's own file holds only its transit: Tick, NextWake, and the
// point at which it counts a packet. No model scans for work: the GMN
// and the bus walk one occupancy bit per non-empty injection port, kept
// where packets are enqueued and dequeued; the mesh files each router
// holding a packet on a sim.Wheel at its wake. Nor is one polled: arrive
// tells the destination's sim.Waker the cycle, Inject the network's own.
package noc

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// FlitBytes is the payload width of one flit (one cycle of link
// occupancy), matching a 32-bit VCI data path.
const FlitBytes = 4

// Packet is one NoC transfer. Payload is opaque to the network; Bytes
// determines serialization time and traffic accounting.
type Packet struct {
	Src     int
	Dst     int
	Bytes   int
	Payload any
}

// Flits returns the number of flits the packet occupies on a link.
func (p Packet) Flits() int {
	return max((p.Bytes+FlitBytes-1)/FlitBytes, 1)
}

// Stats aggregates network traffic counters. TotalBytes is the metric
// of the paper's Figure 5.
type Stats struct {
	Packets    uint64
	TotalFlits uint64
	TotalBytes uint64
	// InjectStallCycles counts cycles in which some component tried to
	// inject and was refused (backpressure).
	InjectStallCycles uint64
}

// Network is the interface between the protocol controllers and the
// interconnect model.
type Network interface {
	// Inject offers a packet at the source port at cycle now. It
	// reports whether the packet was accepted; rejection means the
	// source must retry (backpressure).
	Inject(p Packet, now uint64) bool
	// Deliver pops the next packet that has fully arrived at node by
	// cycle now, if any.
	Deliver(node int, now uint64) (Packet, bool)
	// ArrivalAt reports the first cycle Deliver(node, ·) can return a
	// packet — the head of node's arrival queue — or sim.NoWake. Pure. It
	// is the state behind the Wake below, for the node's own NextWake.
	ArrivalAt(node int) uint64
	// Attach hands the network the two edges it owes an engine that
	// remembers wakes: nodes[p] is told the cycle of every packet that
	// becomes deliverable at node p, and self — the network's own slot —
	// is woken by every accepted Inject. Unattached, it wakes nobody.
	Attach(self sim.Waker, nodes []sim.Waker)
	// MinTransit is the model's lookahead: a packet not yet in an arrival
	// port when cycle t executes is deliverable no sooner than
	// t+MinTransit(), whatever is injected at t or later — the one-flit
	// transit of an idle network. A node thus knows at t every arrival it
	// can see before then. At least 1, constant for the network's life.
	MinTransit() uint64
	// Tick advances internal state by one cycle and answers NextWake(now+1).
	Tick(now uint64) uint64
	// Quiet reports whether no packets are in flight or queued.
	Quiet() bool
	// NextWake reports the earliest cycle at or after now — the cycle
	// about to execute — at which Tick can move a queued packet (the
	// sim.Sleeper question; arrivals are the nodes' to answer, through
	// ArrivalAt): now if anything is movable, sim.NoWake if nothing is
	// queued, else the event itself — a queued head's ready cycle or the
	// cycle the link or port it needs frees, whichever is later — except
	// that a head held only by a full queue downstream has no timer and
	// keeps the answer at now. Earlier is safe, later skips live cycles.
	// Must be pure.
	NextWake(now uint64) uint64
	// Stats returns accumulated traffic counters.
	Stats() Stats
	// PortFlits returns the cumulative flits injected per source port,
	// indexed by node id. The returned slice is a live read-only view
	// (the observability sampler diffs it between intervals).
	PortFlits() []uint64
}

// endpoints is the node-facing half of every model: one bounded
// injection port per source, one arrival port per destination whose
// head is deliverable from its not-before cycle, and the counters. A
// model embeds it, so ArrivalAt, Deliver, Attach, Quiet, Stats and
// PortFlits are defined here once; its Tick moves packets from
// inj (or from wherever inj leads) to arr.
type endpoints struct {
	inj, arr []sim.Port[Packet]
	// injSet holds the non-empty ports of inj: packets enter and leave
	// them only through Inject and take (or the mesh's own dequeue).
	injSet sim.Bitset
	// self and nodes are Attach's wakers, inert until it is called.
	self      sim.Waker
	nodes     []sim.Waker
	stats     Stats
	portFlits []uint64
	// live is the injected-but-undelivered packet count.
	live int
}

// newEndpoints builds the ports for nodes endpoints; a depth of 0
// leaves the arrival ports unbounded.
func newEndpoints(nodes, injDepth, arrDepth int) endpoints {
	e := endpoints{
		inj:       make([]sim.Port[Packet], nodes),
		arr:       make([]sim.Port[Packet], nodes),
		injSet:    sim.NewBitset(nodes),
		nodes:     make([]sim.Waker, nodes),
		portFlits: make([]uint64, nodes),
	}
	for i := range e.inj {
		e.inj[i] = *sim.NewPort[Packet](injDepth)
		e.arr[i] = *sim.NewPort[Packet](arrDepth)
	}
	return e
}

// Attach implements Network.
func (e *endpoints) Attach(self sim.Waker, nodes []sim.Waker) { e.self, e.nodes = self, nodes }

// Inject implements Network: the packet waits in its source's injection
// port, movable from now.
func (e *endpoints) Inject(p Packet, now uint64) bool {
	if p.Src < 0 || p.Src >= len(e.inj) || p.Dst < 0 || p.Dst >= len(e.arr) {
		panic(fmt.Sprintf("noc: packet %d->%d outside the network's %d nodes", p.Src, p.Dst, len(e.arr)))
	}
	if !e.inj[p.Src].Send(p, now) {
		e.stats.InjectStallCycles++
		return false
	}
	e.injSet.Set(p.Src)
	e.live++
	e.self.Wake(now)
	return true
}

// take pops the head of src's injection port if it is movable at now.
func (e *endpoints) take(src int, now uint64) (Packet, bool) {
	p, ok := e.inj[src].Recv(now)
	if ok && e.inj[src].Empty() {
		e.injSet.Clear(src)
	}
	return p, ok
}

// arrive queues p at its destination's arrival port, deliverable from
// at: the one way out of every model's transit. Where the port is
// bounded (the GMN's) the caller has checked CanSend.
func (e *endpoints) arrive(p Packet, at uint64) {
	e.arr[p.Dst].Send(p, at)
	e.nodes[p.Dst].Wake(at)
}

// count charges one packet to the per-packet traffic counters, at the
// point the embedding model counts it: the GMN at crossbar entry, the
// mesh at injection, the bus at grant. TotalFlits is per link crossed
// and stays with the model.
func (e *endpoints) count(p Packet, flits uint64) {
	e.stats.Packets++
	e.stats.TotalBytes += uint64(p.Bytes)
	e.portFlits[p.Src] += flits
}

// ArrivalAt implements Network. It runs on every endpoint's arrival
// check: hot path.
//
//lint:hot
func (e *endpoints) ArrivalAt(node int) uint64 {
	if at, ok := e.arr[node].NextAt(); ok {
		return at
	}
	return sim.NoWake
}

// Deliver implements Network. It runs on every message arrival: hot
// path.
//
//lint:hot
func (e *endpoints) Deliver(node int, now uint64) (Packet, bool) {
	p, ok := e.arr[node].Recv(now)
	if ok {
		e.live--
	}
	return p, ok
}

// Quiet implements Network.
func (e *endpoints) Quiet() bool { return e.live == 0 }

// Skip makes every model a sim.Sleeper beside its NextWake: a Tick not
// executed counts nothing.
func (e *endpoints) Skip(from, to uint64) {}

// Stats implements Network.
func (e *endpoints) Stats() Stats { return e.stats }

// PortFlits implements Network.
func (e *endpoints) PortFlits() []uint64 { return e.portFlits }

// minField is one configuration value with the least it may be.
type minField struct {
	name   string
	v, min int
}

// checkMin is the three configs' Validate: an error naming the first
// field below its minimum.
func checkMin(model string, fields ...minField) error {
	for _, f := range fields {
		if f.v < f.min {
			return fmt.Errorf("noc: %s %s = %d, need at least %d", model, f.name, f.v, f.min)
		}
	}
	return nil
}

// DropNotifier is the optional sender-side loss-notification interface
// a Network may implement (the fault-injection wrapper does; the plain
// models never drop and so never implement it). A rejected Inject is
// normally backpressure — the packet was refused and may be re-offered
// any time. When the network instead *lost* the transfer (a modelled
// link fault), TookDrop reports it: the sender's link layer detected
// the corruption (CRC/NACK, as real NoC retransmission layers do) and
// must retransmit under its retry policy rather than plain retry.
type DropNotifier interface {
	// TookDrop reports — and clears — whether the most recent rejected
	// Inject from src was a fault drop rather than backpressure.
	TookDrop(src int) bool
}

// MeshLatency returns the default minimum crossing delay, in cycles,
// used by the GMN to mimic a 2D mesh interconnecting `nodes` endpoints:
// the average Manhattan distance of a square k×k mesh (2k/3) times the
// per-hop router delay, plus the fixed entry/exit overhead. This stands
// in for the paper's (OCR-garbled) Table 2 latency formula.
func MeshLatency(nodes, perHop, overhead int) int {
	k := int(math.Ceil(math.Sqrt(float64(nodes))))
	return max((2*k+2)/3, 1)*perHop + overhead
}
