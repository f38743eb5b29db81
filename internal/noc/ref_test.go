package noc

import (
	"math"

	"repro/internal/sim"
)

// The reference models: the three networks as they stood before the
// occupancy sets and router wake times (PR 18), kept verbatim — every
// Tick and NextWake scans every port and every router input — and
// renamed ref*. They are what TestDifferentialRig holds the real models
// to, packet for packet and cycle for cycle; they share nothing with
// them but Packet, Stats, the config structs and the port constants.
// Do not optimise them. Their NextWake still answers for the arrivals
// too, as every model's did until the engine began to remember wakes;
// wholeWake puts a real model's answer back together for comparison.

type refEndpoints struct {
	inj, arr  []sim.Port[Packet]
	stats     Stats
	portFlits []uint64
	live      int
}

func newRefEndpoints(nodes, injDepth, arrDepth int) refEndpoints {
	e := refEndpoints{
		inj:       make([]sim.Port[Packet], nodes),
		arr:       make([]sim.Port[Packet], nodes),
		portFlits: make([]uint64, nodes),
	}
	for i := range e.inj {
		e.inj[i] = *sim.NewPort[Packet](injDepth)
		e.arr[i] = *sim.NewPort[Packet](arrDepth)
	}
	return e
}

func (e *refEndpoints) Inject(p Packet, now uint64) Fate {
	if p.Src < 0 || p.Src >= len(e.inj) || p.Dst < 0 || p.Dst >= len(e.arr) {
		panic("noc: packet endpoint out of range")
	}
	if !e.inj[p.Src].Send(p, now) {
		e.stats.InjectStallCycles++
		return Refused
	}
	e.live++
	return Sent
}

func (e *refEndpoints) count(p Packet, flits uint64) {
	e.stats.Packets++
	e.stats.TotalBytes += uint64(p.Bytes)
	e.portFlits[p.Src] += flits
}

func (e *refEndpoints) ArrivalAt(node int) uint64 {
	if at, ok := e.arr[node].NextAt(); ok {
		return at
	}
	return sim.NoWake
}

func (e *refEndpoints) Attach(self sim.Waker, nodes []sim.Waker) {}

// Reach is the interface's floor: nobody looks ahead on a reference.
func (e *refEndpoints) Reach(dst int, now uint64) uint64 { return now + 1 }

// wholeWake is the question the networks answered until arrivals became
// the nodes' to answer for: n's own NextWake folded with every node's
// arrival, now if one is already deliverable.
func wholeWake(n Network, now uint64) uint64 {
	next := n.NextWake(now)
	for p := range n.PortFlits() {
		next = min(next, max(n.ArrivalAt(p), now))
	}
	return next
}

func (e *refEndpoints) Deliver(node int, now uint64) (Packet, bool) {
	p, ok := e.arr[node].Recv(now)
	if ok {
		e.live--
	}
	return p, ok
}

func (e *refEndpoints) Quiet() bool         { return e.live == 0 }
func (e *refEndpoints) Stats() Stats        { return e.stats }
func (e *refEndpoints) PortFlits() []uint64 { return e.portFlits }

func (e *refEndpoints) nextArrival(now uint64) uint64 {
	next := sim.NoWake
	for i := range e.arr {
		if next = refHeadWake(next, &e.arr[i], now); next == now {
			break
		}
	}
	return next
}

func refHeadWake(next uint64, q *sim.Port[Packet], now uint64) uint64 {
	at, ok := q.NextAt()
	if !ok {
		return next
	}
	return min(next, max(at, now))
}

type refGMN struct {
	refEndpoints
	delay            uint64
	srcBusy, dstBusy []uint64
}

func newRefGMN(cfg GMNConfig) *refGMN {
	return &refGMN{
		refEndpoints: newRefEndpoints(cfg.Nodes, max(cfg.SrcDepth, 1), max(cfg.FIFODepth, 1)),
		delay:        uint64(max(cfg.Delay, 1)),
		srcBusy:      make([]uint64, cfg.Nodes),
		dstBusy:      make([]uint64, cfg.Nodes),
	}
}

func (g *refGMN) Tick(now uint64) uint64 { g.tick(now); return g.NextWake(now + 1) }

func (g *refGMN) tick(now uint64) {
	for i := range g.inj {
		s := &g.inj[i]
		if !s.Ready(now) || g.srcBusy[i] > now {
			continue
		}
		d := &g.arr[s.Head().Dst]
		if !d.CanSend() {
			continue // destination FIFO full: head-of-line blocking
		}
		p, _ := s.Recv(now)
		flits := uint64(p.Flits())
		depart := now + flits
		g.srcBusy[i] = depart
		arrive := depart + g.delay
		arrive = max(arrive, g.dstBusy[p.Dst])
		ready := arrive + flits
		g.dstBusy[p.Dst] = ready
		d.Send(p, ready)

		g.count(p, flits)
		g.stats.TotalFlits += flits
	}
}

func (g *refGMN) NextWake(now uint64) uint64 {
	next := g.nextArrival(now)
	for i := range g.inj {
		if g.inj[i].Empty() {
			continue
		}
		if g.srcBusy[i] <= now {
			return now
		}
		next = min(next, g.srcBusy[i])
	}
	return next
}

type refMeshRouter struct {
	in      [numPorts]*sim.Port[Packet]
	outBusy [numPorts]uint64
	rr      [numPorts]int
}

type refMesh struct {
	refEndpoints
	k           int
	routerDelay uint64
	r           []refMeshRouter
}

func newRefMesh(cfg MeshConfig) *refMesh {
	depth := max(cfg.QueueDepth, 1)
	k := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	m := &refMesh{
		refEndpoints: newRefEndpoints(cfg.Nodes, depth, 0),
		k:            k,
		routerDelay:  uint64(max(cfg.RouterDelay, 1)),
		r:            make([]refMeshRouter, k*k),
	}
	for idx := range m.r {
		for in := range m.r[idx].in {
			if in == portLocal && idx < cfg.Nodes {
				m.r[idx].in[in] = &m.inj[idx]
			} else {
				m.r[idx].in[in] = sim.NewPort[Packet](depth)
			}
		}
	}
	return m
}

func (m *refMesh) coords(node int) (x, y int) { return node % m.k, node / m.k }

func (m *refMesh) route(x, y, dst int) int {
	dx, dy := m.coords(dst)
	switch {
	case dx > x:
		return portEast
	case dx < x:
		return portWest
	case dy > y:
		return portSouth
	case dy < y:
		return portNorth
	default:
		return portLocal
	}
}

func (m *refMesh) neighbor(idx, out int) (next, inPort int) {
	switch out {
	case portEast:
		return idx + 1, portWest
	case portWest:
		return idx - 1, portEast
	case portSouth:
		return idx + m.k, portNorth
	case portNorth:
		return idx - m.k, portSouth
	}
	panic("noc: neighbor of local port")
}

func (m *refMesh) Inject(p Packet, now uint64) Fate {
	if m.refEndpoints.Inject(p, now) != Sent {
		return Refused
	}
	m.count(p, uint64(p.Flits()))
	return Sent
}

func (m *refMesh) Tick(now uint64) uint64 { m.tick(now); return m.NextWake(now + 1) }

func (m *refMesh) tick(now uint64) {
	for idx := range m.r {
		r := &m.r[idx]
		x, y := idx%m.k, idx/m.k
		for out := 0; out < numPorts; out++ {
			if r.outBusy[out] > now {
				continue
			}
			// Round-robin over input ports for this output.
			for probe := 0; probe < numPorts; probe++ {
				in := (r.rr[out] + probe) % numPorts
				q := r.in[in]
				if !q.Ready(now) {
					continue
				}
				head := q.Head()
				if m.route(x, y, head.Dst) != out {
					continue
				}
				flits := uint64(head.Flits())
				if out == portLocal {
					// Eject to the endpoint.
					m.arr[head.Dst].Send(*head, now+flits)
				} else {
					next, inPort := m.neighbor(idx, out)
					if !m.r[next].in[inPort].Send(*head, now+flits+m.routerDelay) {
						continue // downstream full
					}
					m.stats.TotalFlits += flits
				}
				r.outBusy[out] = now + flits
				q.Recv(now)
				r.rr[out] = (in + 1) % numPorts
				break
			}
		}
	}
}

func (m *refMesh) NextWake(now uint64) uint64 {
	next := m.nextArrival(now)
	for idx := range m.r {
		for _, q := range m.r[idx].in {
			if next = refHeadWake(next, q, now); next == now {
				return now
			}
		}
	}
	return next
}

type refBus struct {
	refEndpoints
	arbDelay uint64
	rr       int
	busyTill uint64
}

func newRefBus(cfg BusConfig) *refBus {
	return &refBus{
		refEndpoints: newRefEndpoints(cfg.Nodes, max(cfg.QueueDepth, 1), 0),
		arbDelay:     uint64(max(cfg.ArbDelay, 0)),
	}
}

func (b *refBus) Tick(now uint64) uint64 { b.tick(now); return b.NextWake(now + 1) }

func (b *refBus) tick(now uint64) {
	if b.busyTill > now {
		return
	}
	for probe := range b.inj {
		src := (b.rr + probe) % len(b.inj)
		p, ok := b.inj[src].Recv(now)
		if !ok {
			continue
		}
		flits := uint64(p.Flits())
		b.busyTill = now + b.arbDelay + flits
		b.arr[p.Dst].Send(p, b.busyTill)

		b.count(p, flits)
		b.stats.TotalFlits += flits
		b.rr = (src + 1) % len(b.inj)
		return
	}
}

func (b *refBus) NextWake(now uint64) uint64 {
	next := b.nextArrival(now)
	for i := range b.inj {
		if !b.inj[i].Empty() {
			return max(now, min(next, b.busyTill))
		}
	}
	return next
}
