package noc

import "repro/internal/sim"

// GMNConfig parameterises the Generic Micro Network model.
type GMNConfig struct {
	Nodes int
	// Delay is the minimum crossing delay in cycles, typically set
	// with MeshLatency so the crossbar mimics a 2D mesh.
	Delay int
	// FIFODepth bounds the per-destination internal FIFO (packets);
	// a full FIFO backpressures sources targeting that destination.
	FIFODepth int
	// SrcDepth bounds the per-source injection queue (packets).
	SrcDepth int
}

// DefaultGMNConfig returns the configuration used by the experiments:
// mesh-equivalent delay for the node count, 8-packet FIFOs.
func DefaultGMNConfig(nodes int) GMNConfig {
	return GMNConfig{Nodes: nodes, Delay: MeshLatency(nodes, 2, 3), FIFODepth: 8, SrcDepth: 4}
}

// GMN is the paper's Generic Micro Network: a full crossbar with a
// fixed minimum crossing delay and internal delay FIFOs. Each source
// port and each destination port serializes at one flit per cycle, and
// bounded FIFOs provide contention and backpressure. Per-
// (source,destination) packet ordering is guaranteed.
//
// The injection ports are the source queues and the arrival ports are
// the delay FIFOs; all the crossbar adds is each port's serialization
// occupancy. Room in a FIFO appears only through Deliver, so a head
// free to move but for its full FIFO parks (endpoints.park).
type GMN struct {
	endpoints
	delay uint64
	// srcBusy[i] and dstBusy[i] are the cycles port i's serializer
	// frees, held[i] one past the cycle a packet from i crossed at its
	// offer, waiting[i] the packets queued for i; ticked is one past the
	// last cycle Tick ran.
	srcBusy, dstBusy, held, waiting []uint64
	ticked, srcDepth                uint64
}

// Validate reports the first parameter no GMN can be built with.
func (c GMNConfig) Validate() error {
	return checkMin("GMN", minField{"Nodes", c.Nodes, 1}, minField{"Delay", c.Delay, 1},
		minField{"FIFODepth", c.FIFODepth, 1}, minField{"SrcDepth", c.SrcDepth, 1})
}

// NewGMN builds a Generic Micro Network, or panics with Validate's error.
func NewGMN(cfg GMNConfig) *GMN {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &GMN{
		endpoints: newEndpoints(cfg.Nodes, cfg.SrcDepth, cfg.FIFODepth),
		delay:     uint64(cfg.Delay),
		srcBusy:   make([]uint64, cfg.Nodes),
		dstBusy:   make([]uint64, cfg.Nodes),
		held:      make([]uint64, cfg.Nodes),
		waiting:   make([]uint64, cfg.Nodes),
		srcDepth:  uint64(cfg.SrcDepth),
	}
}

// Inject implements Network. A cycle's offers come in ascending source
// order before the network's turn, so an offer the Tick would move —
// its source port idle, nothing queued for its destination, room in
// that FIFO — crosses at once; any other waits in its source port. A
// crossed packet holds its slot until the cycle ends, as it would have
// until the Tick took it.
func (g *GMN) Inject(p Packet, now uint64) Fate {
	s, d := p.Src, p.Dst
	if uint(s) >= uint(len(g.inj)) || uint(d) >= uint(len(g.arr)) {
		return g.endpoints.Inject(p, now) // which panics, naming the endpoints
	}
	if q := &g.inj[s]; !q.Empty() || g.srcBusy[s] > now || now < g.ticked || g.waiting[d] != 0 || !g.arr[d].CanSend() {
		if n := uint64(q.Len()); n+1 >= g.srcDepth && (n == g.srcDepth || g.held[s] > now) {
			g.stats.InjectStallCycles++
			return Refused
		}
		if q.Send(p, now); q.Len() == 1 { // else the head's wake, or its parking, covers it
			g.injSet.Set(s)
			g.self.Wake(now)
		}
		g.waiting[d]++
	} else {
		g.held[s] = now + 1
		g.cross(s, p, now)
	}
	g.live++
	return Sent
}

// Tick implements Network: moves at most one packet per source from the
// injection queue into the crossbar, modelling source serialization and
// destination-FIFO backpressure, and folds NextWake(now+1) on the way.
func (g *GMN) Tick(now uint64) uint64 {
	g.ticked = now + 1
	next := sim.NoWake
	for i := g.injSet.Next(0); i >= 0; i = g.injSet.Next(i + 1) {
		if s := &g.inj[i]; s.Ready(now) && g.srcBusy[i] <= now {
			if d := s.Head().Dst; !g.arr[d].CanSend() {
				g.park(i, d)
				continue
			}
			p, _ := g.take(i, now)
			g.waiting[p.Dst]--
			g.cross(i, p, now)
		}
		if !g.inj[i].Empty() {
			next = min(next, max(g.srcBusy[i], now+1))
		}
	}
	return next
}

// cross moves p from source s at now: the source port serializes the
// packet, it crosses the network, and the destination port serializes it
// in turn.
func (g *GMN) cross(s int, p Packet, now uint64) {
	flits := uint64(p.Flits())
	g.srcBusy[s] = now + flits
	g.dstBusy[p.Dst] = max(now+flits+g.delay, g.dstBusy[p.Dst]) + flits
	g.arrive(p, g.dstBusy[p.Dst])
	g.count(p, flits)
	g.stats.TotalFlits += flits
}

// Reach implements Network: one flit through the source port, the
// crossing, one flit through the destination port.
//
//lint:hot
func (g *GMN) Reach(dst int, now uint64) uint64 { return now + g.delay + 2 }

// NextWake implements Network. A source queue's head moves when the
// port frees (srcBusy); the delay FIFOs are the arrival ports. A head
// already movable makes now the answer; a parked one has no say, since
// the delivery that frees its FIFO wakes the network.
func (g *GMN) NextWake(now uint64) uint64 {
	next := sim.NoWake
	for i := g.injSet.Next(0); i >= 0 && next > now; i = g.injSet.Next(i + 1) {
		next = min(next, max(g.srcBusy[i], now))
	}
	return next
}

// Each walks the complete in-flight state of the network for
// inspection (the model checker fingerprints it), all times relative to
// now: for every source port and then every destination port, port is
// called with the remaining serialization occupancy and pkt once per
// queued packet in FIFO order with the remaining delay until it is
// deliverable (always 0 at a source, where packets wait for the
// crossbar, not for a timer).
func (g *GMN) Each(now uint64, port func(dst bool, busy uint64), pkt func(ready uint64, p Packet)) {
	rel := func(t uint64) uint64 { return max(t, now) - now }
	walk := func(dst bool, ports []sim.Port[Packet], busy []uint64) {
		for i := range ports {
			port(dst, rel(busy[i]))
			ports[i].Each(func(at uint64, p Packet) { pkt(rel(at), p) })
		}
	}
	walk(false, g.inj, g.srcBusy)
	walk(true, g.arr, g.dstBusy)
}
