package noc

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
	return GMNConfig{
		Nodes:     nodes,
		Delay:     MeshLatency(nodes, 2, 3),
		FIFODepth: 8,
		SrcDepth:  4,
	}
}

// GMN is the paper's Generic Micro Network: a full crossbar with a
// fixed minimum crossing delay and internal delay FIFOs. Each source
// port and each destination port serializes at one flit per cycle, and
// bounded FIFOs provide contention and backpressure. Per-
// (source,destination) packet ordering is guaranteed.
type GMN struct {
	cfg GMNConfig

	src []gmnSrc
	dst []gmnDst

	stats     Stats
	portFlits []uint64
	// inFlight is the injected-but-undelivered packet count.
	inFlight int
}

type gmnSrc struct {
	queue     []Packet
	busyUntil uint64
}

type gmnDst struct {
	queue     []gmnArrival
	busyUntil uint64
}

type gmnArrival struct {
	readyAt uint64
	pkt     Packet
}

// NewGMN builds a Generic Micro Network.
func NewGMN(cfg GMNConfig) *GMN {
	if cfg.Nodes <= 0 {
		panic("noc: GMN needs at least one node")
	}
	if cfg.Delay < 1 {
		cfg.Delay = 1
	}
	if cfg.FIFODepth < 1 {
		cfg.FIFODepth = 1
	}
	if cfg.SrcDepth < 1 {
		cfg.SrcDepth = 1
	}
	return &GMN{
		cfg:       cfg,
		src:       make([]gmnSrc, cfg.Nodes),
		dst:       make([]gmnDst, cfg.Nodes),
		portFlits: make([]uint64, cfg.Nodes),
	}
}

// Nodes implements Network.
func (g *GMN) Nodes() int { return g.cfg.Nodes }

// Inject implements Network.
func (g *GMN) Inject(p Packet, now uint64) bool {
	if p.Src < 0 || p.Src >= g.cfg.Nodes || p.Dst < 0 || p.Dst >= g.cfg.Nodes {
		panic("noc: packet endpoint out of range")
	}
	s := &g.src[p.Src]
	if len(s.queue) >= g.cfg.SrcDepth {
		g.stats.InjectStallCycles++
		return false
	}
	s.queue = append(s.queue, p)
	g.inFlight++
	return true
}

// Tick implements Network: moves at most one packet per source from the
// injection queue into the crossbar, modelling source serialization and
// destination-FIFO backpressure.
func (g *GMN) Tick(now uint64) {
	for i := range g.src {
		s := &g.src[i]
		if len(s.queue) == 0 || s.busyUntil > now {
			continue
		}
		p := s.queue[0]
		d := &g.dst[p.Dst]
		if len(d.queue) >= g.cfg.FIFODepth {
			continue // destination FIFO full: head-of-line blocking
		}
		flits := uint64(p.Flits())
		// The source port serializes the packet...
		depart := now + flits
		s.busyUntil = depart
		// ...it crosses the network...
		arrive := depart + uint64(g.cfg.Delay)
		// ...and the destination port serializes it in turn.
		if arrive < d.busyUntil {
			arrive = d.busyUntil
		}
		ready := arrive + flits
		d.busyUntil = ready
		d.queue = append(d.queue, gmnArrival{readyAt: ready, pkt: p})

		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]

		g.stats.Packets++
		g.stats.TotalFlits += flits
		g.stats.TotalBytes += uint64(p.Bytes)
		g.portFlits[i] += flits
	}
}

// Deliverable implements Network. It runs on every endpoint's arrival
// check: hot path.
//
//lint:hot
func (g *GMN) Deliverable(node int, now uint64) bool {
	d := &g.dst[node]
	return len(d.queue) != 0 && d.queue[0].readyAt <= now
}

// Deliver implements Network. It runs on every message arrival: hot
// path.
//
//lint:hot
func (g *GMN) Deliver(node int, now uint64) (Packet, bool) {
	d := &g.dst[node]
	if len(d.queue) == 0 || d.queue[0].readyAt > now {
		return Packet{}, false
	}
	p := d.queue[0].pkt
	copy(d.queue, d.queue[1:])
	d.queue = d.queue[:len(d.queue)-1]
	g.inFlight--
	return p, true
}

// Quiet implements Network.
func (g *GMN) Quiet() bool { return g.inFlight == 0 }

// NextWake implements Network. A source queue's head moves when the
// port frees (busyUntil); a destination queue's head delivers at its
// readyAt, which is nondecreasing along the queue, so the head is the
// queue's minimum. A head already movable or deliverable makes now the
// answer — the destination-FIFO-full case included, where staying
// awake is the safe conservative choice.
func (g *GMN) NextWake(now uint64) uint64 {
	next := ^uint64(0)
	for i := range g.src {
		s := &g.src[i]
		if len(s.queue) == 0 {
			continue
		}
		if s.busyUntil <= now {
			return now
		}
		if s.busyUntil < next {
			next = s.busyUntil
		}
	}
	for i := range g.dst {
		d := &g.dst[i]
		if len(d.queue) == 0 {
			continue
		}
		if r := d.queue[0].readyAt; r <= now {
			return now
		} else if r < next {
			next = r
		}
	}
	return next
}

// GMNPortState is one port's queue contents for inspection, with times
// expressed relative to the snapshot cycle.
type GMNPortState struct {
	// Busy is the remaining serialization occupancy of the port.
	Busy uint64
	// Queue holds the waiting packets; Ready is the remaining delay
	// until the packet is deliverable (always 0 for source queues,
	// where packets wait for the crossbar, not for a timer).
	Queue []GMNQueuedPacket
}

// GMNQueuedPacket is one in-flight packet for inspection.
type GMNQueuedPacket struct {
	Ready uint64
	Pkt   Packet
}

// Snapshot returns the complete in-flight state of the network —
// injection queues, delay-FIFO contents, and port occupancies — with
// all times relative to now. The model checker fingerprints it; the
// runtime invariant checker enumerates the packets.
func (g *GMN) Snapshot(now uint64) (src, dst []GMNPortState) {
	rel := func(t uint64) uint64 {
		if t <= now {
			return 0
		}
		return t - now
	}
	src = make([]GMNPortState, len(g.src))
	for i := range g.src {
		s := &g.src[i]
		src[i].Busy = rel(s.busyUntil)
		for _, p := range s.queue {
			src[i].Queue = append(src[i].Queue, GMNQueuedPacket{Pkt: p})
		}
	}
	dst = make([]GMNPortState, len(g.dst))
	for i := range g.dst {
		d := &g.dst[i]
		dst[i].Busy = rel(d.busyUntil)
		for _, a := range d.queue {
			dst[i].Queue = append(dst[i].Queue, GMNQueuedPacket{Ready: rel(a.readyAt), Pkt: a.pkt})
		}
	}
	return src, dst
}

// Stats implements Network.
func (g *GMN) Stats() Stats { return g.stats }

// PortFlits implements Network.
func (g *GMN) PortFlits() []uint64 { return g.portFlits }
