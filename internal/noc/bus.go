package noc

// BusConfig parameterises the shared-bus model.
type BusConfig struct {
	Nodes int
	// ArbDelay is the arbitration overhead per granted transaction.
	ArbDelay int
	// QueueDepth bounds each node's injection queue.
	QueueDepth int
}

// DefaultBusConfig returns the configuration used by the bus ablation.
func DefaultBusConfig(nodes int) BusConfig {
	return BusConfig{Nodes: nodes, ArbDelay: 2, QueueDepth: 4}
}

// Bus models the interconnect the paper's introduction dismisses for
// large systems: a single shared medium carrying one transaction at a
// time. Bandwidth does not grow with the node count, so write-through
// traffic that a NoC absorbs in parallel serializes here — the
// historical reason WTI was considered hopeless. Round-robin
// arbitration grants one packet per bus tenure; a tenure lasts the
// arbitration delay plus one cycle per flit. Global serialization
// trivially provides per-(source,destination) ordering.
type Bus struct {
	cfg BusConfig

	queues   [][]Packet // per-source injection queues
	rr       int        // round-robin arbitration pointer
	busyTill uint64

	out       [][]busArrival
	st        Stats
	portFlits []uint64
	live      int // injected-but-undelivered packets
}

type busArrival struct {
	readyAt uint64
	pkt     Packet
}

// NewBus builds the shared bus.
func NewBus(cfg BusConfig) *Bus {
	if cfg.Nodes <= 0 {
		panic("noc: bus needs at least one node")
	}
	if cfg.ArbDelay < 0 {
		cfg.ArbDelay = 0
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	return &Bus{
		cfg:       cfg,
		queues:    make([][]Packet, cfg.Nodes),
		out:       make([][]busArrival, cfg.Nodes),
		portFlits: make([]uint64, cfg.Nodes),
	}
}

// Nodes implements Network.
func (b *Bus) Nodes() int { return b.cfg.Nodes }

// Inject implements Network.
func (b *Bus) Inject(p Packet, now uint64) bool {
	if p.Src < 0 || p.Src >= b.cfg.Nodes || p.Dst < 0 || p.Dst >= b.cfg.Nodes {
		panic("noc: packet endpoint out of range")
	}
	if len(b.queues[p.Src]) >= b.cfg.QueueDepth {
		b.st.InjectStallCycles++
		return false
	}
	b.queues[p.Src] = append(b.queues[p.Src], p)
	b.live++
	return true
}

// Tick implements Network: at most one bus tenure is granted per idle
// cycle, round-robin over requesting nodes.
func (b *Bus) Tick(now uint64) {
	if b.busyTill > now {
		return
	}
	for probe := 0; probe < b.cfg.Nodes; probe++ {
		src := (b.rr + probe) % b.cfg.Nodes
		q := b.queues[src]
		if len(q) == 0 {
			continue
		}
		p := q[0]
		copy(q, q[1:])
		b.queues[src] = q[:len(q)-1]

		flits := uint64(p.Flits())
		done := now + uint64(b.cfg.ArbDelay) + flits
		b.busyTill = done
		b.out[p.Dst] = append(b.out[p.Dst], busArrival{readyAt: done, pkt: p})

		b.st.Packets++
		b.st.TotalFlits += flits
		b.st.TotalBytes += uint64(p.Bytes)
		b.portFlits[src] += flits
		b.rr = (src + 1) % b.cfg.Nodes
		return
	}
}

// Deliverable implements Network. It runs on every endpoint's arrival
// check: hot path.
//
//lint:hot
func (b *Bus) Deliverable(node int, now uint64) bool {
	q := b.out[node]
	return len(q) != 0 && q[0].readyAt <= now
}

// Deliver implements Network. It runs on every message arrival: hot
// path.
//
//lint:hot
func (b *Bus) Deliver(node int, now uint64) (Packet, bool) {
	q := b.out[node]
	if len(q) == 0 || q[0].readyAt > now {
		return Packet{}, false
	}
	p := q[0].pkt
	copy(q, q[1:])
	b.out[node] = q[:len(q)-1]
	b.live--
	return p, true
}

// Quiet implements Network.
func (b *Bus) Quiet() bool { return b.live == 0 }

// NextWake implements Network: a nonempty request queue acts when the
// bus tenure ends (busyTill), and a delivery queue's head delivers at
// its readyAt (nondecreasing along the queue, so the head is the
// minimum).
func (b *Bus) NextWake(now uint64) uint64 {
	next := ^uint64(0)
	for i := range b.queues {
		if len(b.queues[i]) == 0 {
			continue
		}
		if b.busyTill <= now {
			return now
		}
		next = b.busyTill
		break
	}
	for i := range b.out {
		q := b.out[i]
		if len(q) == 0 {
			continue
		}
		if r := q[0].readyAt; r <= now {
			return now
		} else if r < next {
			next = r
		}
	}
	return next
}

// Stats implements Network.
func (b *Bus) Stats() Stats { return b.st }

// PortFlits implements Network.
func (b *Bus) PortFlits() []uint64 { return b.portFlits }
