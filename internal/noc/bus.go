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
	endpoints
	arbDelay uint64
	rr       int // round-robin arbitration pointer
	busyTill uint64
}

// NewBus builds the shared bus.
func NewBus(cfg BusConfig) *Bus {
	if cfg.Nodes <= 0 {
		panic("noc: bus needs at least one node")
	}
	return &Bus{
		endpoints: newEndpoints(cfg.Nodes, max(cfg.QueueDepth, 1), 0),
		arbDelay:  uint64(max(cfg.ArbDelay, 0)),
	}
}

// Tick implements Network: at most one bus tenure is granted per idle
// cycle, round-robin over requesting nodes.
func (b *Bus) Tick(now uint64) {
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

// NextWake implements Network: a nonempty request queue acts when the
// bus tenure ends (busyTill); the delivery queues are the arrival
// ports.
func (b *Bus) NextWake(now uint64) uint64 {
	next := b.nextArrival(now)
	for i := range b.inj {
		if !b.inj[i].Empty() {
			return max(now, min(next, b.busyTill))
		}
	}
	return next
}
