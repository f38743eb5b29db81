package noc

import "repro/internal/sim"

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

// Validate reports the first parameter no bus can be built with.
func (c BusConfig) Validate() error {
	return checkMin("bus", minField{"Nodes", c.Nodes, 1}, minField{"ArbDelay", c.ArbDelay, 0},
		minField{"QueueDepth", c.QueueDepth, 1})
}

// NewBus builds the shared bus, or panics with Validate's error.
func NewBus(cfg BusConfig) *Bus {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Bus{
		endpoints: newEndpoints(cfg.Nodes, cfg.QueueDepth, 0),
		arbDelay:  uint64(cfg.ArbDelay),
	}
}

// Inject implements Network, marking the port in injSet.
func (b *Bus) Inject(p Packet, now uint64) Fate {
	f := b.endpoints.Inject(p, now)
	if f == Sent {
		b.injSet.Set(p.Src)
	}
	return f
}

// Tick implements Network: at most one bus tenure is granted per idle
// cycle, round-robin over requesting nodes.
func (b *Bus) Tick(now uint64) uint64 {
	// Round-robin: requesters from rr up, then from 0 up to it.
	for _, from := range [2]int{b.rr, 0} {
		for src := b.injSet.Next(from); src >= 0 && b.busyTill <= now; src = b.injSet.Next(src + 1) {
			p, ok := b.take(src, now)
			if !ok {
				continue
			}
			flits := uint64(p.Flits())
			b.busyTill = now + b.arbDelay + flits
			b.arrive(p, b.busyTill)
			b.count(p, flits)
			b.stats.TotalFlits += flits
			b.rr = (src + 1) % len(b.inj)
		}
	}
	return b.NextWake(now + 1)
}

// Reach implements Network: a one-flit tenure.
//
//lint:hot
func (b *Bus) Reach(dst int, now uint64) uint64 { return now + b.arbDelay + 1 }

// NextWake implements Network: a nonempty request queue acts when the
// bus tenure ends (busyTill); the delivery queues are the arrival
// ports.
func (b *Bus) NextWake(now uint64) uint64 {
	if b.injSet.Next(0) >= 0 {
		return max(now, b.busyTill)
	}
	return sim.NoWake
}
