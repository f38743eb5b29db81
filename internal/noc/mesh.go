package noc

import (
	"math"

	"repro/internal/sim"
)

// MeshConfig parameterises the 2D-mesh router network.
type MeshConfig struct {
	Nodes int
	// RouterDelay is the per-hop pipeline delay in cycles.
	RouterDelay int
	// QueueDepth bounds each router input queue (packets).
	QueueDepth int
}

// DefaultMeshConfig returns the mesh configuration used by the GMN
// ablation experiment.
func DefaultMeshConfig(nodes int) MeshConfig {
	return MeshConfig{Nodes: nodes, RouterDelay: 2, QueueDepth: 4}
}

// Mesh port indices.
const (
	portLocal = iota
	portEast
	portWest
	portNorth
	portSouth
	numPorts
)

// opposite[out] is the input port the link from output out arrives at.
var opposite = [numPorts]int{portLocal, portWest, portEast, portSouth, portNorth}

// meshRouter is one router: an input queue per port (the local one is
// the node's injection port), and per output the cycle its link frees
// and the round-robin pointer.
type meshRouter struct {
	in      [numPorts]*sim.Port[Packet]
	outBusy [numPorts]uint64
	rr      [numPorts]int
	// want[in] is the output the head of input in routes to (numPorts
	// while the input is empty), computed when a packet becomes the head —
	// enqueued into an empty input, or exposed by the Recv in front of
	// it — not on every arbitration probe.
	want [numPorts]uint8
	// wake is the first cycle Tick can do anything here: the minimum
	// over the non-empty inputs of max(head's ready cycle, the cycle its
	// wanted output frees), sim.NoWake when all are empty. Tick recomputes
	// it after a visit; an enqueue that makes a new head lowers it.
	wake uint64
}

// Mesh is a 2D mesh of store-and-forward routers with dimension-ordered
// (XY) routing, one-flit-per-cycle links, bounded input queues with
// head-of-line blocking, and round-robin output arbitration. It exists
// to validate the paper's GMN approximation: the headline experiments
// can be re-run on it to check that conclusions survive a "real" NoC.
type Mesh struct {
	endpoints
	k           int           // grid side
	step        [numPorts]int // step[out]: index distance to the router output out leads to
	routerDelay uint64
	r           []meshRouter
	// active holds the routers with a queued packet (wake != sim.NoWake).
	active sim.Bitset
}

// Validate reports the first parameter no mesh can be built with.
func (c MeshConfig) Validate() error {
	return checkMin("mesh", minField{"Nodes", c.Nodes, 1}, minField{"RouterDelay", c.RouterDelay, 1},
		minField{"QueueDepth", c.QueueDepth, 1})
}

// NewMesh builds a k×k mesh large enough for cfg.Nodes endpoints, one
// endpoint per router (remaining routers are unused), or panics with
// Validate's error.
func NewMesh(cfg MeshConfig) *Mesh {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	k := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	m := &Mesh{
		endpoints:   newEndpoints(cfg.Nodes, cfg.QueueDepth, 0),
		k:           k,
		step:        [numPorts]int{0, 1, -1, -k, k},
		routerDelay: uint64(cfg.RouterDelay),
		r:           make([]meshRouter, k*k),
		active:      sim.NewBitset(k * k),
	}
	for idx := range m.r {
		r := &m.r[idx]
		r.wake = sim.NoWake
		for in := range r.in {
			r.want[in] = numPorts
			if in == portLocal && idx < cfg.Nodes {
				r.in[in] = &m.inj[idx]
			} else {
				r.in[in] = sim.NewPort[Packet](cfg.QueueDepth)
			}
		}
	}
	return m
}

// route returns the output port a packet at router idx bound for node
// dst should take, using XY dimension order.
func (m *Mesh) route(idx, dst int) uint8 {
	switch dx, dy := dst%m.k-idx%m.k, dst/m.k-idx/m.k; {
	case dx > 0:
		return portEast
	case dx < 0:
		return portWest
	case dy > 0:
		return portSouth
	case dy < 0:
		return portNorth
	}
	return portLocal
}

// Inject implements Network. The mesh counts a packet when it enters
// the source router, and its flits once per link crossed.
func (m *Mesh) Inject(p Packet, now uint64) bool {
	if !m.endpoints.Inject(p, now) {
		return false
	}
	m.count(p, uint64(p.Flits()))
	m.enqueued(p.Src, portLocal, now)
	return true
}

// enqueued keeps router idx's books for a packet just sent into its
// input in, movable from at. Only a new head can bring the router's
// wake forward: behind another packet it waits for that one's Recv.
func (m *Mesh) enqueued(idx, in int, at uint64) {
	r := &m.r[idx]
	m.active.Set(idx)
	if q := r.in[in]; q.Len() == 1 {
		r.want[in] = m.route(idx, q.Head().Dst)
		r.wake = min(r.wake, max(at, r.outBusy[r.want[in]]))
	}
}

// Tick implements Network: every router forwards at most one packet per
// output port per cycle. Only routers holding a packet whose wake has
// come are visited, in ascending index as a scan would: whether a
// downstream queue is full depends on whether that router has already
// dequeued this cycle. (One that gets its first packet during the walk
// may or may not be reached; the packet cannot move before now+1.) It
// folds NextWake(now+1) from the routers it leaves active or reaches behind.
func (m *Mesh) Tick(now uint64) uint64 {
	wake := sim.NoWake
	for idx := m.active.Next(0); idx >= 0; idx = m.active.Next(idx + 1) {
		r := &m.r[idx]
		if r.wake > now {
			wake = min(wake, r.wake)
			continue
		}
		// Outputs no head routes to are not arbitrated (bit numPorts
		// stands for the empty inputs).
		var wanted uint8
		for _, w := range r.want {
			wanted |= 1 << w
		}
		for out := uint8(0); out < numPorts; out++ {
			if wanted>>out&1 == 0 || r.outBusy[out] > now {
				continue
			}
			// Round-robin over input ports for this output.
			for probe := 0; probe < numPorts; probe++ {
				in := r.rr[out] + probe
				if in >= numPorts {
					in -= numPorts
				}
				q := r.in[in]
				if r.want[in] != out || !q.Ready(now) {
					continue
				}
				head := q.Head()
				flits := uint64(head.Flits())
				if out == portLocal {
					// Eject to the endpoint.
					m.arrive(*head, now+flits)
				} else {
					next, inPort, at := idx+m.step[out], opposite[out], now+flits+m.routerDelay
					if !m.r[next].in[inPort].Send(*head, at) {
						continue // downstream full
					}
					m.enqueued(next, inPort, at)
					if next < idx {
						wake = min(wake, max(m.r[next].wake, now+1))
					}
					m.stats.TotalFlits += flits
				}
				r.outBusy[out] = now + flits
				q.Recv(now)
				r.rr[out] = (in + 1) % numPorts
				// The packet behind becomes the head at once: an output
				// later in this visit may already grant it.
				r.want[in] = numPorts
				if !q.Empty() {
					r.want[in] = m.route(idx, q.Head().Dst)
					wanted |= 1 << r.want[in]
				} else if in == portLocal {
					m.injSet.Clear(idx)
				}
				break
			}
		}
		// A head left ready with its output free was refused by a full
		// downstream queue or exposed after its output's turn. Neither has
		// a timer: the wake stays in the past and the next Tick looks again.
		r.wake = sim.NoWake
		for in, q := range r.in {
			if at, ok := q.NextAt(); ok {
				r.wake = min(r.wake, max(at, r.outBusy[r.want[in]]))
			}
		}
		if r.wake == sim.NoWake {
			m.active.Clear(idx)
		}
		wake = min(wake, max(r.wake, now+1))
	}
	return wake
}

// MinTransit implements Network: a packet already at its last router is
// one flit from ejection.
func (m *Mesh) MinTransit() uint64 { return 1 }

// NextWake implements Network: the earliest router wake, which is the
// next cycle a Tick can do anything — a busy output link is waited out,
// not polled.
func (m *Mesh) NextWake(now uint64) uint64 {
	next := sim.NoWake
	for idx := m.active.Next(0); idx >= 0 && next > now; idx = m.active.Next(idx + 1) {
		next = min(next, max(m.r[idx].wake, now))
	}
	return next
}
