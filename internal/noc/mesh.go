package noc

import (
	"math"
	"math/bits"

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
	rr      [numPorts]uint8
	// want[in] and at[in] are the output the head of input in routes to
	// and its not-before cycle (numPorts and sim.NoWake while the input is
	// empty), set when a packet becomes the head — enqueued into an empty
	// input, or exposed by the Recv in front of it.
	want [numPorts]uint8
	at   [numPorts]uint64
	// wake is the first cycle Tick can do anything here: the minimum
	// over the non-empty inputs of max(at, the cycle the wanted output
	// frees), sim.NoWake when all are empty. Tick recomputes it after a
	// visit; an enqueue that makes a new head lowers it.
	wake uint64
}

// Mesh is a 2D mesh of store-and-forward routers with dimension-ordered
// (XY) routing, one-flit-per-cycle links, bounded input queues with
// head-of-line blocking, and round-robin output arbitration. It exists
// to validate the paper's GMN approximation: the headline experiments
// can be re-run on it to check that conclusions survive a "real" NoC.
//
// Its routers sit on a calendar: every router holding a packet is filed
// in wheel at max(wake, ticked), ticked being the first cycle whose
// bucket Tick has not drained, and soon is the least such cycle.
type Mesh struct {
	endpoints
	k            int           // grid side
	step         [numPorts]int // step[out]: index distance to the router output out leads to
	routerDelay  uint64
	r            []meshRouter
	wheel        sim.Wheel
	due          sim.Bitset
	ticked, soon uint64
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
		wheel:       sim.NewWheel(k * k),
		due:         sim.NewBitset(k * k),
		soon:        sim.NoWake,
	}
	for idx := range m.r {
		r := &m.r[idx]
		r.wake = sim.NoWake
		for in := range r.in {
			r.want[in], r.at[in] = numPorts, sim.NoWake
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
	if q := r.in[in]; q.Len() == 1 {
		r.want[in], r.at[in] = m.route(idx, q.Head().Dst), at
		if w := max(at, r.outBusy[r.want[in]]); w < r.wake {
			r.wake = w
			m.wheel.File(idx, max(w, m.ticked))
			m.soon = min(m.soon, max(w, m.ticked))
		}
	}
}

// Tick implements Network: every router forwards at most one packet per
// output port per cycle. It drains the calendar's buckets up to now and
// visits the routers whose wake has come in ascending index, as a scan
// would: whether a downstream queue is full depends on whether that
// router has already dequeued this cycle. (One that gets its first
// packet during the walk is filed for later: the packet cannot move
// before now+1.) A router drained early is filed again at its
// wake, a visited one at its next wake but no sooner than now+1: a head
// refused by a full downstream queue has no timer and is polled.
func (m *Mesh) Tick(now uint64) uint64 {
	for t := max(m.ticked, now-min(now, 63)); t <= now; t++ {
		m.wheel.Drain(t, m.due)
	}
	m.ticked = now + 1
	for idx := m.due.Next(0); idx >= 0; idx = m.due.Next(idx + 1) {
		m.due.Clear(idx)
		if r := &m.r[idx]; r.wake > now { // stale, or filed 64 cycles early
			m.wheel.File(idx, r.wake)
		} else {
			m.visit(idx, r, now)
			m.wheel.File(idx, max(r.wake, now+1))
		}
	}
	// The answer is the first bucket ahead filed with a router due by
	// then; past the wheel's reach, the least wake.
	for t := now + 1; t <= now+64; t++ {
		for k := range m.due {
			for word := m.wheel[k<<6|int(t&63)]; word != 0; word &= word - 1 {
				if m.r[k<<6|bits.TrailingZeros64(word)].wake <= t {
					m.soon = t
					return t
				}
			}
		}
	}
	m.soon = sim.NoWake
	for idx := range m.r {
		m.soon = min(m.soon, m.r[idx].wake)
	}
	return m.soon
}

// visit arbitrates router idx at now. req[out] holds the inputs whose
// head is ready and routes to out; each output grants the first
// requester at or after its round-robin pointer. A full downstream queue
// ends the output's turn: every requester of it is bound for that queue.
// A head exposed by a grant may be granted by a later output.
func (m *Mesh) visit(idx int, r *meshRouter, now uint64) {
	var req [numPorts]uint16
	for in, at := range r.at {
		if at <= now {
			req[r.want[in]] |= 1 << in
		}
	}
	for out := uint8(0); out < numPorts; out++ {
		if req[out] == 0 || r.outBusy[out] > now {
			continue
		}
		in := (int(r.rr[out]) + bits.TrailingZeros16((req[out]|req[out]<<numPorts)>>r.rr[out])) % numPorts
		q := r.in[in]
		head := q.Head()
		flits := uint64(head.Flits())
		if out == portLocal {
			m.arrive(*head, now+flits) // eject to the endpoint
		} else {
			next, inPort, at := idx+m.step[out], opposite[out], now+flits+m.routerDelay
			if !m.r[next].in[inPort].Send(*head, at) {
				continue
			}
			m.enqueued(next, inPort, at)
			m.stats.TotalFlits += flits
		}
		r.outBusy[out] = now + flits
		q.Recv(now)
		r.rr[out] = uint8(in+1) % numPorts
		r.want[in], r.at[in] = numPorts, sim.NoWake
		if at, ok := q.NextAt(); ok {
			r.want[in], r.at[in] = m.route(idx, q.Head().Dst), at
			if at <= now && r.want[in] > out {
				req[r.want[in]] |= 1 << in
			}
		} else if in == portLocal {
			m.injSet.Clear(idx)
		}
	}
	// A head left ready with its output free was refused by a full
	// downstream queue or exposed after its output's turn. Neither has a
	// timer: the wake stays in the past and the next Tick looks again.
	r.wake = sim.NoWake
	for in, at := range r.at {
		if at != sim.NoWake {
			r.wake = min(r.wake, max(at, r.outBusy[r.want[in]]))
		}
	}
}

// MinTransit implements Network: a packet already at its last router is
// one flit from ejection.
func (m *Mesh) MinTransit() uint64 { return 1 }

// NextWake implements Network: the earliest router wake, which is the
// next cycle a Tick can do anything — a busy output link is waited out,
// not polled. Tick and every enqueue keep it in soon.
func (m *Mesh) NextWake(now uint64) uint64 { return max(m.soon, now) }
