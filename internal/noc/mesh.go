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

// meshRouter is one router: an input queue per port (the local one is
// the node's injection port), and per output the cycle its link frees
// and the round-robin pointer.
type meshRouter struct {
	in      [numPorts]*sim.Port[Packet]
	outBusy [numPorts]uint64
	rr      [numPorts]int
}

// Mesh is a 2D mesh of store-and-forward routers with dimension-ordered
// (XY) routing, one-flit-per-cycle links, bounded input queues with
// head-of-line blocking, and round-robin output arbitration. It exists
// to validate the paper's GMN approximation: the headline experiments
// can be re-run on it to check that conclusions survive a "real" NoC.
type Mesh struct {
	endpoints
	k           int // grid side
	routerDelay uint64
	r           []meshRouter
}

// NewMesh builds a k×k mesh large enough for cfg.Nodes endpoints, one
// endpoint per router (remaining routers are unused).
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.Nodes <= 0 {
		panic("noc: mesh needs at least one node")
	}
	depth := max(cfg.QueueDepth, 1)
	k := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	m := &Mesh{
		endpoints:   newEndpoints(cfg.Nodes, depth, 0),
		k:           k,
		routerDelay: uint64(max(cfg.RouterDelay, 1)),
		r:           make([]meshRouter, k*k),
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

func (m *Mesh) coords(node int) (x, y int) { return node % m.k, node / m.k }

// route returns the output port a packet at router (x,y) bound for node
// dst should take, using XY dimension order.
func (m *Mesh) route(x, y, dst int) int {
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

// neighbor returns the router index and the input port reached by
// leaving router idx through output port out.
func (m *Mesh) neighbor(idx, out int) (next, inPort int) {
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

// Inject implements Network. The mesh counts a packet when it enters
// the source router, and its flits once per link crossed.
func (m *Mesh) Inject(p Packet, now uint64) bool {
	if !m.endpoints.Inject(p, now) {
		return false
	}
	m.count(p, uint64(p.Flits()))
	return true
}

// Tick implements Network: every router forwards at most one packet per
// output port per cycle.
func (m *Mesh) Tick(now uint64) {
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

// NextWake implements Network: the earliest head over every router
// input and every arrival port. Output-port busy windows only delay
// actions further, so ignoring them errs on the safe (earlier) side.
func (m *Mesh) NextWake(now uint64) uint64 {
	next := m.nextArrival(now)
	for idx := range m.r {
		for _, q := range m.r[idx].in {
			if next = headWake(next, q, now); next == now {
				return now
			}
		}
	}
	return next
}
