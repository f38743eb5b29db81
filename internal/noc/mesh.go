package noc

import "math"

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

type meshEntry struct {
	readyAt uint64
	pkt     Packet
}

type meshRouter struct {
	in      [numPorts][]meshEntry
	outBusy [numPorts]uint64
	rr      [numPorts]int
}

// Mesh is a 2D mesh of store-and-forward routers with dimension-ordered
// (XY) routing, one-flit-per-cycle links, bounded input queues with
// head-of-line blocking, and round-robin output arbitration. It exists
// to validate the paper's GMN approximation: the headline experiments
// can be re-run on it to check that conclusions survive a "real" NoC.
type Mesh struct {
	cfg       MeshConfig
	k         int // grid side
	r         []meshRouter
	out       [][]meshEntry // per-node delivered packets
	st        Stats
	portFlits []uint64
	live      int // injected-but-undelivered packets
}

// NewMesh builds a k×k mesh large enough for cfg.Nodes endpoints, one
// endpoint per router (remaining routers are unused).
func NewMesh(cfg MeshConfig) *Mesh {
	if cfg.Nodes <= 0 {
		panic("noc: mesh needs at least one node")
	}
	if cfg.RouterDelay < 1 {
		cfg.RouterDelay = 1
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 1
	}
	k := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	m := &Mesh{
		cfg:       cfg,
		k:         k,
		r:         make([]meshRouter, k*k),
		out:       make([][]meshEntry, cfg.Nodes),
		portFlits: make([]uint64, cfg.Nodes),
	}
	return m
}

// Nodes implements Network.
func (m *Mesh) Nodes() int { return m.cfg.Nodes }

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

// Inject implements Network.
func (m *Mesh) Inject(p Packet, now uint64) bool {
	if p.Src < 0 || p.Src >= m.cfg.Nodes || p.Dst < 0 || p.Dst >= m.cfg.Nodes {
		panic("noc: packet endpoint out of range")
	}
	r := &m.r[p.Src]
	if len(r.in[portLocal]) >= m.cfg.QueueDepth {
		m.st.InjectStallCycles++
		return false
	}
	r.in[portLocal] = append(r.in[portLocal], meshEntry{readyAt: now, pkt: p})
	m.live++
	m.st.Packets++
	m.st.TotalBytes += uint64(p.Bytes)
	m.portFlits[p.Src] += uint64(p.Flits())
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
			granted := false
			for probe := 0; probe < numPorts && !granted; probe++ {
				in := (r.rr[out] + probe) % numPorts
				q := r.in[in]
				if len(q) == 0 || q[0].readyAt > now {
					continue
				}
				pkt := q[0].pkt
				if m.route(x, y, pkt.Dst) != out {
					continue
				}
				flits := uint64(pkt.Flits())
				if out == portLocal {
					// Eject to the endpoint.
					m.out[pkt.Dst] = append(m.out[pkt.Dst], meshEntry{
						readyAt: now + flits, pkt: pkt,
					})
				} else {
					next, inPort := m.neighbor(idx, out)
					nr := &m.r[next]
					if len(nr.in[inPort]) >= m.cfg.QueueDepth {
						continue // downstream full
					}
					arrive := now + flits + uint64(m.cfg.RouterDelay)
					nr.in[inPort] = append(nr.in[inPort], meshEntry{readyAt: arrive, pkt: pkt})
					m.st.TotalFlits += flits
				}
				r.outBusy[out] = now + flits
				copy(q, q[1:])
				r.in[in] = q[:len(q)-1]
				r.rr[out] = (in + 1) % numPorts
				granted = true
			}
		}
	}
}

// Deliverable implements Network. It runs on every endpoint's arrival
// check: hot path.
//
//lint:hot
func (m *Mesh) Deliverable(node int, now uint64) bool {
	q := m.out[node]
	return len(q) != 0 && q[0].readyAt <= now
}

// Deliver implements Network. It runs on every message arrival: hot
// path.
//
//lint:hot
func (m *Mesh) Deliver(node int, now uint64) (Packet, bool) {
	q := m.out[node]
	if len(q) == 0 || q[0].readyAt > now {
		return Packet{}, false
	}
	p := q[0].pkt
	copy(q, q[1:])
	m.out[node] = q[:len(q)-1]
	m.live--
	return p, true
}

// Quiet implements Network.
func (m *Mesh) Quiet() bool { return m.live == 0 }

// NextWake implements Network, conservatively: any queued entry
// already ready answers now, otherwise the minimum readyAt over every
// router input and every delivered-but-unconsumed packet bounds the
// next possible action. Output-port busy windows only delay actions
// further, so ignoring them errs on the safe (earlier) side.
func (m *Mesh) NextWake(now uint64) uint64 {
	next := ^uint64(0)
	consider := func(q []meshEntry) bool {
		for i := range q {
			if r := q[i].readyAt; r <= now {
				return true
			} else if r < next {
				next = r
			}
		}
		return false
	}
	for idx := range m.r {
		r := &m.r[idx]
		for in := 0; in < numPorts; in++ {
			if consider(r.in[in]) {
				return now
			}
		}
	}
	for node := range m.out {
		if consider(m.out[node]) {
			return now
		}
	}
	return next
}

// Stats implements Network.
func (m *Mesh) Stats() Stats { return m.st }

// PortFlits implements Network.
func (m *Mesh) PortFlits() []uint64 { return m.portFlits }
