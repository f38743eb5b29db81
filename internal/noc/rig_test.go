package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// rigCase is one seed of the differential rig: a machine, a traffic
// script and the sinks' behaviour, all drawn from the seed.
type rigCase struct {
	seed       int
	nodes      int
	load       string // one of rigLoads
	gmn        GMNConfig
	mesh       MeshConfig
	bus        BusConfig
	script     [][]Packet // packets offered per generation cycle, ids in Payload
	packets    int
	refuse     int  // a sink refuses on cycles where (cyc+node)%refuse == 0; 0 = never
	nodesFirst bool // nodes act before the network's turn (the engine's order) or after (the pin script's)
}

// rigLoads are the offered loads: a few packets a cycle to uniform
// destinations, the same with half aimed at one node, and every source
// every cycle.
var rigLoads = [...]string{"uniform", "hotspot", "saturated"}

func newRigCase(seed int) rigCase {
	rng := rand.New(rand.NewSource(int64(seed)))
	pick := func(vs ...int) int { return vs[rng.Intn(len(vs))] }
	c := rigCase{
		seed:       seed,
		nodes:      [...]int{4, 9, 35, 131}[seed%4],
		load:       rigLoads[seed/4%len(rigLoads)],
		refuse:     pick(0, 2, 3, 5),
		nodesFirst: seed/12%2 == 0,
	}
	c.gmn = GMNConfig{Nodes: c.nodes, Delay: pick(1, MeshLatency(c.nodes, 2, 3)), FIFODepth: pick(1, 2, 8), SrcDepth: pick(1, 4)}
	c.mesh = MeshConfig{Nodes: c.nodes, RouterDelay: pick(1, 2, 3, 64), QueueDepth: pick(1, 2, 4)}
	c.bus = BusConfig{Nodes: c.nodes, ArbDelay: pick(0, 2), QueueDepth: pick(1, 4)}

	genCycles := 40 + rng.Intn(80)
	if c.load == "saturated" {
		genCycles = 2 + 200/c.nodes
	}
	hot := rng.Intn(c.nodes)
	for cyc := 0; cyc < genCycles; cyc++ {
		var offered []Packet
		count := rng.Intn(4)
		if c.load == "saturated" {
			count = c.nodes
		}
		for i := 0; i < count; i++ {
			src, dst := rng.Intn(c.nodes), rng.Intn(c.nodes)
			if c.load == "saturated" {
				src = i
			}
			if c.load == "hotspot" && rng.Intn(2) == 0 {
				dst = hot
			}
			if dst == src {
				dst = (src + 1) % c.nodes
			}
			offered = append(offered, Packet{Src: src, Dst: dst, Bytes: pick(4, 8, 40), Payload: c.packets})
			c.packets++
		}
		c.script = append(c.script, offered)
	}
	return c
}

func (c rigCase) String() string {
	return fmt.Sprintf("seed %d (%d nodes, %s, refuse %d, nodesFirst %v, %+v %+v %+v)",
		c.seed, c.nodes, c.load, c.refuse, c.nodesFirst, c.gmn, c.mesh, c.bus)
}

// rigNet is one network under the rig with its nodes: per-source
// backlogs offered in order until refused, as coherence.Node does, and
// the cycle each packet was delivered.
type rigNet struct {
	Network
	backlog  [][]Packet
	at       []int    // delivery cycle by packet id, -1 until then
	accepted []uint64 // the cycle the packet's Inject was taken
	pending  int
	injected uint64 // the last cycle an Inject was accepted
}

func newRigNet(n Network, c rigCase) *rigNet {
	r := &rigNet{Network: n, backlog: make([][]Packet, c.nodes), at: make([]int, c.packets), accepted: make([]uint64, c.packets)}
	for i := range r.at {
		r.at[i] = -1
	}
	return r
}

// nodesAct is every node's turn in cycle cyc: new packets join the
// backlogs, each sink that is not refusing drains its arrivals, each
// source offers its backlog.
func (r *rigNet) nodesAct(t *testing.T, c rigCase, cyc uint64) {
	if cyc < uint64(len(c.script)) {
		for _, p := range c.script[cyc] {
			r.backlog[p.Src] = append(r.backlog[p.Src], p)
			r.pending++
		}
	}
	for node := range r.backlog {
		r.nodeAct(t, c, cyc, node)
	}
}

// nodeAct is one node's turn: drain the arrivals unless the sink is
// refusing, then offer the backlog.
func (r *rigNet) nodeAct(t *testing.T, c rigCase, cyc uint64, node int) {
	refusing := c.refuse != 0 && (cyc+uint64(node))%uint64(c.refuse) == 0
	for !refusing && r.ArrivalAt(node) <= cyc {
		p, ok := r.Deliver(node, cyc)
		if !ok || p.Dst != node || r.at[p.Payload.(int)] != -1 {
			t.Fatalf("%v cycle %d node %d: arrival due, but Deliver = %+v, %v", c, cyc, node, p, ok)
		}
		if at := r.accepted[p.Payload.(int)]; cyc < at+r.MinTransit() {
			t.Fatalf("%v: packet %d accepted at %d, delivered at %d: sooner than MinTransit() = %d", c, p.Payload, at, cyc, r.MinTransit())
		}
		r.at[p.Payload.(int)] = int(cyc)
		r.pending--
	}
	for len(r.backlog[node]) > 0 && r.Inject(r.backlog[node][0], cyc) {
		r.accepted[r.backlog[node][0].Payload.(int)] = cyc
		r.backlog[node] = r.backlog[node][1:]
		r.injected = cyc
	}
}

// TestDifferentialRig drives the scanning reference models (ref_test.go)
// and the occupancy-indexed models through random traffic in lock-step.
// Per seed and model it holds three networks to one another:
//
//   - ref and opt, ticked every cycle, must agree every cycle on Quiet,
//     Stats and the undelivered count, and at the end on every packet's
//     delivery cycle and on PortFlits. GMN and bus wholeWake answers
//     (NextWake folded with the arrivals, as the reference's NextWake
//     still is) must be equal; the mesh's may only be later than the
//     reference's (which answers now for any ready head).
//   - gated, an opt ticked only on cycles where its own NextWake(now)
//     <= now, must match opt in all of that, answer included: a wake
//     that is too late shows as a late packet (soundness).
//   - on the mesh a NextWake(now) == now must be followed by a Tick that
//     moves or ejects a packet, or find a head refused by a full
//     downstream queue, or a deliverable arrival: an answer that is
//     merely safe — "now while anything is queued" — fails (tightness).
//
// The occupancy sets and the routers' cached routes are checked against
// the queues they summarise after every cycle, and no packet is
// delivered sooner than its model's MinTransit after its Inject.
func TestDifferentialRig(t *testing.T) {
	seeds := 216
	if testing.Short() {
		seeds = 48
	}
	models := []struct {
		name     string
		ref, opt func(rigCase) Network
	}{
		{"gmn", func(c rigCase) Network { return newRefGMN(c.gmn) }, func(c rigCase) Network { return NewGMN(c.gmn) }},
		{"mesh", func(c rigCase) Network { return newRefMesh(c.mesh) }, func(c rigCase) Network { return NewMesh(c.mesh) }},
		{"bus", func(c rigCase) Network { return newRefBus(c.bus) }, func(c rigCase) Network { return NewBus(c.bus) }},
	}
	for _, m := range models {
		t.Run(m.name, func(t *testing.T) {
			for seed := 0; seed < seeds; seed++ {
				c := newRigCase(seed)
				rigRun(t, c, newRigNet(m.ref(c), c), newRigNet(m.opt(c), c), newRigNet(m.opt(c), c))
			}
		})
	}
}

// rigNode is one node of a rigNet as an engine ticker: its turn of
// nodesAct, asleep while it has nothing to offer and nothing has
// arrived — as coherence.Node is, the arrival folded into its answer.
type rigNode struct {
	t      *testing.T
	c      rigCase
	r      *rigNet
	id     int
	offers []uint64 // the script cycles that offer a packet from this node, ascending
	seen   uint64   // the last cycle the engine ticked or asked (bookkeeping for the test, not state)
}

func (n *rigNode) Tick(now uint64) uint64 {
	n.seen = now
	for ; len(n.offers) > 0 && n.offers[0] == now; n.offers = n.offers[1:] {
		for _, p := range n.c.script[now] {
			if p.Src == n.id {
				n.r.backlog[n.id] = append(n.r.backlog[n.id], p)
				n.r.pending++
			}
		}
	}
	n.r.nodeAct(n.t, n.c, now, n.id)
	return n.wake(now + 1)
}

func (n *rigNode) NextWake(now uint64) uint64 { n.seen = now; return n.wake(now) }

func (n *rigNode) wake(now uint64) uint64 {
	arrival := n.r.ArrivalAt(n.id)
	if len(n.r.backlog[n.id]) > 0 || arrival <= now {
		return now // a refused offer or a refusing sink is retried every cycle
	}
	if len(n.offers) > 0 {
		return min(arrival, n.offers[0])
	}
	return arrival
}

func (n *rigNode) Skip(from, to uint64) {}

// rigTicker is the network's slot, noting when the engine ticks or asks
// it.
type rigTicker struct {
	Network
	seen uint64
}

func (n *rigTicker) Tick(now uint64) uint64     { n.seen = now; return n.Network.Tick(now) }
func (n *rigTicker) NextWake(now uint64) uint64 { n.seen = now; return n.Network.NextWake(now) }
func (n *rigTicker) Skip(from, to uint64)       {}

// TestWakeEdges holds the two edges the network owes an engine that
// remembers wakes, on the differential rig's seeds: the same traffic is
// run every-cycle by hand and on a sim.Engine whose node and network
// tickers only run when the cycle their last Tick answered has come, or
// are asked after a Wake. Every cycle of the engine run, a node with a
// packet deliverable must have been ticked or asked in that cycle (so
// arrive announced it, with a cycle no later than the packet's, before
// it came) and so must the network in a cycle with an accepted Inject;
// at the end
// every packet was delivered in the cycle the every-cycle run delivered
// it, with the same Stats and PortFlits.
func TestWakeEdges(t *testing.T) {
	seeds := 216
	if testing.Short() {
		seeds = 48
	}
	for _, m := range []struct {
		name string
		mk   func(rigCase) Network
	}{
		{"gmn", func(c rigCase) Network { return NewGMN(c.gmn) }},
		{"mesh", func(c rigCase) Network { return NewMesh(c.mesh) }},
		{"bus", func(c rigCase) Network { return NewBus(c.bus) }},
	} {
		t.Run(m.name, func(t *testing.T) {
			var passed uint64
			for seed := 0; seed < seeds; seed++ {
				c := newRigCase(seed)
				hand := newRigNet(m.mk(c), c)
				for cyc := uint64(0); cyc < uint64(len(c.script)) || hand.pending > 0; cyc++ {
					if cyc > 200000 {
						t.Fatalf("%v: not drained after %d cycles", c, cyc)
					}
					hand.nodesAct(t, c, cyc)
					hand.Tick(cyc)
				}
				passed += wakeEdgeRun(t, c, hand, newRigNet(m.mk(c), c))
			}
			if passed == 0 {
				t.Fatal("no ticker was ever passed over: the property was vacuous")
			}
		})
	}
}

// wakeEdgeRun runs c on an engine and holds it to hand, the every-cycle
// run; it returns how many ticks the engine passed over.
func wakeEdgeRun(t *testing.T, c rigCase, hand, r *rigNet) uint64 {
	e := sim.NewEngine()
	nodes := make([]*rigNode, c.nodes)
	wakers := make([]sim.Waker, c.nodes)
	for id := range nodes {
		nodes[id] = &rigNode{t: t, c: c, r: r, id: id}
		wakers[id] = e.Register("node", nodes[id])
	}
	for cyc, offered := range c.script {
		for _, p := range offered {
			if o := nodes[p.Src].offers; len(o) == 0 || o[len(o)-1] != uint64(cyc) {
				nodes[p.Src].offers = append(o, uint64(cyc))
			}
		}
	}
	net := &rigTicker{Network: r.Network}
	r.Attach(e.Register("net", net), wakers)
	r.injected = sim.NoWake
	e.Every(1, func(now uint64) {
		cyc := now - 1
		if cyc > 200000 {
			t.Fatalf("%v: not drained after %d cycles", c, cyc)
		}
		for _, n := range nodes {
			if at := r.ArrivalAt(n.id); at <= cyc && n.seen != cyc {
				t.Fatalf("%v cycle %d: node %d was passed over with a packet deliverable since %d (last seen at %d)",
					c, cyc, n.id, at, n.seen)
			}
		}
		if r.injected == cyc && net.seen != cyc {
			t.Fatalf("%v cycle %d: an Inject was accepted, the network neither ticked nor asked (last at %d)", c, cyc, net.seen)
		}
	})
	if _, err := e.Run(0, func() bool { return e.Now() >= uint64(len(c.script)) && r.pending == 0 }); err != nil {
		t.Fatal(err)
	}
	if !r.Quiet() || !reflect.DeepEqual(r.at, hand.at) || r.Stats() != hand.Stats() || !reflect.DeepEqual(r.PortFlits(), hand.PortFlits()) {
		t.Fatalf("%v: quiet %v stats %+v, every-cycle run %+v\ndeliveries  %v\nevery-cycle %v",
			c, r.Quiet(), r.Stats(), hand.Stats(), r.at, hand.at)
	}
	return e.SkippedTicks()
}

func rigRun(t *testing.T, c rigCase, ref, opt, gated *rigNet) {
	nets := [...]*rigNet{ref, opt, gated}
	rm, _ := ref.Network.(*refMesh) // nil unless the model is the mesh
	for cyc := uint64(0); ; cyc++ {
		if cyc > 200000 {
			t.Fatalf("%v: not drained after %d cycles", c, cyc)
		}
		if c.nodesFirst {
			for _, n := range nets {
				n.nodesAct(t, c, cyc)
			}
		}
		wRef, wOpt, wGated := ref.NextWake(cyc), wholeWake(opt, cyc), wholeWake(gated, cyc)
		if wOpt < wRef || wGated != wOpt || (rm == nil && wOpt != wRef) {
			t.Fatalf("%v cycle %d: NextWake ref %d, opt %d, gated %d", c, cyc, wRef, wOpt, wGated)
		}
		// mustMove: the mesh said now with nothing deliverable and no
		// head blocked, so this Tick has to move or eject a packet.
		var progress uint64
		mustMove := wOpt == cyc && rm != nil && rm.nextArrival(cyc) != cyc && !rm.blockedHead(cyc)
		if mustMove {
			progress = rm.progress()
		}
		ref.Tick(cyc)
		if w, want := opt.Tick(cyc), opt.NextWake(cyc+1); w != want {
			t.Fatalf("%v cycle %d: Tick answered %d, NextWake(%d) %d", c, cyc, w, cyc+1, want)
		}
		if gated.NextWake(cyc) <= cyc {
			gated.Tick(cyc)
		}
		if mustMove && rm.progress() == progress {
			t.Fatalf("%v cycle %d: mesh NextWake answered now, but nothing was movable, blocked or deliverable", c, cyc)
		}
		if !c.nodesFirst {
			for _, n := range nets {
				n.nodesAct(t, c, cyc)
			}
		}
		for _, n := range nets[1:] {
			if n.Quiet() != ref.Quiet() || n.Stats() != ref.Stats() || n.pending != ref.pending {
				t.Fatalf("%v cycle %d: quiet %v stats %+v pending %d, reference quiet %v stats %+v pending %d",
					c, cyc, n.Quiet(), n.Stats(), n.pending, ref.Quiet(), ref.Stats(), ref.pending)
			}
			checkOccupancy(t, c, cyc, n.Network)
		}
		if cyc >= uint64(len(c.script)) && ref.pending == 0 {
			break
		}
	}
	for _, n := range nets[1:] {
		if !n.Quiet() || !reflect.DeepEqual(n.at, ref.at) || !reflect.DeepEqual(n.PortFlits(), ref.PortFlits()) {
			t.Fatalf("%v: quiet %v\ndeliveries %v\nreference  %v\nportflits %v\nreference %v",
				c, n.Quiet(), n.at, ref.at, n.PortFlits(), ref.PortFlits())
		}
	}
}

// progress changes whenever a Tick moves a packet between routers
// (flits are counted per link crossed) or ejects one into an arrival
// port.
func (m *refMesh) progress() uint64 {
	n := m.stats.TotalFlits
	for i := range m.arr {
		n += uint64(m.arr[i].Len()) << 40
	}
	return n
}

// blockedHead reports whether some router input's head is ready at now
// with its output link free and the downstream queue full: the one
// state in which a Tick polls without a timer to wait for.
func (m *refMesh) blockedHead(now uint64) bool {
	for idx := range m.r {
		r := &m.r[idx]
		for _, q := range r.in {
			if !q.Ready(now) {
				continue
			}
			out := m.route(idx%m.k, idx/m.k, q.Head().Dst)
			if out == portLocal || r.outBusy[out] > now {
				continue
			}
			if next, inPort := m.neighbor(idx, out); !m.r[next].in[inPort].CanSend() {
				return true
			}
		}
	}
	return false
}

func has(b sim.Bitset, i int) bool { return b.Next(i) == i }

// checkOccupancy holds every incrementally maintained summary to the
// queues it summarises.
func checkOccupancy(t *testing.T, c rigCase, cyc uint64, n Network) {
	var e *endpoints
	switch n := n.(type) {
	case *GMN:
		e = &n.endpoints
	case *Bus:
		e = &n.endpoints
	case *Mesh:
		e = &n.endpoints
		soon := sim.NoWake
		for idx := range n.r {
			r := &n.r[idx]
			wake := sim.NoWake
			for in, q := range r.in {
				want, at, ok := uint8(numPorts), sim.NoWake, false
				if at, ok = q.NextAt(); ok {
					want = n.route(idx, q.Head().Dst)
					wake = min(wake, max(at, r.outBusy[want]))
				} else {
					at = sim.NoWake
				}
				if r.want[in] != want || r.at[in] != at {
					t.Fatalf("%v cycle %d: router %d input %d caches route %d at %d, head wants %d at %d",
						c, cyc, idx, in, r.want[in], r.at[in], want, at)
				}
			}
			if r.wake != wake {
				t.Fatalf("%v cycle %d: router %d's next event is %d, books say %d", c, cyc, idx, wake, r.wake)
			}
			// A router with a packet is filed in the bucket of the first
			// cycle Tick may visit it.
			if f := max(wake, n.ticked); wake != sim.NoWake && n.wheel[idx>>6<<6|int(f&63)]>>(idx&63)&1 == 0 {
				t.Fatalf("%v cycle %d: router %d due at %d is not filed for it (ticked %d)", c, cyc, idx, wake, n.ticked)
			}
			soon = min(soon, max(wake, n.ticked))
		}
		if n.soon != soon {
			t.Fatalf("%v cycle %d: the routers' first wake is %d, soon says %d", c, cyc, soon, n.soon)
		}
	}
	for i := range e.inj {
		if has(e.injSet, i) == e.inj[i].Empty() {
			t.Fatalf("%v cycle %d: node %d occupancy bits disagree with its ports", c, cyc, i)
		}
	}
}
