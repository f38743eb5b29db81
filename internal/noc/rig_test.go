package noc

import (
	"fmt"
	"math"
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
	script     [][]Packet // packets offered per generation cycle, ids in Ref
	packets    int
	refuse     int  // a sink refuses on cycles where (cyc+node)%refuse == 0; 0 = never
	nodesFirst bool // nodes act before the network's turn (the engine's order) or after (the pin script's)
}

// rigLoads are the offered loads: a few packets a cycle to uniform
// destinations, the same with half aimed at one node, every source every
// cycle, and every source every cycle at one node through GMN queues one
// or two deep (jammed), where most heads wait parked.
var rigLoads = [...]string{"uniform", "hotspot", "saturated", "jammed"}

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
	saturated := c.load == "saturated" || c.load == "jammed"
	if c.load == "jammed" {
		c.gmn.FIFODepth, c.gmn.SrcDepth = pick(1, 2), pick(1, 2)
	}

	genCycles := 40 + rng.Intn(80)
	switch c.load {
	case "saturated":
		genCycles = 2 + 200/c.nodes
	case "jammed":
		genCycles = 1 + 64/c.nodes
	}
	hot := rng.Intn(c.nodes)
	for cyc := 0; cyc < genCycles; cyc++ {
		var offered []Packet
		count := rng.Intn(4)
		if saturated {
			count = c.nodes
		}
		for i := 0; i < count; i++ {
			src, dst := rng.Intn(c.nodes), rng.Intn(c.nodes)
			if saturated {
				src = i
			}
			if c.load == "hotspot" && rng.Intn(2) == 0 || c.load == "jammed" {
				dst = hot
			}
			if dst == src {
				dst = (src + 1) % c.nodes
			}
			offered = append(offered, Packet{Src: src, Dst: dst, Bytes: pick(4, 8, 40), Ref: uint32(c.packets)})
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
	backlog [][]Packet
	at      []int // delivery cycle by packet id, -1 until then
	// reach is Reach(Dst, ·) for each packet, asked just before its
	// offer where the nodes act before the network's turn, else at the
	// first Tick after its Inject.
	reach    []uint64
	unasked  []Packet // accepted since the last Tick
	pending  int
	injected uint64 // the last cycle an offer was accepted and left queued
}

func newRigNet(n Network, c rigCase) *rigNet {
	r := &rigNet{Network: n, backlog: make([][]Packet, c.nodes), at: make([]int, c.packets), reach: make([]uint64, c.packets)}
	for i := range r.at {
		r.at[i] = -1
	}
	return r
}

// Tick asks the network's Reach for the destination of every packet
// accepted since the last Tick after the network's turn — before the
// network ticks, as the contract has it — then ticks it.
func (r *rigNet) Tick(now uint64) uint64 {
	for _, p := range r.unasked {
		r.reach[int(p.Ref)] = r.Reach(p.Dst, now)
	}
	r.unasked = r.unasked[:0]
	return r.Network.Tick(now)
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
		if !ok || p.Dst != node || r.at[int(p.Ref)] != -1 {
			t.Fatalf("%v cycle %d node %d: arrival due, but Deliver = %+v, %v", c, cyc, node, p, ok)
		}
		if reach := r.reach[int(p.Ref)]; cyc < reach {
			t.Fatalf("%v: packet %d delivered at %d, sooner than Reach = %d", c, p.Ref, cyc, reach)
		}
		r.at[int(p.Ref)] = int(cyc)
		r.pending--
	}
	for len(r.backlog[node]) > 0 {
		p := r.backlog[node][0]
		reach := r.Reach(p.Dst, cyc)
		e := endpointsOf(r.Network)
		wasEmpty := e == nil || e.inj[node].Empty()
		if r.Inject(p, cyc) != Sent {
			break
		}
		if c.nodesFirst {
			r.reach[int(p.Ref)] = reach
		} else {
			r.unasked = append(r.unasked, p)
		}
		r.backlog[node] = r.backlog[node][1:]
		// A GMN packet that crossed at its offer is in no injection port
		// and needs no network tick, nor does one the GMN queued behind
		// another: that head's wake, or its parking, covers it.
		if _, gmn := r.Network.(*GMN); e == nil || !e.inj[node].Empty() && (wasEmpty || !gmn) {
			r.injected = cyc
		}
	}
}

// TestDifferentialRig drives the scanning reference models (ref_test.go)
// and the occupancy-indexed models through random traffic in lock-step.
// Per seed and model it holds three networks to one another:
//
//   - ref and opt, ticked every cycle, must agree every cycle on Quiet,
//     Stats and the undelivered count, and at the end on every packet's
//     delivery cycle and on PortFlits. Bus wholeWake answers (NextWake
//     folded with the arrivals, as the reference's NextWake still is)
//     must be equal; the mesh's and the GMN's may only be later than
//     the reference's (which answers now for any ready head; a GMN
//     packet that crossed at its offer has no head left to move).
//   - gated, an opt ticked only on cycles where its own NextWake(now)
//     <= now, must match opt in all of that, answer included: a wake
//     that is too late shows as a late packet (soundness). Where the
//     nodes act after the network's turn, an order the machine never
//     runs, a gated GMN is ticked every cycle: its offers would cross
//     where opt's, made after that cycle's Tick, wait for the next one.
//   - on the mesh and the GMN a NextWake(now) == now must be followed by
//     a Tick that moves or ejects a packet, or find a head refused by a
//     full downstream queue, or a deliverable arrival: an answer that is
//     merely safe — "now while anything is queued" — fails (tightness).
//
// The occupancy sets and the routers' cached routes are checked against
// the queues they summarise after every cycle, a GMN's parked sources
// after every Tick (checkParked), and no packet is
// delivered sooner than its model's Reach for its destination, asked
// just before its offer where the nodes act first, else at the first
// Tick after its Inject.
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
			rigParked = 0
			for seed := 0; seed < seeds; seed++ {
				c := newRigCase(seed)
				rigRun(t, c, newRigNet(m.ref(c), c), newRigNet(m.opt(c), c), newRigNet(m.opt(c), c))
			}
			if m.name == "gmn" && rigParked == 0 {
				t.Fatal("no GMN head ever parked: the jammed loads missed the parking they guard")
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
// tickers only run when the cycle their last Tick answered, or a Wake
// pushed, has come, the nodes before the network in both. Every cycle
// of the engine run, a node with a packet deliverable must have been
// ticked or asked in that cycle (so arrive announced it, with a cycle
// no later than the packet's, before it came) and so must the network
// in a cycle with an accepted offer left queued (a GMN packet that
// crossed at its offer leaves nothing to tick); at the end every packet
// was delivered in the cycle the every-cycle run delivered it, with the
// same Stats and PortFlits, and none sooner than the Reach asked just
// before its offer.
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
				c.nodesFirst = true // the engine's order, kept by hand too
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
	net := &rigTicker{Network: r}
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
			t.Fatalf("%v cycle %d: an offer was left queued, the network neither ticked nor asked (last at %d)", c, cyc, net.seen)
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
	og, _ := opt.Network.(*GMN)     // nil unless the model is the GMN
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
		if wOpt < wRef || wGated != wOpt || (rm == nil && og == nil && wOpt != wRef) {
			t.Fatalf("%v cycle %d: NextWake ref %d, opt %d, gated %d", c, cyc, wRef, wOpt, wGated)
		}
		// mustMove: the mesh or the GMN said now with nothing deliverable
		// and no head blocked, so this Tick has to move or eject a packet.
		var progress uint64
		mustMove := wOpt == cyc && (rm != nil && rm.nextArrival(cyc) != cyc && !rm.blockedHead(cyc) ||
			og != nil && !og.deliverable(cyc) && !og.blockedHead(cyc))
		if mustMove && rm != nil {
			progress = rm.progress()
		} else if mustMove {
			progress = og.stats.Packets
		}
		ref.Tick(cyc)
		if w, want := opt.Tick(cyc), opt.NextWake(cyc+1); w != want {
			t.Fatalf("%v cycle %d: Tick answered %d, NextWake(%d) %d", c, cyc, w, cyc+1, want)
		}
		checkParked(t, c, cyc, opt.Network)
		if gated.NextWake(cyc) <= cyc || og != nil && !c.nodesFirst {
			gated.Tick(cyc)
			checkParked(t, c, cyc, gated.Network)
		}
		if mustMove && (rm != nil && rm.progress() == progress || og != nil && og.stats.Packets == progress) {
			t.Fatalf("%v cycle %d: NextWake answered now, but nothing was movable, blocked or deliverable", c, cyc)
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

// deliverable reports whether some arrival port's head is deliverable at
// now.
func (e *endpoints) deliverable(now uint64) bool {
	for node := range e.arr {
		if e.ArrivalAt(node) <= now {
			return true
		}
	}
	return false
}

// blockedHead reports whether some source's head could move at now but
// for its full destination FIFO.
func (g *GMN) blockedHead(now uint64) bool {
	for i := range g.inj {
		if q := &g.inj[i]; q.Ready(now) && g.srcBusy[i] <= now && !g.arr[q.Head().Dst].CanSend() {
			return true
		}
	}
	return false
}

// endpointsOf is the node-facing half of one of the three models, nil
// for anything else.
func endpointsOf(n Network) *endpoints {
	switch n := n.(type) {
	case *GMN:
		return &n.endpoints
	case *Bus:
		return &n.endpoints
	case *Mesh:
		return &n.endpoints
	}
	return nil
}

func has(b sim.Bitset, i int) bool { return b.Next(i) == i }

// parked reports whether n is a GMN that parked src's head on the FIFO
// it waits for.
func parked(n Network, src int) bool {
	g, ok := n.(*GMN)
	return ok && !g.inj[src].Empty() && has(g.parkedOn[g.inj[src].Head().Dst], src)
}

// checkParked holds a GMN just ticked at now to its parking books: the
// parked sources are exactly those whose ready head, its serializer
// free, waits for a full FIFO, each filed under that FIFO alone and
// counted once.
func checkParked(t *testing.T, c rigCase, now uint64, n Network) {
	g, ok := n.(*GMN)
	if !ok {
		return
	}
	filed := 0
	for d := range g.parkedOn {
		for i := g.parkedOn[d].Next(0); i >= 0; i = g.parkedOn[d].Next(i + 1) {
			if g.inj[i].Empty() || g.inj[i].Head().Dst != d {
				t.Fatalf("%v cycle %d: source %d parked on %d, which its head does not wait for", c, now, i, d)
			}
			filed++
		}
	}
	for i := range g.inj {
		q := &g.inj[i]
		blocked := q.Ready(now) && g.srcBusy[i] <= now && !g.arr[q.Head().Dst].CanSend()
		if parked(g, i) != blocked {
			t.Fatalf("%v cycle %d: source %d parked %v, its head blocked by a full FIFO %v", c, now, i, parked(g, i), blocked)
		}
	}
	if filed != g.nparked {
		t.Fatalf("%v cycle %d: %d sources parked, books say %d", c, now, filed, g.nparked)
	}
	rigParked += filed
}

// rigParked sums the parked heads checkParked found, for
// TestDifferentialRig to fail on a rig that never parked one.
var rigParked int

// checkOccupancy holds every incrementally maintained summary to the
// queues it summarises.
func checkOccupancy(t *testing.T, c rigCase, cyc uint64, n Network) {
	switch n := n.(type) {
	case *GMN:
		waiting := make([]uint64, len(n.arr))
		for i := range n.inj {
			n.inj[i].Each(func(_ uint64, p Packet) { waiting[p.Dst]++ })
		}
		if !reflect.DeepEqual(waiting, n.waiting) {
			t.Fatalf("%v cycle %d: packets queued per destination %v, books say %v", c, cyc, waiting, n.waiting)
		}
	case *Mesh:
		// The local input is the injection port: its heads bit is the
		// occupancy bit the GMN and the bus keep in injSet.
		soon, k := sim.NoWake, int(math.Sqrt(float64(len(n.r))))
		for idx := range n.r {
			r := &n.r[idx]
			wake := sim.NoWake
			for in, q := range r.in {
				if (r.heads>>in&1 == 1) == q.Empty() {
					t.Fatalf("%v cycle %d: router %d input %d holds %d packets, head bit %d",
						c, cyc, idx, in, q.Len(), r.heads>>in&1)
				}
				at, ok := q.NextAt()
				if !ok {
					continue
				}
				want := xyRoute(k, idx, q.Head().Dst)
				wake = min(wake, max(at, r.outBusy[want]))
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
		return
	}
	e := endpointsOf(n)
	for i := range e.inj {
		// A parked GMN head leaves injSet until a delivery releases it.
		if queued := !e.inj[i].Empty(); has(e.injSet, i) != (queued && !parked(n, i)) || parked(n, i) && !queued {
			t.Fatalf("%v cycle %d: node %d occupancy bits disagree with its ports", c, cyc, i)
		}
	}
}

// xyRoute is the XY route from router idx to node dst on a k×k grid,
// recomputed from their coordinates.
func xyRoute(k, idx, dst int) uint8 {
	return uint8((&refMesh{k: k}).route(idx%k, idx/k, dst))
}

// TestMeshRouteTable holds NewMesh's route table, built without a
// division, to XY order from coordinates: every router and destination
// of every grid side from 1 to 12, with the last row holding one node
// and full.
func TestMeshRouteTable(t *testing.T) {
	for k := 1; k <= 12; k++ {
		for _, nodes := range []int{(k-1)*(k-1) + 1, k * k} {
			m := NewMesh(DefaultMeshConfig(nodes))
			if len(m.r) != k*k {
				t.Fatalf("%d nodes: %d routers, want a %d×%d grid", nodes, len(m.r), k, k)
			}
			for idx := range m.r {
				if route := m.r[idx].route; len(route) != nodes {
					t.Fatalf("%d nodes: router %d has %d routes", nodes, idx, len(route))
				}
				for dst := range nodes {
					if got, want := m.r[idx].route[dst], xyRoute(k, idx, dst); got != want {
						t.Fatalf("%d nodes: router %d routes node %d to %d, XY order says %d", nodes, idx, dst, got, want)
					}
				}
			}
		}
	}
}
