package noc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// drive ticks the network from cycle start and collects deliveries for
// every node until quiet or the cycle budget runs out.
func drive(t *testing.T, n Network, start uint64, budget int) map[int][]Packet {
	t.Helper()
	out := make(map[int][]Packet)
	for cyc := start; cyc < start+uint64(budget); cyc++ {
		n.Tick(cyc)
		for node := range n.PortFlits() {
			for {
				p, ok := n.Deliver(node, cyc)
				if !ok {
					break
				}
				out[node] = append(out[node], p)
			}
		}
		if n.Quiet() {
			return out
		}
	}
	t.Fatalf("network not quiet after %d cycles", budget)
	return nil
}

func nets(nodes int) []struct {
	name string
	mk   func() Network
} {
	// Ordered slice, not a map: subtests must run in the same order
	// every time (simlint maprange).
	return []struct {
		name string
		mk   func() Network
	}{
		{"gmn", func() Network { return NewGMN(DefaultGMNConfig(nodes)) }},
		{"mesh", func() Network { return NewMesh(DefaultMeshConfig(nodes)) }},
		{"bus", func() Network { return NewBus(DefaultBusConfig(nodes)) }},
	}
}

func TestPacketFlits(t *testing.T) {
	cases := []struct{ bytes, flits int }{{0, 1}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {40, 10}}
	for _, c := range cases {
		if got := (Packet{Bytes: c.bytes}).Flits(); got != c.flits {
			t.Errorf("Flits(%d bytes) = %d, want %d", c.bytes, got, c.flits)
		}
	}
}

// TestPacketHoldsNoPointer admits only integer and bool fields in a
// Packet, the guard TestMsgFingerprintCoversEveryField keeps for
// coherence.Msg: a network's queues then hold values only, so a state
// encoded as bytes can be restored packet by packet, and what a packet
// carries is reached through Ref, never through the packet.
func TestPacketHoldsNoPointer(t *testing.T) {
	typ := reflect.TypeOf(Packet{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Packet.%s is a %s: a packet holds integers and flags only", f.Name, f.Type.Kind())
		}
	}
}

func TestDelivery(t *testing.T) {
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk()
			if n.Inject(Packet{Src: 0, Dst: 8, Bytes: 12, Ref: 7}, 0) != Sent {
				t.Fatal("inject refused on an idle network")
			}
			got := drive(t, n, 0, 1000)
			if len(got[8]) != 1 || got[8][0].Ref != 7 {
				t.Fatalf("deliveries = %v", got)
			}
			st := n.Stats()
			if st.Packets != 1 || st.TotalBytes != 12 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestDeliverableAgreesWithDeliver(t *testing.T) {
	// ArrivalAt must predict Deliver exactly at every cycle, on every
	// model, without consuming the packet: deliverable from that cycle on,
	// not before.
	for _, nc := range nets(4) {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk()
			if n.ArrivalAt(3) != sim.NoWake {
				t.Fatal("idle network claims an arrival")
			}
			if n.Inject(Packet{Src: 0, Dst: 3, Bytes: 8, Ref: 7}, 0) != Sent {
				t.Fatal("inject refused")
			}
			delivered := false
			for cyc := uint64(0); cyc < 1000 && !delivered; cyc++ {
				n.Tick(cyc)
				at := n.ArrivalAt(3)
				if at != n.ArrivalAt(3) {
					t.Fatalf("cycle %d: ArrivalAt not idempotent", cyc)
				}
				p, ok := n.Deliver(3, cyc)
				if (at <= cyc) != ok {
					t.Fatalf("cycle %d: ArrivalAt=%d but Deliver=%v", cyc, at, ok)
				}
				if ok {
					if p.Ref != 7 {
						t.Fatalf("wrong packet %v", p)
					}
					delivered = true
				}
			}
			if !delivered {
				t.Fatal("packet never delivered")
			}
			if !n.Quiet() {
				t.Fatal("network not quiet after delivery")
			}
		})
	}
}

func TestMinimumLatency(t *testing.T) {
	// A GMN packet is never visible before serialization + delay.
	cfg := GMNConfig{Nodes: 4, Delay: 10, FIFODepth: 4, SrcDepth: 4}
	g := NewGMN(cfg)
	g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 0)
	for cyc := uint64(0); cyc < 11; cyc++ {
		g.Tick(cyc)
		if _, ok := g.Deliver(1, cyc); ok {
			t.Fatalf("packet arrived at cycle %d, before min latency", cyc)
		}
	}
}

// TestReachOnAnIdleNetwork pins the lookahead each model states where no
// pinned run can see it (every coherence message is two flits or more, so
// a bound a cycle or two too long passes them all): a one-flit packet
// from another node, injected at cycle t on an idle network — the node's
// turn, then the network's, as the engine orders them — is deliverable at
// exactly Reach(dst, t), for configurations off the defaults too. The
// GMN and the bus know the cycle at once. On the mesh the packet has a
// link to cross first, and Reach asked once it heads its last router's
// input, routed to the endpoint, is the cycle after: the ejection. A mesh
// self-send ejects the cycle after its injection, which no lookahead
// could cover: a node's own sends are outside Reach.
func TestReachOnAnIdleNetwork(t *testing.T) {
	for _, c := range []struct {
		name     string
		n        Network
		src, dst int
		want     uint64
	}{
		{"gmn", NewGMN(DefaultGMNConfig(9)), 0, 5, uint64(MeshLatency(9, 2, 3)) + 2},
		{"gmn/delay=1", NewGMN(GMNConfig{Nodes: 4, Delay: 1, FIFODepth: 1, SrcDepth: 1}), 3, 0, 3},
		{"gmn/n131", NewGMN(DefaultGMNConfig(131)), 130, 7, 19 + 2},
		{"bus", NewBus(DefaultBusConfig(9)), 0, 5, 3},
		{"bus/arb=0", NewBus(BusConfig{Nodes: 4, ArbDelay: 0, QueueDepth: 1}), 2, 1, 1},
		{"mesh", NewMesh(DefaultMeshConfig(9)), 3, 4, 2 + 2},
		{"mesh/delay=3", NewMesh(MeshConfig{Nodes: 4, RouterDelay: 3, QueueDepth: 1}), 1, 0, 2 + 3},
	} {
		const at = 5
		_, mesh := c.n.(*Mesh)
		var reach uint64
		for cyc := uint64(0); cyc < at+100; cyc++ {
			if cyc == at && c.n.Inject(Packet{Src: c.src, Dst: c.dst, Bytes: FlitBytes}, cyc) != Sent {
				t.Fatalf("%s: idle network refused the packet", c.name)
			}
			if reach = c.n.Reach(c.dst, cyc); cyc == at && reach != at+c.want {
				t.Errorf("%s: Reach(%d, %d) = %d, want %d", c.name, c.dst, at, reach, at+c.want)
			}
			c.n.Tick(cyc)
			if arr := c.n.ArrivalAt(c.dst); arr != sim.NoWake {
				if arr != at+c.want || (!mesh && cyc != at) || (mesh && reach != arr) {
					t.Errorf("%s: injected at %d, deliverable at %d (known at %d, when Reach was %d), want %d",
						c.name, at, arr, cyc, reach, at+c.want)
				}
				break
			}
		}
		if _, ok := c.n.Deliver(c.dst, at+c.want-1); ok {
			t.Errorf("%s: delivered a cycle early", c.name)
		}
		if _, ok := c.n.Deliver(c.dst, at+c.want); !ok {
			t.Errorf("%s: not delivered at Reach", c.name)
		}
	}
	m := NewMesh(DefaultMeshConfig(9))
	m.Inject(Packet{Src: 4, Dst: 4, Bytes: FlitBytes}, 5)
	if m.Tick(5); m.ArrivalAt(4) != 6 {
		t.Errorf("mesh self-send injected at 5: deliverable at %d, want 6", m.ArrivalAt(4))
	}
}

func TestPerPairOrdering(t *testing.T) {
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk()
			const count = 20
			sent := 0
			for cyc := 0; sent < count && cyc < 10000; cyc++ {
				if n.Inject(Packet{Src: 2, Dst: 7, Bytes: 4 + (sent%3)*16, Ref: uint32(sent)}, uint64(cyc)) == Sent {
					sent++
				}
				n.Tick(uint64(cyc))
				for node := range n.PortFlits() {
					for {
						if _, ok := n.Deliver(node, uint64(cyc)); !ok {
							break
						}
					}
				}
			}
			// Re-run cleanly collecting order.
			n = nc.mk()
			var order []int
			sent = 0
			for cyc := 0; cyc < 20000; cyc++ {
				if sent < count {
					if n.Inject(Packet{Src: 2, Dst: 7, Bytes: 4 + (sent%3)*16, Ref: uint32(sent)}, uint64(cyc)) == Sent {
						sent++
					}
				}
				n.Tick(uint64(cyc))
				for {
					p, ok := n.Deliver(7, uint64(cyc))
					if !ok {
						break
					}
					order = append(order, int(p.Ref))
				}
				if sent == count && n.Quiet() {
					break
				}
			}
			if len(order) != count {
				t.Fatalf("delivered %d of %d", len(order), count)
			}
			for i, v := range order {
				if v != i {
					t.Fatalf("order %v: per-pair FIFO violated", order)
				}
			}
		})
	}
}

func TestOrderingProperty(t *testing.T) {
	// Per-(src,dst) ordering holds for arbitrary multi-flow traffic on
	// both network models.
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			f := func(flows []uint8) bool {
				n := nc.mk()
				type key struct{ src, dst int }
				nextSeq := map[key]int{}
				wantSeq := map[key]int{}
				pending := []Packet{}
				for _, fl := range flows {
					k := key{src: int(fl) % 9, dst: int(fl>>4) % 9}
					if k.src == k.dst {
						continue
					}
					pending = append(pending, Packet{
						Src: k.src, Dst: k.dst, Bytes: 4 + int(fl%5)*8,
						Ref: uint32(nextSeq[k]),
					})
					nextSeq[k]++
				}
				i := 0
				for cyc := 0; cyc < 100000; cyc++ {
					if i < len(pending) && n.Inject(pending[i], uint64(cyc)) == Sent {
						i++
					}
					n.Tick(uint64(cyc))
					for node := 0; node < 9; node++ {
						for {
							p, ok := n.Deliver(node, uint64(cyc))
							if !ok {
								break
							}
							k := key{src: p.Src, dst: p.Dst}
							if int(p.Ref) != wantSeq[k] {
								return false
							}
							wantSeq[k]++
						}
					}
					if i == len(pending) && n.Quiet() {
						break
					}
				}
				return n.Quiet()
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackpressure(t *testing.T) {
	cfg := GMNConfig{Nodes: 2, Delay: 5, FIFODepth: 1, SrcDepth: 1}
	g := NewGMN(cfg)
	if g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 0) != Sent {
		t.Fatal("first inject refused")
	}
	if g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 0) == Sent {
		t.Fatal("second inject accepted with a full source queue")
	}
	if g.Stats().InjectStallCycles != 1 {
		t.Fatalf("stall not counted: %+v", g.Stats())
	}
}

// wakeLog is an engine sleeper that records the cycles it is ticked at.
type wakeLog struct{ ticks []uint64 }

func (w *wakeLog) Tick(now uint64) uint64     { w.ticks = append(w.ticks, now); return sim.NoWake }
func (w *wakeLog) NextWake(now uint64) uint64 { return sim.NoWake }
func (w *wakeLog) Skip(from, to uint64)       {}

// TestGMNCrossesAtTheOffer: on an idle GMN an offer crosses at once, in
// the node's turn — counted before any Tick, nothing left for the
// network's slot to do, and the destination's waker told the cycle the
// packet's two flits have crossed both ports and the delay.
func TestGMNCrossesAtTheOffer(t *testing.T) {
	const at, delay = 3, 5
	g := NewGMN(GMNConfig{Nodes: 3, Delay: delay, FIFODepth: 2, SrcDepth: 4})
	e := sim.NewEngine()
	e.Register("src", sim.TickFunc(func(now uint64) {
		if now != at {
			return
		}
		if g.Inject(Packet{Src: 0, Dst: 2, Bytes: 8}, now) != Sent {
			t.Fatal("an idle GMN refused the offer")
		}
		if g.Stats().Packets != 1 || g.NextWake(now) != sim.NoWake {
			t.Fatalf("offer at %d: %d packets counted, NextWake %d: it did not cross at once",
				now, g.Stats().Packets, g.NextWake(now))
		}
	}))
	dst, net := &wakeLog{}, &wakeLog{}
	wakers := []sim.Waker{e.Register("idle", &wakeLog{}), e.Register("idle", &wakeLog{}), e.Register("dst", dst)}
	g.Attach(e.Register("net", net), wakers)
	e.Run(0, func() bool { return e.Now() == 30 })
	if want := []uint64{at + 2*2 + delay}; !reflect.DeepEqual(dst.ticks, want) || len(net.ticks) != 0 {
		t.Fatalf("destination woken at %v, want %v; network ticked at %v, want never", dst.ticks, want, net.ticks)
	}
	if g.ArrivalAt(2) != at+2*2+delay {
		t.Fatalf("deliverable at %d, want %d", g.ArrivalAt(2), at+2*2+delay)
	}
}

// TestGMNCrossedPacketHoldsItsSlot: a packet that crossed at its offer
// keeps its source-port slot until the cycle ends, as it would have sat
// there until the Tick: with four slots the fifth offer of the cycle is
// refused and counted, as the reference's is, and the next cycle's is
// not.
func TestGMNCrossedPacketHoldsItsSlot(t *testing.T) {
	cfg := GMNConfig{Nodes: 3, Delay: 5, FIFODepth: 8, SrcDepth: 4}
	for _, n := range []Network{NewGMN(cfg), newRefGMN(cfg)} {
		var fates []Fate
		for i := 0; i < 5; i++ {
			fates = append(fates, n.Inject(Packet{Src: 0, Dst: 1 + i%2, Bytes: 4}, 7))
		}
		if want := []Fate{Sent, Sent, Sent, Sent, Refused}; !reflect.DeepEqual(fates, want) || n.Stats().InjectStallCycles != 1 {
			t.Fatalf("%T: fates %v, want %v; %d refusals counted", n, fates, want, n.Stats().InjectStallCycles)
		}
		n.Tick(7)
		if n.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 8) != Sent {
			t.Fatalf("%T: the crossed packet's slot is still held a cycle later", n)
		}
	}
}

// TestGMNOfferQueuesBehindAWaitingPacket: an offer that could cross on
// its own still queues while a packet for its destination waits at any
// source port, so the Tick moves both in source order: source 0's
// packet, held by its busy serializer until cycle 10, before source 1's
// offer of cycle 10. The deliveries are the reference model's.
func TestGMNOfferQueuesBehindAWaitingPacket(t *testing.T) {
	cfg := GMNConfig{Nodes: 4, Delay: 5, FIFODepth: 8, SrcDepth: 4}
	var got [2][]string
	for k, n := range []Network{NewGMN(cfg), newRefGMN(cfg)} {
		for cyc := uint64(0); cyc < 60; cyc++ {
			switch cyc {
			case 0:
				n.Inject(Packet{Src: 0, Dst: 3, Bytes: 40, Ref: 0}, cyc) // 10 flits: source 0 busy until 10
				n.Inject(Packet{Src: 0, Dst: 3, Bytes: 8, Ref: 1}, cyc)
			case 10:
				n.Inject(Packet{Src: 1, Dst: 3, Bytes: 8, Ref: 2}, cyc)
				if k == 0 && n.Stats().Packets != 1 {
					t.Fatalf("offer behind a waiting packet crossed: %d packets counted before the Tick", n.Stats().Packets)
				}
			}
			n.Tick(cyc)
			for p, ok := n.Deliver(3, cyc); ok; p, ok = n.Deliver(3, cyc) {
				got[k] = append(got[k], fmt.Sprintf("%d@%d", p.Ref, cyc))
			}
		}
	}
	// 0 leaves the destination port at 10+5+10 = 25; 1 at 27 and 2 at 29,
	// serialized behind it in source order.
	if want := "[0@25 1@27 2@29]"; fmt.Sprint(got[0]) != want || fmt.Sprint(got[1]) != want {
		t.Fatalf("deliveries %v, reference %v, want %s", got[0], got[1], want)
	}
}

// TestGMNOfferAfterTheTickWaits: an offer made after the cycle's Tick,
// the order the scripted pins drive, waits for the next Tick.
func TestGMNOfferAfterTheTickWaits(t *testing.T) {
	g := NewGMN(GMNConfig{Nodes: 2, Delay: 5, FIFODepth: 8, SrcDepth: 4})
	g.Tick(4)
	g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 4)
	if g.Stats().Packets != 0 || g.NextWake(4) != 4 {
		t.Fatalf("offer after the Tick: %d packets counted, NextWake %d, want 0 and 4", g.Stats().Packets, g.NextWake(4))
	}
	g.Tick(5)
	if g.Stats().Packets != 1 || g.ArrivalAt(1) != 5+1+5+1 {
		t.Fatalf("after the next Tick: %d packets, deliverable at %d, want 1 and %d", g.Stats().Packets, g.ArrivalAt(1), 5+1+5+1)
	}
}

// TestGMNParksAHeadHeldByAFullFIFO: sources 2, 3 and 4, whose heads
// wait for node 5's full FIFO, are off the scan — no Tick moves them and
// NextWake has nothing to answer — until deliveries free slots there:
// after k of them in one cycle, that cycle's Tick moves exactly the k
// lowest, as the every-cycle scan would.
func TestGMNParksAHeadHeldByAFullFIFO(t *testing.T) {
	for k := 1; k <= 2; k++ {
		g := NewGMN(GMNConfig{Nodes: 6, Delay: 1, FIFODepth: 2, SrcDepth: 2})
		for src := 0; src < 5; src++ {
			if g.Inject(Packet{Src: src, Dst: 5, Bytes: 4}, 0) != Sent {
				t.Fatalf("offer from %d refused", src)
			}
		}
		g.Tick(0)
		full := g.ArrivalAt(5) + 1 // both crossed packets deliverable
		for cyc := uint64(1); cyc < full; cyc++ {
			if w := g.NextWake(cyc); w != sim.NoWake {
				t.Fatalf("k=%d cycle %d: three heads parked on a full FIFO, NextWake = %d", k, cyc, w)
			}
			g.Tick(cyc)
		}
		for i := 0; i < k; i++ {
			if _, ok := g.Deliver(5, full); !ok {
				t.Fatalf("k=%d: no packet deliverable at %d", k, full)
			}
		}
		if w := g.NextWake(full); w != full {
			t.Fatalf("k=%d: %d slots freed, NextWake(%d) = %d", k, k, full, w)
		}
		g.Tick(full)
		var moved []int
		for src, flits := range g.PortFlits() {
			if flits != 0 && src >= 2 {
				moved = append(moved, src)
			}
		}
		if want := []int{2, 3, 4}[:k]; !reflect.DeepEqual(moved, want) || g.nparked != 3-k {
			t.Fatalf("k=%d: sources %v moved with %d still parked, want %v and %d", k, moved, g.nparked, want, 3-k)
		}
	}
}

func TestGMNContentionSerializesAtDestination(t *testing.T) {
	// Two packets from different sources to one destination cannot both
	// arrive at the minimum latency: the destination port serializes.
	cfg := GMNConfig{Nodes: 3, Delay: 5, FIFODepth: 8, SrcDepth: 4}
	g := NewGMN(cfg)
	g.Inject(Packet{Src: 0, Dst: 2, Bytes: 32}, 0)
	g.Inject(Packet{Src: 1, Dst: 2, Bytes: 32}, 0)
	var arrivals []uint64
	for cyc := uint64(0); cyc < 100 && len(arrivals) < 2; cyc++ {
		g.Tick(cyc)
		for {
			if _, ok := g.Deliver(2, cyc); !ok {
				break
			}
			arrivals = append(arrivals, cyc)
		}
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if gap := arrivals[1] - arrivals[0]; gap < 8 {
		t.Fatalf("second packet arrived %d cycles after the first; destination port did not serialize", gap)
	}
}

func TestMeshLatencyGrowsWithDistance(t *testing.T) {
	m := NewMesh(MeshConfig{Nodes: 16, RouterDelay: 2, QueueDepth: 4})
	measure := func(dst int) uint64 {
		mm := NewMesh(MeshConfig{Nodes: 16, RouterDelay: 2, QueueDepth: 4})
		mm.Inject(Packet{Src: 0, Dst: dst, Bytes: 4}, 0)
		for cyc := uint64(0); cyc < 1000; cyc++ {
			mm.Tick(cyc)
			if _, ok := mm.Deliver(dst, cyc); ok {
				return cyc
			}
		}
		t.Fatalf("packet to %d never arrived", dst)
		return 0
	}
	near := measure(1) // one hop
	far := measure(15) // opposite corner
	if far <= near {
		t.Fatalf("corner-to-corner latency %d not greater than neighbour latency %d", far, near)
	}
	_ = m
}

func TestMeshAllPairsDeliver(t *testing.T) {
	const nodes = 9
	m := NewMesh(DefaultMeshConfig(nodes))
	// One clock throughout: a refused Inject ticks the cycle and moves on,
	// and what is delivered meanwhile counts.
	want, total, cyc := 0, 0, uint64(0)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s == d {
				continue
			}
			want++
			for ; m.Inject(Packet{Src: s, Dst: d, Bytes: 4}, cyc) != Sent; cyc++ {
				m.Tick(cyc)
				for n := 0; n < nodes; n++ {
					for {
						if _, ok := m.Deliver(n, cyc); !ok {
							break
						}
						total++
					}
				}
			}
		}
	}
	got := drive(t, m, cyc, 100000)
	for _, ps := range got { //lint:allow maprange — order-independent sum
		total += len(ps)
	}
	if total != want {
		t.Fatalf("delivered %d of %d packets", total, want)
	}
}

func TestBusSerializesGlobally(t *testing.T) {
	// Two transactions from different sources cannot overlap: the
	// second starts only after the first tenure completes.
	b := NewBus(BusConfig{Nodes: 3, ArbDelay: 2, QueueDepth: 4})
	b.Inject(Packet{Src: 0, Dst: 2, Bytes: 40}, 0) // 10 flits
	b.Inject(Packet{Src: 1, Dst: 2, Bytes: 40}, 0)
	var arrivals []uint64
	for cyc := uint64(0); cyc < 200 && len(arrivals) < 2; cyc++ {
		b.Tick(cyc)
		for {
			if _, ok := b.Deliver(2, cyc); !ok {
				break
			}
			arrivals = append(arrivals, cyc)
		}
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if gap := arrivals[1] - arrivals[0]; gap < 12 {
		t.Fatalf("second tenure started %d cycles after the first; bus did not serialize", gap)
	}
}

func TestBusRoundRobinFairness(t *testing.T) {
	// Saturating senders each get tenures; no starvation.
	b := NewBus(DefaultBusConfig(4))
	counts := make([]int, 3)
	for cyc := uint64(0); cyc < 3000; cyc++ {
		for src := 0; src < 3; src++ {
			b.Inject(Packet{Src: src, Dst: 3, Bytes: 8}, cyc)
		}
		b.Tick(cyc)
		for {
			p, ok := b.Deliver(3, cyc)
			if !ok {
				break
			}
			counts[p.Src]++
		}
	}
	for src := 0; src < 3; src++ {
		if counts[src] == 0 {
			t.Fatalf("source %d starved: %v", src, counts)
		}
	}
	if max, min := counts[0], counts[0]; true {
		for _, c := range counts {
			if c > max {
				max = c
			}
			if c < min {
				min = c
			}
		}
		if max > min*2 {
			t.Fatalf("unfair arbitration: %v", counts)
		}
	}
}

func TestMeshLatencyFormula(t *testing.T) {
	if MeshLatency(1, 2, 3) < 3 {
		t.Fatal("latency below overhead")
	}
	if MeshLatency(64, 2, 3) <= MeshLatency(4, 2, 3) {
		t.Fatal("latency must grow with node count")
	}
}

// mustPanic runs f and returns what it panicked with, rendered.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

// TestConstructorsRejectBadConfigs: a depth, delay or node count no
// network can have is refused with the field's name, not clamped into
// some other network (core.Config.normalize reports the same Validate
// error without the panic).
func TestConstructorsRejectBadConfigs(t *testing.T) {
	cases := []struct {
		want string
		mk   func()
	}{
		{"GMN Nodes = 0", func() { NewGMN(GMNConfig{}) }},
		{"GMN Delay = 0", func() { NewGMN(GMNConfig{Nodes: 2, FIFODepth: 1, SrcDepth: 1}) }},
		{"GMN FIFODepth = -1", func() { NewGMN(GMNConfig{Nodes: 2, Delay: 1, FIFODepth: -1, SrcDepth: 1}) }},
		{"GMN SrcDepth = 0", func() { NewGMN(GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 1}) }},
		{"mesh Nodes = -4", func() { NewMesh(MeshConfig{Nodes: -4, RouterDelay: 2, QueueDepth: 4}) }},
		{"mesh RouterDelay = 0", func() { NewMesh(MeshConfig{Nodes: 4, QueueDepth: 4}) }},
		{"mesh QueueDepth = 0", func() { NewMesh(MeshConfig{Nodes: 4, RouterDelay: 3}) }},
		{"bus Nodes = 0", func() { NewBus(BusConfig{QueueDepth: 4}) }},
		{"bus ArbDelay = -2", func() { NewBus(BusConfig{Nodes: 4, ArbDelay: -2, QueueDepth: 4}) }},
		{"bus QueueDepth = 0", func() { NewBus(BusConfig{Nodes: 4}) }},
	}
	for _, c := range cases {
		if got := mustPanic(t, c.mk); !strings.Contains(got, c.want) {
			t.Errorf("panic %q does not name %q", got, c.want)
		}
	}
	NewBus(BusConfig{Nodes: 4, QueueDepth: 1}) // no arbitration delay is a legal bus
}

func TestInjectOutOfRangeNamesEndpoints(t *testing.T) {
	for _, nc := range nets(9) {
		got := mustPanic(t, func() { nc.mk().Inject(Packet{Src: 3, Dst: 9, Bytes: 4}, 0) })
		if want := "packet 3->9 outside the network's 9 nodes"; !strings.Contains(got, want) {
			t.Errorf("%s: panic %q does not say %q", nc.name, got, want)
		}
	}
}
