package noc

import (
	"fmt"
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

func TestDelivery(t *testing.T) {
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk()
			if !n.Inject(Packet{Src: 0, Dst: 8, Bytes: 12, Payload: "hello"}, 0) {
				t.Fatal("inject refused on an idle network")
			}
			got := drive(t, n, 0, 1000)
			if len(got[8]) != 1 || got[8][0].Payload != "hello" {
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
			if !n.Inject(Packet{Src: 0, Dst: 3, Bytes: 8, Payload: "p"}, 0) {
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
					if p.Payload != "p" {
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

// TestMinTransitIsTheIdleOneFlitTransit pins the lookahead each model
// states where no pinned run can see it (every coherence message is two
// flits or more, so a bound a cycle or two too long passes them all): a
// one-flit packet a node injects at cycle t on an idle network — the
// node's turn, then the network's, as the engine orders them — is
// deliverable at exactly t + MinTransit(), for configurations off the
// defaults too. The mesh's bound is its last hop, ejection one flit
// after a packet reaches its own router; only a self-send is that close.
func TestMinTransitIsTheIdleOneFlitTransit(t *testing.T) {
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
		{"mesh", NewMesh(DefaultMeshConfig(9)), 4, 4, 1},
		{"mesh/delay=3", NewMesh(MeshConfig{Nodes: 4, RouterDelay: 3, QueueDepth: 1}), 0, 0, 1},
	} {
		if got := c.n.MinTransit(); got != c.want {
			t.Errorf("%s: MinTransit() = %d, want %d", c.name, got, c.want)
		}
		const at = 5
		for cyc := uint64(0); cyc < at+100; cyc++ {
			if cyc == at && !c.n.Inject(Packet{Src: c.src, Dst: c.dst, Bytes: FlitBytes}, cyc) {
				t.Fatalf("%s: idle network refused the packet", c.name)
			}
			c.n.Tick(cyc)
			if arr := c.n.ArrivalAt(c.dst); arr != sim.NoWake {
				if arr != at+c.n.MinTransit() || cyc != at {
					t.Errorf("%s: injected at %d, deliverable at %d (known at %d), want %d known at once",
						c.name, at, arr, cyc, at+c.n.MinTransit())
				}
				break
			}
		}
		if _, ok := c.n.Deliver(c.dst, at+c.n.MinTransit()-1); ok {
			t.Errorf("%s: delivered a cycle early", c.name)
		}
		if _, ok := c.n.Deliver(c.dst, at+c.n.MinTransit()); !ok {
			t.Errorf("%s: not delivered at inject + MinTransit", c.name)
		}
	}
}

func TestPerPairOrdering(t *testing.T) {
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			n := nc.mk()
			const count = 20
			sent := 0
			for cyc := 0; sent < count && cyc < 10000; cyc++ {
				if n.Inject(Packet{Src: 2, Dst: 7, Bytes: 4 + (sent%3)*16, Payload: sent}, uint64(cyc)) {
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
					if n.Inject(Packet{Src: 2, Dst: 7, Bytes: 4 + (sent%3)*16, Payload: sent}, uint64(cyc)) {
						sent++
					}
				}
				n.Tick(uint64(cyc))
				for {
					p, ok := n.Deliver(7, uint64(cyc))
					if !ok {
						break
					}
					order = append(order, p.Payload.(int))
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
						Payload: nextSeq[k],
					})
					nextSeq[k]++
				}
				i := 0
				for cyc := 0; cyc < 100000; cyc++ {
					if i < len(pending) && n.Inject(pending[i], uint64(cyc)) {
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
							if p.Payload.(int) != wantSeq[k] {
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
	if !g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 0) {
		t.Fatal("first inject refused")
	}
	if g.Inject(Packet{Src: 0, Dst: 1, Bytes: 4}, 0) {
		t.Fatal("second inject accepted with a full source queue")
	}
	if g.Stats().InjectStallCycles != 1 {
		t.Fatalf("stall not counted: %+v", g.Stats())
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
			for ; !m.Inject(Packet{Src: s, Dst: d, Bytes: 4, Payload: fmt.Sprintf("%d->%d", s, d)}, cyc); cyc++ {
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
