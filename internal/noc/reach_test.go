package noc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/noc"
)

// tap is a model as the fault layer sees it, reporting every packet
// handed over — suppressed duplicates included — with the cycle it was
// deliverable from.
type tap struct {
	noc.Network
	got func(node int, at uint64, p noc.Packet)
}

func (t tap) Deliver(node int, now uint64) (noc.Packet, bool) {
	at := t.ArrivalAt(node)
	p, ok := t.Network.Deliver(node, now)
	if ok {
		t.got(node, at, p)
	}
	return p, ok
}

// TestReachBoundsEveryDelivery holds every model to Reach's contract on
// random traffic — one-flit packets and self-sends among it, at loads from
// sparse to saturating — bare and behind a fault.Net staging delayed and
// duplicated transfers. Before cycle t's offers, Reach(d, t) is asked for
// every d; a packet from another node that reaches d's arrival port in
// cycle t' — at its offer, as a GMN packet may, or in Tick(t') — must be
// deliverable no sooner than every Reach(d, ·) asked up to t', while it
// was not there. Each configuration must also deliver some
// packet exactly at its bound: one a cycle too long — which every pinned
// run passes, coherence messages being two flits or more — fails.
func TestReachBoundsEveryDelivery(t *testing.T) {
	const nodes, genCycles, seeds = 9, 300, 6
	type model struct {
		name string
		mk   func() noc.Network
	}
	models := []model{
		{"gmn", func() noc.Network { return noc.NewGMN(noc.DefaultGMNConfig(nodes)) }},
		{"gmn/delay=1", func() noc.Network {
			return noc.NewGMN(noc.GMNConfig{Nodes: nodes, Delay: 1, FIFODepth: 1, SrcDepth: 1})
		}},
		{"bus", func() noc.Network { return noc.NewBus(noc.DefaultBusConfig(nodes)) }},
		{"bus/arb=0", func() noc.Network { return noc.NewBus(noc.BusConfig{Nodes: nodes, ArbDelay: 0, QueueDepth: 4}) }},
	}
	for rd := 1; rd <= 3; rd++ {
		for _, q := range []int{1, 4} {
			cfg := noc.MeshConfig{Nodes: nodes, RouterDelay: rd, QueueDepth: q}
			models = append(models, model{fmt.Sprintf("mesh/delay=%d/depth=%d", rd, q), func() noc.Network { return noc.NewMesh(cfg) }})
		}
	}
	for _, m := range models {
		for _, wrap := range []bool{false, true} {
			name := m.name
			if wrap {
				name += "/fault"
			}
			t.Run(name, func(t *testing.T) {
				var checked, tight int
				for seed := 1; seed <= seeds; seed++ {
					c, k := reachRun(t, m.mk(), wrap, seed, nodes, genCycles)
					checked, tight = checked+c, tight+k
				}
				if tight == 0 {
					t.Fatalf("%d deliveries checked, none at its bound: the bound is not seen", checked)
				}
			})
		}
	}
}

// reachRun drives one seed's traffic through inner, wrapped or not, and
// returns how many deliveries it checked and how many came exactly at
// their bound.
func reachRun(t *testing.T, inner noc.Network, wrap bool, seed, nodes, genCycles int) (checked, tight int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	load := []float64{0.03, 0.1, 0.3, 0.8}[seed%4]
	// bound[d][t] is the largest Reach(d, ·) asked up to cycle t;
	// entered[d] the cycle each packet in d's arrival port arrived in.
	bound, entered := make([][]uint64, nodes), make([][]uint64, nodes)
	var net noc.Network = tap{inner, func(d int, at uint64, p noc.Packet) {
		te := entered[d][0]
		entered[d] = entered[d][1:]
		if p.Src == p.Dst {
			return // its sender's own: outside the contract
		}
		checked++
		if b := bound[d][te]; at < b {
			t.Fatalf("seed %d: packet %d->%d (%d bytes) reached its port in cycle %d, deliverable at %d, sooner than Reach %d",
				seed, p.Src, p.Dst, p.Bytes, te, at, b)
		} else if at == b {
			tight++
		}
	}}
	if wrap {
		plan, err := fault.ParsePlan(fmt.Sprintf("delay=0.1:5,dup=0.1,seed=%d", seed))
		if err != nil {
			t.Fatal(err)
		}
		net = fault.Wrap(net, plan, nodes, nodes)
	}
	backlog := make([][]noc.Packet, nodes)
	pending := 0
	for now := uint64(0); now < uint64(genCycles) || pending > 0; now++ {
		if now > 100_000 {
			t.Fatalf("seed %d: not drained after %d cycles", seed, now)
		}
		arrived := make([]int, nodes)
		for d := range bound {
			r := net.Reach(d, now)
			if r <= now {
				t.Fatalf("seed %d: Reach(%d, %d) = %d, not ahead", seed, d, now, r)
			}
			if now > 0 {
				r = max(r, bound[d][now-1])
			}
			bound[d] = append(bound[d], r)
			arrived[d] = noc.Arrived(inner, d)
		}
		for src := range backlog {
			if now < uint64(genCycles) && rng.Float64() < load {
				bytes := []int{1, 4, 8, 40}[rng.Intn(4)]
				backlog[src] = append(backlog[src], noc.Packet{Src: src, Dst: rng.Intn(nodes), Bytes: bytes})
				pending++
			}
			for len(backlog[src]) > 0 && net.Inject(backlog[src][0], now) == noc.Sent {
				backlog[src] = backlog[src][1:]
			}
		}
		net.Tick(now)
		for d := range entered {
			for k := arrived[d]; k < noc.Arrived(inner, d); k++ {
				entered[d] = append(entered[d], now)
			}
			for net.ArrivalAt(d) <= now {
				if _, ok := net.Deliver(d, now); !ok {
					break
				}
				pending--
			}
		}
	}
	return checked, tight
}
