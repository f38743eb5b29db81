package noc

import (
	"fmt"
	"testing"
)

// BenchmarkNoC prices one simulated cycle of each model the way
// sim.Engine.advance spends it: the nodes take their turn (every sink
// drains its arrivals, sources inject), then the network is asked
// NextWake(now) and ticked only if that is due. One op is one cycle.
//
// Three offered loads, none of them tuned to a model: sparse is one
// packet every 16 cycles from a rotating source (the network mostly
// sleeps, so this prices the question), pin-like one every 2 cycles (the
// benchmark's mesh pin offers 0.47 a cycle), and saturated has every
// source offer every cycle, re-offering what was refused (this prices
// Tick under full queues, and Inject's refusal path). ticks/cycle is
// the share of cycles the network's Tick ran.
func BenchmarkNoC(b *testing.B) {
	loads := []struct {
		name  string
		every int // one new packet per this many cycles; 0 = every source every cycle
	}{{"sparse", 16}, {"pinlike", 2}, {"saturated", 0}}
	sizes := [...]int{4, 8, 40}
	for _, nodes := range []int{35, 131} {
		for _, nc := range nets(nodes) {
			for _, load := range loads {
				b.Run(fmt.Sprintf("%s/n%d/%s", nc.name, nodes, load.name), func(b *testing.B) {
					n := nc.mk()
					lcg := uint32(1)
					packet := func(src int) Packet {
						lcg = lcg*1664525 + 1013904223
						dst := int(lcg>>16) % nodes
						if dst == src {
							dst = (src + 1) % nodes
						}
						return Packet{Src: src, Dst: dst, Bytes: sizes[int(lcg>>8)%len(sizes)]}
					}
					// offer[src] is the packet src is trying to inject.
					offer := make([]Packet, nodes)
					for src := range offer {
						offer[src] = packet(src)
					}
					ticks := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						now := uint64(i)
						for node := 0; node < nodes; node++ {
							for n.ArrivalAt(node) <= now {
								n.Deliver(node, now)
							}
							if load.every == 0 && n.Inject(offer[node], now) == Sent {
								offer[node] = packet(node)
							}
						}
						if load.every != 0 && i%load.every == 0 {
							n.Inject(packet(i/load.every%nodes), now)
						}
						if n.NextWake(now) <= now {
							n.Tick(now)
							ticks++
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
					b.ReportMetric(float64(ticks)/float64(b.N), "ticks/cycle")
				})
			}
		}
	}
}
