package noc

import (
	"fmt"
	"strings"
	"testing"
)

// scriptedTraffic drives one fixed, contended script through n and
// returns everything the models are pinned on: each packet's delivery
// cycle (indexed by packet id), the final Stats (InjectStallCycles
// included) and PortFlits, and a hash of every cycle's wholeWake answer
// (NextWake folded with the arrivals, which is what NextWake itself
// answered when the hashes were recorded).
//
// The script is an LCG, so it is the same on every model and every
// commit: three new packets per cycle for 40 cycles over 9 nodes, half
// of them aimed at node 4 (the mesh's centre router, the GMN's hottest
// delay FIFO, one more bus tenure), sizes of 1, 2 and 10 flits. Sources
// offer their backlog in order until refused, as coherence.Node does,
// and every sink refuses one cycle in three, so injection backpressure,
// full internal FIFOs and delivered-but-unconsumed packets all occur.
// No packet may be delivered sooner than the network's Reach for its
// destination, asked as the cycle after its Inject opens (the network
// ticks before the nodes act here).
func scriptedTraffic(t *testing.T, n Network) string {
	t.Helper()
	const nodes, genCycles, perCycle = 9, 40, 3
	sizes := [...]int{4, 8, 40}
	lcg := uint32(12345)
	next := func(mod int) int {
		lcg = lcg*1664525 + 1013904223
		return int(lcg>>16) % mod
	}
	backlog := make([][]Packet, nodes)
	delivered := make([]int, 0, genCycles*perCycle)
	var reach [genCycles * perCycle]uint64 // Reach(Dst, ·) as the cycle after each packet's Inject opens
	pending, wakeHash := 0, uint64(14695981039346656037)
	for cyc := uint64(0); ; cyc++ {
		if cyc > 20000 {
			t.Fatalf("script not drained after %d cycles", cyc)
		}
		wakeHash = (wakeHash ^ wholeWake(n, cyc)) * 1099511628211
		if cyc < genCycles {
			for i := 0; i < perCycle; i++ {
				src, dst := next(nodes), 4
				if next(2) == 0 {
					dst = next(nodes)
				}
				if dst == src {
					dst = (src + 1) % nodes
				}
				backlog[src] = append(backlog[src], Packet{
					Src: src, Dst: dst, Bytes: sizes[next(len(sizes))], Ref: uint32(len(delivered)),
				})
				delivered = append(delivered, -1)
				pending++
			}
		}
		n.Tick(cyc)
		for node := 0; node < nodes; node++ {
			for (cyc+uint64(node))%3 != 0 && n.ArrivalAt(node) <= cyc {
				p, ok := n.Deliver(node, cyc)
				if !ok || p.Dst != node {
					t.Fatalf("cycle %d node %d: arrival due but Deliver = %+v, %v", cyc, node, p, ok)
				}
				if r := reach[int(p.Ref)]; cyc < r {
					t.Fatalf("packet %d delivered at %d, sooner than Reach = %d", p.Ref, cyc, r)
				}
				delivered[int(p.Ref)] = int(cyc)
				pending--
			}
			for len(backlog[node]) > 0 && n.Inject(backlog[node][0], cyc) == Sent {
				reach[int(backlog[node][0].Ref)] = n.Reach(backlog[node][0].Dst, cyc+1)
				backlog[node] = backlog[node][1:]
			}
		}
		if cyc >= genCycles && pending == 0 {
			break
		}
	}
	if !n.Quiet() {
		t.Fatal("every packet delivered but the network is not quiet")
	}
	return fmt.Sprintf("deliveries=%v\nstats=%+v\nportflits=%v\nwakehash=%x\n",
		delivered, n.Stats(), n.PortFlits(), wakeHash)
}

// TestScriptedTrafficPin holds the three models to the cycle: delivery
// times, traffic counters and stall counts for the fixed script — the
// pins' lines above wakehash= — captured before the queues moved onto
// sim.Port (ROADMAP item 3: pin the arbiters before touching them). A
// deliberate change to a model's timing rewrites its entry; nothing
// else may.
func TestScriptedTrafficPin(t *testing.T) {
	for _, nc := range nets(9) {
		t.Run(nc.name, func(t *testing.T) {
			got, _, _ := strings.Cut(scriptedTraffic(t, nc.mk()), "wakehash=")
			if want, _, _ := strings.Cut(scriptedPins[nc.name], "wakehash="); got != want {
				t.Errorf("scripted traffic moved.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestScriptedWakePin holds every cycle's wholeWake answer on the same
// script to the pins' wakehash= lines, apart from the traffic so that
// a change of answers cannot hide a change of timing or the reverse.
func TestScriptedWakePin(t *testing.T) {
	for _, nc := range nets(9) {
		_, got, _ := strings.Cut(scriptedTraffic(t, nc.mk()), "wakehash=")
		if _, want, _ := strings.Cut(scriptedPins[nc.name], "wakehash="); got != want {
			t.Errorf("%s: NextWake answers hash to %swant %s", nc.name, got, want)
		}
	}
}

// TestMeshRoundRobinGrantOrder: inputs fighting for one output are
// granted in rr order — the pointer moves past each winner, so with
// every contender backlogged the grants rotate east, west, north,
// south. All sources are one hop from node 4 and inject together, so
// their packets reach router 4 in the same cycle and only the arbiter
// orders them.
func TestMeshRoundRobinGrantOrder(t *testing.T) {
	cases := []struct {
		name string
		srcs []int // neighbours of node 4 in a 3×3 mesh
		want string
	}{
		{"east-west", []int{3, 5}, "[5 3 5 3 5 3 5 3]"},
		{"all-four", []int{7, 1, 3, 5}, "[5 3 1 7 5 3 1 7 5 3 1 7 5 3 1 7]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMesh(DefaultMeshConfig(9))
			const each = 4
			for i := 0; i < each; i++ {
				for _, s := range c.srcs {
					if m.Inject(Packet{Src: s, Dst: 4, Bytes: 8}, 0) != Sent {
						t.Fatalf("inject %d from %d refused", i, s)
					}
				}
			}
			var order []int
			for cyc := uint64(0); cyc < 1000 && len(order) < each*len(c.srcs); cyc++ {
				m.Tick(cyc)
				for {
					p, ok := m.Deliver(4, cyc)
					if !ok {
						break
					}
					order = append(order, p.Src)
				}
			}
			if got := fmt.Sprint(order); got != c.want {
				t.Errorf("grant order %s, want %s", got, c.want)
			}
		})
	}
}

// scriptedPins are scriptedTraffic's outputs at the commit before the
// queues moved onto sim.Port — but for the mesh's wakehash, re-recorded
// in PR 18 (was d1d8259a3dbba43) when Mesh.NextWake stopped answering
// "now while any head is ready" and began waiting out busy output
// links. Which later answers are right is not for a hash to say:
// TestDifferentialRig's soundness and tightness properties guard them.
// The gmn and bus answers, now read off occupancy bits instead of a
// scan, did not move then; the gmn's wakehash was re-recorded (was
// 8b52d97764c7e5e8) when a head held by a full FIFO began to wait parked
// instead of answering now.
var scriptedPins = map[string]string{
	"gmn": `deliveries=[28 38 30 12 31 29 30 51 63 32 90 13 33 73 32 117 19 42 48 32 63 81 33 94 48 33 36 151 36 35 52 46 54 22 76 53 119 32 106 48 137 237 240 120 119 132 174 25 45 70 267 116 237 50 114 106 55 118 258 216 212 121 288 226 289 291 153 252 136 51 57 216 153 38 163 61 192 252 141 228 204 63 183 186 147 274 57 57 59 75 56 62 300 214 187 76 255 76 154 73 246 256 159 69 249 189 256 78 189 239 192 72 93 96 276 257 277 90 202 96]
stats={Packets:120 TotalFlits:555 TotalBytes:2220 InjectStallCycles:959}
portflits=[57 32 90 77 40 64 57 86 52]
wakehash=3a82ed167090b084
`,
	"mesh": `deliveries=[36 23 15 6 15 61 25 40 55 26 87 8 13 39 27 120 19 56 42 27 66 90 37 144 48 29 27 52 28 29 15 75 39 16 74 35 30 44 175 48 34 145 177 142 176 99 156 45 78 58 220 34 132 51 132 128 91 54 168 159 65 78 246 199 262 268 210 223 202 156 169 185 235 32 258 68 160 247 109 213 165 155 141 261 264 257 78 53 54 222 62 56 279 187 264 121 165 91 257 73 211 191 153 168 210 267 267 162 270 240 280 171 189 225 234 260 258 215 291 246]
stats={Packets:120 TotalFlits:978 TotalBytes:2220 InjectStallCycles:460}
portflits=[57 32 90 77 40 64 57 86 52]
wakehash=450555d567a8eeba
`,
	"bus": `deliveries=[13 86 18 21 90 50 63 120 177 74 241 26 93 135 38 292 142 207 117 123 174 229 264 280 333 179 109 390 24 245 112 105 304 139 355 362 455 146 411 195 517 210 268 357 423 261 498 150 222 161 345 320 562 272 486 539 348 183 393 378 590 249 466 450 522 565 576 513 608 396 469 551 655 426 699 533 543 585 316 624 579 569 373 721 753 593 225 509 548 597 276 582 640 621 772 351 628 652 775 688 684 715 438 717 667 778 672 399 781 702 784 750 474 537 745 734 756 768 796 573]
stats={Packets:120 TotalFlits:555 TotalBytes:2220 InjectStallCycles:4306}
portflits=[57 32 90 77 40 64 57 86 52]
wakehash=f97882c72a053e7f
`,
}
