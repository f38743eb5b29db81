package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/noc"
	"repro/internal/sim"
)

// fakeNet is a trivial zero-latency noc.Network: injected packets are
// immediately deliverable at their destination, in injection order.
type fakeNet struct {
	queues  map[int][]noc.Packet
	injects []noc.Packet
	ticks   int
	reject  bool // refuse all injections (backpressure)
}

func newFakeNet() *fakeNet {
	return &fakeNet{queues: make(map[int][]noc.Packet)}
}

func (f *fakeNet) Inject(p noc.Packet, now uint64) noc.Fate {
	if f.reject {
		return noc.Refused
	}
	f.injects = append(f.injects, p)
	f.queues[p.Dst] = append(f.queues[p.Dst], p)
	return noc.Sent
}

func (f *fakeNet) Deliver(node int, now uint64) (noc.Packet, bool) {
	q := f.queues[node]
	if len(q) == 0 {
		return noc.Packet{}, false
	}
	p := q[0]
	f.queues[node] = q[1:]
	return p, true
}

func (f *fakeNet) Attach(self sim.Waker, nodes []sim.Waker) {}
func (f *fakeNet) Tick(now uint64) uint64                   { f.ticks++; return f.NextWake(now + 1) }
func (f *fakeNet) Stats() noc.Stats                         { return noc.Stats{} }
func (f *fakeNet) PortFlits() []uint64                      { return nil }
func (f *fakeNet) Reach(dst int, now uint64) uint64         { return now + 1 }

func (f *fakeNet) ArrivalAt(node int) uint64 {
	if len(f.queues[node]) > 0 {
		return 0
	}
	return sim.NoWake
}

func (f *fakeNet) NextWake(now uint64) uint64 {
	if f.Quiet() {
		return ^uint64(0)
	}
	return now
}

func (f *fakeNet) Quiet() bool {
	for _, q := range f.queues { //lint:allow maprange — an all-empty test is order-independent
		if len(q) > 0 {
			return false
		}
	}
	return true
}

func mustPlan(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWrapRejectsEmptyPlan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Wrap of an empty plan must panic: the zero-fault path must stay unwrapped")
		}
	}()
	Wrap(newFakeNet(), nil, 4, 2)
}

func TestNetDropNotifiesSender(t *testing.T) {
	inner := newFakeNet()
	n := Wrap(inner, mustPlan(t, "drop=1,seed=3"), 4, 2)
	if got := n.Inject(noc.Packet{Src: 0, Dst: 2, Bytes: 8}, 0); got != noc.Lost {
		t.Fatalf("Inject under drop=1 answered %d; want Lost", got)
	}
	if len(inner.injects) != 0 {
		t.Fatal("dropped transfer must never reach the wrapped network")
	}
	if st := n.FaultStats(); st.Drops != 1 {
		t.Fatalf("Drops = %d; want 1", st.Drops)
	}
	// A plain backpressure rejection must NOT read as a drop.
	nd := Wrap(newFakeNet(), mustPlan(t, "dup=0,delay=0:1,seed=3"), 4, 2)
	nd.Network.(*fakeNet).reject = true
	if got := nd.Inject(noc.Packet{Src: 1, Dst: 2}, 0); got != noc.Refused {
		t.Fatalf("backpressured Inject answered %d; want Refused", got)
	}
}

func TestNetDelayHoldsAndPreservesFIFO(t *testing.T) {
	inner := newFakeNet()
	n := Wrap(inner, mustPlan(t, "delay=1:5,seed=3"), 4, 2)
	if n.Inject(noc.Packet{Src: 0, Dst: 2, Bytes: 4}, 10) != noc.Sent {
		t.Fatal("delayed Inject must report acceptance")
	}
	if n.Inject(noc.Packet{Src: 0, Dst: 3, Bytes: 8}, 11) != noc.Sent {
		t.Fatal("second Inject must report acceptance")
	}
	for now := uint64(10); now < 15; now++ {
		n.Tick(now)
		if len(inner.injects) != 0 {
			t.Fatalf("cycle %d: transfer released before its 5-cycle delay", now)
		}
		if n.Quiet() {
			t.Fatal("staged transfers must keep the network non-quiet")
		}
	}
	n.Tick(15)
	if len(inner.injects) != 1 || inner.injects[0].Dst != 2 {
		t.Fatalf("cycle 15: want exactly the first transfer released, got %+v", inner.injects)
	}
	n.Tick(16)
	if len(inner.injects) != 2 || inner.injects[1].Dst != 3 {
		t.Fatalf("cycle 16: want the second transfer released in order, got %+v", inner.injects)
	}
	st := n.FaultStats()
	if st.Delayed != 2 || st.DelayCycles != 10 {
		t.Fatalf("Delayed/DelayCycles = %d/%d; want 2/10", st.Delayed, st.DelayCycles)
	}
}

// A transfer whose own delay draw misses must still queue behind an
// earlier staged transfer from the same source — per-source order is
// part of the FIFO guarantee the protocols rely on.
func TestNetDelayFollowerStaysOrdered(t *testing.T) {
	inner := newFakeNet()
	n := Wrap(inner, mustPlan(t, "delay=1:3@*>2,seed=3"), 4, 2)
	if n.Inject(noc.Packet{Src: 0, Dst: 2}, 0) != noc.Sent { // delayed to cycle 3
		t.Fatal("first Inject rejected")
	}
	if n.Inject(noc.Packet{Src: 0, Dst: 3}, 0) != noc.Sent { // out of scope, but must follow
		t.Fatal("second Inject rejected")
	}
	if n.Inject(noc.Packet{Src: 1, Dst: 3}, 0) != noc.Sent { // other source: goes straight through
		t.Fatal("third Inject rejected")
	}
	if len(inner.injects) != 1 || inner.injects[0].Src != 1 {
		t.Fatalf("want only the src-1 transfer through immediately, got %+v", inner.injects)
	}
	n.Tick(2)
	if len(inner.injects) != 1 {
		t.Fatalf("cycle 2: staged transfers released early: %+v", inner.injects)
	}
	n.Tick(3)
	if len(inner.injects) != 3 || inner.injects[1].Dst != 2 || inner.injects[2].Dst != 3 {
		t.Fatalf("cycle 3: want src-0 transfers released in order, got %+v", inner.injects)
	}
}

func TestNetDuplicateSuppressedAtDelivery(t *testing.T) {
	inner := newFakeNet()
	n := Wrap(inner, mustPlan(t, "dup=1,seed=3"), 4, 2)
	want := noc.Packet{Src: 0, Dst: 2, Bytes: 8, Ref: 7}
	if n.Inject(want, 0) != noc.Sent {
		t.Fatal("Inject rejected")
	}
	n.Tick(0)
	if len(inner.injects) != 2 {
		t.Fatalf("want original + duplicate in the wrapped network, got %d transfers", len(inner.injects))
	}
	got, ok := n.Deliver(2, 1)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Deliver = %+v, %v; want the original packet", got, ok)
	}
	if _, ok := n.Deliver(2, 1); ok {
		t.Fatal("the duplicate must be suppressed, not delivered")
	}
	st := n.FaultStats()
	if st.Dups != 1 || st.DupsSuppressed != 1 {
		t.Fatalf("Dups/DupsSuppressed = %d/%d; want 1/1", st.Dups, st.DupsSuppressed)
	}
}

func TestNetBankStallFreezesDelivery(t *testing.T) {
	inner := newFakeNet()
	// Banks are nodes 2 and 3; only bank index 1 (node 3) stalls.
	n := Wrap(inner, mustPlan(t, "bankstall=1:3@1,seed=3"), 4, 2)
	if n.Inject(noc.Packet{Src: 0, Dst: 3}, 0) != noc.Sent {
		t.Fatal("Inject rejected")
	}
	n.Tick(0) // opens the stall window: cycles 0..2 frozen
	if n.ArrivalAt(3) != 3 {
		t.Fatal("stalled bank must refuse delivery until the window closes")
	}
	if _, ok := n.Deliver(3, 0); ok {
		t.Fatal("stalled bank must deliver nothing")
	}
	if n.ArrivalAt(2) != inner.ArrivalAt(2) {
		t.Fatal("unstalled node delivery must pass through")
	}
	n.Tick(1)
	n.Tick(2)
	if n.ArrivalAt(3) <= 2 {
		t.Fatal("stall window must cover all 3 cycles")
	}
	// Window over at cycle 3; with rate=1 Tick(3) immediately opens the
	// next one, so check ArrivalAt before ticking.
	if n.ArrivalAt(3) > 3 {
		t.Fatal("delivery must resume when the window closes")
	}
	if _, ok := n.Deliver(3, 3); !ok {
		t.Fatal("packet must be deliverable after the window")
	}
	st := n.FaultStats()
	if st.StallWindows != 1 || st.StallCycles != 3 {
		t.Fatalf("StallWindows/StallCycles = %d/%d; want 1/3", st.StallWindows, st.StallCycles)
	}
}

func TestNetStagedRetriesOnBackpressure(t *testing.T) {
	inner := newFakeNet()
	n := Wrap(inner, mustPlan(t, "delay=1:1,seed=3"), 4, 2)
	if n.Inject(noc.Packet{Src: 0, Dst: 2}, 0) != noc.Sent {
		t.Fatal("Inject rejected")
	}
	inner.reject = true
	n.Tick(1)
	if n.Quiet() {
		t.Fatal("backpressured staged transfer must keep the network non-quiet")
	}
	inner.reject = false
	n.Tick(2)
	if len(inner.injects) != 1 {
		t.Fatal("staged transfer must be retried after backpressure clears")
	}
	if n.stagedN != 0 {
		t.Fatal("staging queue must drain")
	}
}

// TestReleaseKeepsSourceOrder: the GMN moves a cycle's offers in
// ascending source order, so a transfer source 0 staged — here the
// original and copy of a duplication — must reach it before source 1's
// fast-path offer of the same cycle, as both queued at the Tick before
// the GMN crossed offers at once. Forwarded first, source 1's packet
// would cross ahead of source 0's and leave the destination port first.
func TestReleaseKeepsSourceOrder(t *testing.T) {
	const at, delay = 4, 5
	inner := noc.NewGMN(noc.GMNConfig{Nodes: 3, Delay: delay, FIFODepth: 8, SrcDepth: 4})
	n := Wrap(inner, mustPlan(t, "dup=1@0>2,seed=1"), 3, 3)
	var got []string
	for now := uint64(0); now < 40; now++ {
		if now == at {
			for _, p := range []noc.Packet{{Src: 0, Dst: 2, Bytes: 8, Ref: 0}, {Src: 1, Dst: 2, Bytes: 4, Ref: 1}} {
				if n.Inject(p, now) != noc.Sent {
					t.Fatalf("offer %+v refused", p)
				}
			}
		}
		n.Tick(now)
		for p, ok := n.Deliver(2, now); ok; p, ok = n.Deliver(2, now) {
			got = append(got, fmt.Sprintf("%d@%d", p.Ref, now))
		}
	}
	// Packet 0 (2 flits) leaves the destination port at 4+2+5+2 = 13;
	// packet 1 (1 flit) crosses in the same cycle behind it, at 14.
	if want := "[0@13 1@14]"; fmt.Sprint(got) != want || n.FaultStats().DupsSuppressed != 1 {
		t.Fatalf("deliveries %v, want %s; %+v", got, want, n.FaultStats())
	}
}

// Same plan, same seed, same offered traffic → identical decisions.
// Different seed → a detectably different fault pattern.
func TestNetReplayDeterminism(t *testing.T) {
	run := func(spec string) (Stats, []noc.Packet) {
		inner := newFakeNet()
		n := Wrap(inner, mustPlan(t, spec), 8, 4)
		for now := uint64(0); now < 200; now++ {
			for src := 0; src < 4; src++ {
				p := noc.Packet{Src: src, Dst: 4 + src%4, Bytes: 4 + int(now%3)*4}
				if n.Inject(p, now) == noc.Refused {
					t.Fatal("fakeNet never backpressures; only a drop may turn a transfer away")
				}
			}
			n.Tick(now)
			for node := 4; node < 8; node++ {
				for n.ArrivalAt(node) <= now {
					n.Deliver(node, now)
				}
			}
		}
		return n.FaultStats(), inner.injects
	}
	const spec = "drop=0.1,delay=0.2:4,dup=0.05,bankstall=0.01:6,seed=42"
	st1, inj1 := run(spec)
	st2, inj2 := run(spec)
	if st1 != st2 || !reflect.DeepEqual(inj1, inj2) {
		t.Fatalf("identical campaigns diverged: %+v vs %+v", st1, st2)
	}
	if st1.Drops == 0 || st1.Delayed == 0 || st1.Dups == 0 {
		t.Fatalf("campaign injected no faults, test is vacuous: %+v", st1)
	}
	st3, _ := run("drop=0.1,delay=0.2:4,dup=0.05,bankstall=0.01:6,seed=43")
	if st1 == st3 {
		t.Fatal("different seeds produced an identical fault pattern")
	}
}

// edgeNode is one endpoint of the wake-edge harness: it drains what has
// arrived and offers its backlog in order, every cycle by hand or, as an
// engine ticker, asleep while it has nothing to offer and nothing has
// arrived — coherence.Node's shape, the arrival folded into its answer.
type edgeNode struct {
	net     *Net
	id      int
	script  [][]noc.Packet // packets offered per cycle, all nodes'
	offers  []uint64       // the cycles with one from this node, ascending
	backlog []noc.Packet
	at      []int // delivery cycle per packet id, shared by the nodes
	// reach is the network's Reach for each packet's destination, asked
	// the cycle its Inject was taken (the nodes act before the network),
	// shared too: staged or not, none is delivered sooner.
	reach []uint64
	t     *testing.T
}

func (n *edgeNode) Tick(now uint64) uint64 {
	for ; len(n.offers) > 0 && n.offers[0] == now; n.offers = n.offers[1:] {
		for _, p := range n.script[now] {
			if p.Src == n.id {
				n.backlog = append(n.backlog, p)
			}
		}
	}
	for n.net.ArrivalAt(n.id) <= now {
		p, ok := n.net.Deliver(n.id, now)
		if !ok {
			break // a suppressed duplicate was all there was
		}
		if r := n.reach[int(p.Ref)]; now < r {
			n.t.Fatalf("packet %d delivered at %d, sooner than Reach = %d", p.Ref, now, r)
		}
		n.at[int(p.Ref)] = int(now)
	}
	for len(n.backlog) > 0 && n.net.Inject(n.backlog[0], now) == noc.Sent {
		n.reach[int(n.backlog[0].Ref)] = n.net.Reach(n.backlog[0].Dst, now)
		n.backlog = n.backlog[1:]
	}
	return n.NextWake(now + 1)
}

func (n *edgeNode) NextWake(now uint64) uint64 {
	arrival := n.net.ArrivalAt(n.id)
	if len(n.backlog) > 0 || arrival <= now {
		return now
	}
	if len(n.offers) > 0 {
		return min(arrival, n.offers[0])
	}
	return arrival
}

func (n *edgeNode) Skip(from, to uint64) {}

// TestWakeEdgesUnderFaults is noc's TestWakeEdges for the wrapper: over
// the real GMN and mesh with a delay+dup+bankstall plan, the same sparse
// random traffic is run every-cycle by hand and on a sim.Engine that
// remembers wakes, with the Net registered as its own Sleeper. A staged
// transfer must wake the network's slot, Attach must reach the wrapped
// model, a stall window's end must show in ArrivalAt (no arrive
// announces it), and the draws of the cycles the network slept through
// must be replayed by Skip: any of them missing shows as a packet
// delivered in a different cycle, different fault counters, or a run
// that never drains. The wrapper states its inner model's Reach: a
// delayed or duplicated transfer enters it later than offered, never
// sooner, so no delivery may come earlier than the Reach asked as its
// Inject was taken.
func TestWakeEdgesUnderFaults(t *testing.T) {
	const cpus, nodes, genCycles, limit = 4, 8, 400, 20000
	models := map[string]func() noc.Network{
		"gmn":  func() noc.Network { return noc.NewGMN(noc.DefaultGMNConfig(nodes)) },
		"mesh": func() noc.Network { return noc.NewMesh(noc.DefaultMeshConfig(nodes)) },
	}
	for name, mk := range models { //lint:allow maprange — each model runs on its own
		var slept, stalls uint64
		for seed := uint64(1); seed <= 16; seed++ {
			// One packet every sixth cycle or so, so the network falls
			// quiet — asleep — between transfers while windows keep opening.
			script, ids := make([][]noc.Packet, genCycles), 0
			gen := streamRNG(seed, 9)
			for cyc := range script {
				if gen.chance(1.0 / 6) {
					src := int(gen.next() % nodes)
					dst := (src + 1 + int(gen.next()%(nodes-1))) % nodes
					script[cyc] = append(script[cyc], noc.Packet{Src: src, Dst: dst, Bytes: 4 + 4*int(gen.next()%8), Ref: uint32(ids)})
					ids++
				}
			}
			run := func(engine bool) ([]int, noc.Stats, Stats, uint64) {
				plan := mustPlan(t, "delay=0.2:6,dup=0.1,bankstall=0.02:9")
				plan.Seed = seed
				inner := mk()
				net := Wrap(inner, plan, nodes, cpus)
				at, reach := make([]int, ids), make([]uint64, ids)
				ns := make([]*edgeNode, nodes)
				for id := range ns {
					ns[id] = &edgeNode{net: net, id: id, script: script, at: at, reach: reach, t: t}
				}
				for cyc, offered := range script {
					for _, p := range offered {
						ns[p.Src].offers = append(ns[p.Src].offers, uint64(cyc))
					}
				}
				done := func() bool {
					for _, n := range ns {
						if len(n.offers) > 0 || len(n.backlog) > 0 {
							return false
						}
					}
					return net.Quiet()
				}
				if !engine {
					now := uint64(0)
					for ; !done() && now < limit; now++ {
						for _, n := range ns {
							n.Tick(now)
							if r, want := net.Reach(n.id, now), inner.Reach(n.id, now); r != want {
								t.Fatalf("%s cycle %d: wrapper states Reach(%d) = %d, the model it wraps %d", name, now, n.id, r, want)
							}
						}
						net.Tick(now)
					}
					return at, net.Stats(), net.FaultStats(), now
				}
				e := sim.NewEngine()
				wakers := make([]sim.Waker, nodes)
				for id, n := range ns {
					wakers[id] = e.Register("node", n)
				}
				net.Attach(e.Register("net", net), wakers)
				cycles, _ := e.Run(limit, done)
				slept += e.TickCounts()[1].Skipped
				return at, net.Stats(), net.FaultStats(), cycles
			}
			handAt, handStats, handFaults, handCycles := run(false)
			at, stats, faults, cycles := run(true)
			if handCycles == limit || cycles != handCycles || !reflect.DeepEqual(at, handAt) || stats != handStats || faults != handFaults {
				t.Fatalf("%s seed %d: %d cycles, %+v, %+v\ndeliveries  %v\nevery-cycle run: %d cycles, %+v, %+v\ndeliveries  %v",
					name, seed, cycles, stats, faults, at, handCycles, handStats, handFaults, handAt)
			}
			if faults.Delayed == 0 || faults.Dups == 0 || faults.DupsSuppressed != faults.Dups {
				t.Fatalf("%s seed %d: campaign too thin to mean anything: %+v", name, seed, faults)
			}
			stalls += faults.StallWindows
		}
		if slept == 0 || stalls == 0 {
			t.Fatalf("%s: network slept %d ticks, %d stall windows: the property was vacuous", name, slept, stalls)
		}
	}
}
