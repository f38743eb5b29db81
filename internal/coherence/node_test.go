package coherence

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
)

// recordSink collects delivered messages. It copies them: the
// delivered *Msg is the node's receive buffer, which the next delivery
// overwrites.
type recordSink struct {
	accept bool
	msgs   []Msg
}

func (s *recordSink) Accept(now uint64) bool       { return s.accept }
func (s *recordSink) HandleMsg(m *Msg, now uint64) { s.msgs = append(s.msgs, *m) }

func TestNodeOutboundFIFOOrder(t *testing.T) {
	msgs := new(msgSlab)
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 8, SrcDepth: 4})
	sinks := []*recordSink{{accept: true}, {accept: true}}
	n0 := newNode(0, net, sinks[0], msgs)
	n1 := newNode(1, net, sinks[1], msgs)

	// Interleave ctrl and request sends: wire order must match enqueue
	// order regardless of class.
	n0.SendCtrl(Msg{Kind: RspInvAck, Addr: 1}, 1, 0)
	if !n0.CanSendReq() {
		t.Fatal("request refused below bound")
	}
	n0.SendCtrl(Msg{Kind: ReqRead, Addr: 2}, 1, 0)
	n0.SendCtrl(Msg{Kind: RspInvAck, Addr: 3}, 1, 0)

	for cyc := uint64(0); cyc < 100 && len(sinks[1].msgs) < 3; cyc++ {
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(sinks[1].msgs) != 3 {
		t.Fatalf("delivered %d messages", len(sinks[1].msgs))
	}
	for i, want := range []uint32{1, 2, 3} {
		if sinks[1].msgs[i].Addr != want {
			t.Fatalf("message %d has addr %d, want %d (FIFO order broken)", i, sinks[1].msgs[i].Addr, want)
		}
	}
}

// A port with a tracing recorder and no Trace hook marks each send once,
// on its destination's row, at the cycle the network took it: a lost
// attempt marks nothing, its retransmission once.
func TestNodeMarksEachSend(t *testing.T) {
	net := &lossyNet{losses: 1}
	n := newNode(0, net, nullSink{}, new(msgSlab))
	rec := obs.New(obs.Config{Trace: true})
	n.Obs = rec
	for i, dst := range []int{1, 2, 1} {
		n.SendCtrl(Msg{Kind: ReqRead, Addr: uint32(0x40 * (i + 1))}, dst, 0)
	}
	for now := uint64(0); now <= 10; now++ {
		n.Tick(now)
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph       string
			Pid, Tid int
			Ts       uint64
			Name     string
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var rows []int
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" {
			continue
		}
		if e.Pid != obs.PortPid(0) || e.Ts != 8 || e.Name != ReqRead.String() {
			t.Errorf("instant %+v; want port0's %v at cycle 8, the retransmission", e, ReqRead)
		}
		rows = append(rows, e.Tid)
	}
	if len(rows) != 3 || rows[0] != 1 || rows[1] != 2 || rows[2] != 1 {
		t.Fatalf("instants on rows %v; want one per send, on [1 2 1]", rows)
	}
}

// dupWatch sits under a fault layer and counts, per slot, the
// duplicates on the wire that carry it.
type dupWatch struct {
	noc.Network
	dups map[uint32]int
}

func (w *dupWatch) Inject(p noc.Packet, now uint64) noc.Fate {
	fate := w.Network.Inject(p, now)
	if fate == noc.Sent && p.Dup {
		w.dups[p.Ref]++
	}
	return fate
}

func (w *dupWatch) Deliver(node int, now uint64) (noc.Packet, bool) {
	p, ok := w.Network.Deliver(node, now)
	if ok && p.Dup {
		w.dups[p.Ref]--
	}
	return p, ok
}

// TestNodeDuplicatesUnderSlotReuse runs two nodes on one slab behind a
// fault plan that duplicates every transfer, in bursts sent once the
// previous burst is in. A delivery frees its slot while the duplicate,
// carrying the same Ref, is still on the wire, and the next send takes
// that slot: every message must still reach the sink once, in send
// order, and the reuse must really happen.
func TestNodeDuplicatesUnderSlotReuse(t *testing.T) {
	plan, err := fault.ParsePlan("dup=1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	watch := &dupWatch{Network: noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 8, SrcDepth: 4}), dups: map[uint32]int{}}
	net := fault.Wrap(watch, plan, 2, 2)
	msgs := new(msgSlab)
	dst := &recordSink{accept: true}
	n0 := newNode(0, net, &recordSink{accept: true}, msgs)
	n1 := newNode(1, net, dst, msgs)
	const count, burst = 30, 3
	sent, reused := 0, 0
	for cyc := uint64(0); cyc < 5000 && !(sent == count && net.Quiet()); cyc++ {
		if sent == len(dst.msgs) {
			for end := min(sent+burst, count); sent < end; sent++ {
				if k := len(msgs.free); k > 0 && watch.dups[msgs.free[k-1]] > 0 {
					reused++
				}
				n0.SendCtrl(Msg{Kind: RspWriteAck, Addr: uint32(sent)}, 1, cyc)
			}
		}
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(dst.msgs) != count {
		t.Fatalf("delivered %d of %d messages", len(dst.msgs), count)
	}
	for i, m := range dst.msgs {
		if m.Addr != uint32(i) {
			t.Fatalf("message %d has addr %d: duplicated, lost or reordered", i, m.Addr)
		}
	}
	if st := net.FaultStats(); st.Dups != count || st.DupsSuppressed != count {
		t.Fatalf("Dups/DupsSuppressed = %d/%d, want %d/%d", st.Dups, st.DupsSuppressed, count, count)
	}
	if reused == 0 {
		t.Fatal("no send took a slot whose duplicate was still on the wire")
	}
}

// TestNodeRequestAdmissionBound walks CanSendReq's bound: it admits a
// request per queued message below reqBound and refuses one at it,
// where control messages are still admitted (they unblock the system),
// and it admits again once the queue drains.
func TestNodeRequestAdmissionBound(t *testing.T) {
	msgs := new(msgSlab)
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 1, SrcDepth: 1})
	n0 := newNode(0, net, &recordSink{accept: true}, msgs)
	dst := &recordSink{accept: true}
	n1 := newNode(1, net, dst, msgs)
	for i := 0; i < reqBound; i++ {
		if !n0.CanSendReq() {
			t.Fatalf("request %d below bound refused", i)
		}
		n0.SendCtrl(Msg{Kind: ReqRead}, 1, 0)
	}
	if n0.CanSendReq() {
		t.Fatal("request at the bound admitted")
	}
	// The refused request was never queued: exactly reqBound+1 arrive.
	n0.SendCtrl(Msg{Kind: RspInvAck}, 1, 0)
	for cyc := uint64(0); cyc < 100; cyc++ {
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if !n0.Idle() || len(dst.msgs) != reqBound+1 || dst.msgs[reqBound].Kind != RspInvAck {
		t.Fatalf("idle=%t, delivered %d messages: %v", n0.Idle(), len(dst.msgs), dst.msgs)
	}
	if !n0.CanSendReq() {
		t.Fatal("request refused after the queue drained")
	}
}

// TestNodeNextWake walks the node's answer to the wake contract: asleep
// with nothing queued and nothing arriving, due at a latched send's
// not-before cycle, awake for a ready send, a deliverable packet and
// the cycle after a consumed delivery.
func TestNodeNextWake(t *testing.T) {
	msgs := new(msgSlab)
	const never = ^uint64(0)
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := newNode(0, net, sink, msgs)
	n1 := newNode(1, net, sink, msgs)
	if n0.NextWake(1) != never || n1.NextWake(1) != never {
		t.Fatal("fresh nodes not asleep")
	}
	n0.SendCtrl(Msg{Kind: RspWriteAck}, 1, 3)
	if w := n0.NextWake(1); w != 3 {
		t.Fatalf("send latched for cycle 3: NextWake(1) = %d", w)
	}
	if w := n0.NextWake(3); w != 3 {
		t.Fatalf("ready send: NextWake(3) = %d, want 3 (awake)", w)
	}
	var arrived uint64
	for cyc := uint64(3); cyc < 20; cyc++ {
		if net.ArrivalAt(1) <= cyc {
			arrived = cyc
			break
		}
		// A packet on its way is the node's to answer for, now that the
		// engine remembers: the next answer replaces the pushed wake.
		if at := net.ArrivalAt(1); at != never && n1.NextWake(cyc) != at {
			t.Fatalf("cycle %d: arrival due at %d, NextWake = %d", cyc, at, n1.NextWake(cyc))
		}
		n0.Tick(cyc)
		net.Tick(cyc)
	}
	if arrived == 0 {
		t.Fatal("packet never arrived")
	}
	// The receiver has nothing queued, but a deliverable packet means
	// its tick is not a no-op: it must be awake.
	if w := n1.NextWake(arrived); w != arrived {
		t.Fatalf("deliverable packet: NextWake(%d) = %d", arrived, w)
	}
	n1.Tick(arrived)
	if len(sink.msgs) != 1 {
		t.Fatal("packet not delivered")
	}
	// The drained node sleeps, the cycle after the delivery included:
	// whoever reacts to it then (a CPU's core) asks Veto, which
	// names that cycle and no later one.
	if n0.NextWake(arrived) != never || n1.NextWake(arrived+1) != never {
		t.Fatal("drained nodes not asleep")
	}
	if n1.Veto(arrived+1) != arrived+1 || n1.Veto(arrived+2) != never {
		t.Fatalf("Veto after a delivery at %d: %d, %d", arrived, n1.Veto(arrived+1), n1.Veto(arrived+2))
	}
}

func TestNodeNotBeforeDelaysInjection(t *testing.T) {
	msgs := new(msgSlab)
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := newNode(0, net, sink, msgs)
	n1 := newNode(1, net, sink, msgs)
	n0.SendCtrl(Msg{Kind: RspWriteAck}, 1, 10)
	for cyc := uint64(0); cyc < 9; cyc++ {
		n0.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if n0.Idle() {
		t.Fatal("message left before its notBefore cycle")
	}
}

func TestNodeSinkBackpressure(t *testing.T) {
	msgs := new(msgSlab)
	// A sink that refuses keeps messages in the network; flipping it
	// releases them.
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	src := newNode(0, net, &recordSink{accept: true}, msgs)
	dst := &recordSink{accept: false}
	n1 := newNode(1, net, dst, msgs)
	src.SendCtrl(Msg{Kind: RspWriteAck}, 1, 0)
	for cyc := uint64(0); cyc < 20; cyc++ {
		src.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(dst.msgs) != 0 {
		t.Fatal("refusing sink received a message")
	}
	dst.accept = true
	for cyc := uint64(20); cyc < 40 && len(dst.msgs) == 0; cyc++ {
		src.Tick(cyc)
		n1.Tick(cyc)
		net.Tick(cyc)
	}
	if len(dst.msgs) != 1 {
		t.Fatal("message lost after sink started accepting")
	}
}

func TestCPUSinkRouting(t *testing.T) {
	p := DefaultParams(1)
	net := noc.NewGMN(noc.DefaultGMNConfig(2))
	sink := &CPUSink{}
	node := newNode(0, net, sink, new(msgSlab))
	node.amap, node.bankBase = mem.NewAddrMap(1), 1
	node.amap.AddRegion(mem.Region{Name: "all", Base: rigBase, Size: 1 << 20, Banks: []int{0}})
	dc := newWriteThroughCache(WTI, 0, p, node)
	ic := newICache(0, p, node, codeStore{})
	sink.D = dc
	sink.I = ic

	// An instruction response goes to the icache...
	ic.Line(0, rigBase) // start a pending refill so the handler accepts
	sink.HandleMsg(&Msg{Kind: RspIData, Addr: rigBase}, 1)
	if !ic.Drained() {
		t.Fatal("icache did not receive its refill")
	}
	// ...and an invalidation to the dcache.
	sink.HandleMsg(&Msg{Kind: CmdInval, Addr: rigBase}, 2)
	if dc.Stats().InvalsReceived != 1 {
		t.Fatal("dcache did not receive the invalidation")
	}
}
