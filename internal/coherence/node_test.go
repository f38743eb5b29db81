package coherence

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/noc"
)

// recordSink collects delivered messages. It copies them: the node
// recycles the delivered *Msg into its pool after HandleMsg returns,
// so retaining the pointer would observe the recycled reuse.
type recordSink struct {
	accept bool
	msgs   []Msg
}

func (s *recordSink) Accept(now uint64) bool       { return s.accept }
func (s *recordSink) HandleMsg(m *Msg, now uint64) { s.msgs = append(s.msgs, *m) }

func TestNodeOutboundFIFOOrder(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 8, SrcDepth: 4})
	sinks := []*recordSink{{accept: true}, {accept: true}}
	n0 := NewNode(0, net, sinks[0])
	n1 := NewNode(1, net, sinks[1])

	// Interleave ctrl and request sends: wire order must match enqueue
	// order regardless of class.
	n0.SendCtrl(&Msg{Kind: RspInvAck, Addr: 1}, 1, 0)
	if !n0.CanSendReq() {
		t.Fatal("request refused below bound")
	}
	n0.SendCtrl(&Msg{Kind: ReqRead, Addr: 2}, 1, 0)
	n0.SendCtrl(&Msg{Kind: RspInvAck, Addr: 3}, 1, 0)

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

// TestNodeRequestAdmissionBound walks CanSendReq's bound: it admits a
// request per queued message below reqBound and refuses one at it,
// where control messages are still admitted (they unblock the system),
// and it admits again once the queue drains.
func TestNodeRequestAdmissionBound(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 2, FIFODepth: 1, SrcDepth: 1})
	n0 := NewNode(0, net, &recordSink{accept: true})
	dst := &recordSink{accept: true}
	n1 := NewNode(1, net, dst)
	for i := 0; i < reqBound; i++ {
		if !n0.CanSendReq() {
			t.Fatalf("request %d below bound refused", i)
		}
		n0.SendCtrl(&Msg{Kind: ReqRead}, 1, 0)
	}
	if n0.CanSendReq() {
		t.Fatal("request at the bound admitted")
	}
	// The refused request was never queued: exactly reqBound+1 arrive.
	n0.SendCtrl(&Msg{Kind: RspInvAck}, 1, 0)
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
	const never = ^uint64(0)
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := NewNode(0, net, sink)
	n1 := NewNode(1, net, sink)
	if n0.NextWake(1) != never || n1.NextWake(1) != never {
		t.Fatal("fresh nodes not asleep")
	}
	n0.SendCtrl(&Msg{Kind: RspWriteAck}, 1, 3)
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
		// engine remembers: the next re-ask replaces the pushed wake.
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
	// whoever reacts to it then (a CPU's core) asks RecvVeto, which
	// names that cycle and no later one.
	if n0.NextWake(arrived) != never || n1.NextWake(arrived+1) != never {
		t.Fatal("drained nodes not asleep")
	}
	if n1.RecvVeto(arrived+1) != arrived+1 || n1.RecvVeto(arrived+2) != never {
		t.Fatalf("RecvVeto after a delivery at %d: %d, %d", arrived, n1.RecvVeto(arrived+1), n1.RecvVeto(arrived+2))
	}
}

func TestNodeNotBeforeDelaysInjection(t *testing.T) {
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	sink := &recordSink{accept: true}
	n0 := NewNode(0, net, sink)
	n1 := NewNode(1, net, sink)
	n0.SendCtrl(&Msg{Kind: RspWriteAck}, 1, 10)
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
	// A sink that refuses keeps messages in the network; flipping it
	// releases them.
	net := noc.NewGMN(noc.GMNConfig{Nodes: 2, Delay: 1, FIFODepth: 8, SrcDepth: 4})
	src := NewNode(0, net, &recordSink{accept: true})
	dst := &recordSink{accept: false}
	n1 := NewNode(1, net, dst)
	src.SendCtrl(&Msg{Kind: RspWriteAck}, 1, 0)
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
	node := NewNode(0, net, sink)
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
