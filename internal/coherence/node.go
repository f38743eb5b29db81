package coherence

import (
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sink consumes messages delivered to a node. The bank controller uses
// Accept to model its service rate; cache-side sinks always accept.
type Sink interface {
	// Accept reports whether the sink can take one more message now.
	Accept(now uint64) bool
	// HandleMsg processes a delivered message. m is the node's receive
	// buffer, overwritten by the next delivery: a sink that keeps the
	// message keeps a copy.
	HandleMsg(m *Msg, now uint64)
}

type outMsg struct {
	dst  int
	slot uint32 // in the hierarchy's msgSlab
}

// Node is one NoC endpoint: the single network port shared by a CPU's
// instruction and data caches (the paper: "the instruction and data
// cache use the same interconnect port in order to minimize the NoC
// area"), or a memory bank's port.
//
// Outgoing messages flow through one FIFO so a node's messages keep
// their program order on the wire; see the package documentation for
// why the protocols need this. Control-class messages (responses,
// acknowledgements) may always be enqueued — they are what unblocks the
// rest of the system — while a request-class sender waits for
// CanSendReq, true below reqBound, which is how NoC backpressure
// reaches the write buffer and the miss handlers.
type Node struct {
	ID   int
	net  noc.Network
	sink Sink
	outQ sim.Port[outMsg]
	msgs *msgSlab // shared by every node of a Hierarchy
	rx   Msg      // the delivered message the sink is handling
	// amap and bankBase route a CPU-side node's SendHome: bank b is
	// node bankBase+b. A bank's node leaves them unset.
	amap     *mem.AddrMap
	bankBase int

	veto uint64 // the cycle after the latest delivery or write-through departure (Veto)

	// The retry FSM (see retryBudget) runs on the network's Lost
	// answers, which only a fault plan gives. attempts counts losses of
	// the current head-of-line transfer (0 = FSM idle); nextTry is the
	// cycle the next re-offer is allowed; retryStart is when the first
	// loss happened (retry latency).
	attempts   int
	nextTry    uint64
	retryStart uint64
	// retryErr latches the liveness failure when attempts exceeds the
	// budget; the machine polls it via RetryErr.
	retryErr error

	// Trace, when non-nil, sees every message the node injects ("tx", to
	// peer) and receives ("rx", from peer): the model checker's
	// counterexample log. Like a sink, it must not retain m.
	Trace func(now uint64, dir string, self, peer int, m *Msg)

	// Obs, when attached, is the recorder of this port and of the
	// controller behind it: the port marks each send on its
	// destination's row and records the retry latency of lost transfers,
	// a data cache its transaction spans and latencies, a bank its
	// directory spans.
	Obs *obs.Recorder

	// Retransmits counts transfers lost on the wire and re-offered;
	// BackoffCycles counts cycles the port held its queue in backoff.
	Retransmits   uint64
	BackoffCycles uint64
}

// newNode attaches a node to the network, sending through msgs, the
// slab its peers share.
func newNode(id int, net noc.Network, sink Sink, msgs *msgSlab) *Node {
	return &Node{ID: id, net: net, sink: sink, msgs: msgs}
}

// RetryErr reports the latched liveness failure (nil while the port is
// within budget); a machine under a fault plan ends its run on it.
func (n *Node) RetryErr() error { return n.retryErr }

// AtBudget reports whether the port's next loss spends its budget (or one did).
func (n *Node) AtBudget() bool { return n.attempts >= retryBudget }

// SendCtrl enqueues m for dst, not injectable before cycle notBefore.
// It admits every message: a control-class sender never waits, and a
// request-class sender asks CanSendReq first. It runs on every protocol
// send: hot path.
//
//lint:hot
func (n *Node) SendCtrl(m Msg, dst int, notBefore uint64) {
	n.outQ.Send(outMsg{dst: dst, slot: n.msgs.put(m)}, notBefore)
}

// SendHome enqueues m for the bank that is home to m.Addr, the
// destination of every message a CPU's caches send but MESI's
// cache-to-cache forward.
func (n *Node) SendHome(m Msg, notBefore uint64) {
	n.SendCtrl(m, n.bankBase+n.amap.BankOf(m.Addr), notBefore)
}

// CanSendReq reports whether a request-class message is admitted this
// cycle: the outbound queue is below the admission bound. Pure.
func (n *Node) CanSendReq() bool { return n.outQ.Len() < reqBound }

// reqBound is the admission bound for request-class messages.
const reqBound = 4

// Tick delivers arrived messages to the sink, drains the outbound
// queue into the network and answers NextWake(now+1). It runs for every
// awake node every cycle: hot path.
//
//lint:hot
func (n *Node) Tick(now uint64) uint64 {
	// Receive. The arrival check comes first: on the (common) cycles
	// with nothing deliverable the sink is never consulted. Both sinks'
	// Accept are pure queries, so the swapped order cannot change
	// behaviour. Handlers never inject — they enqueue responses on the
	// outbound port, which the send loop below drains.
	for n.net.ArrivalAt(n.ID) <= now && n.sink.Accept(now) {
		m, ok := n.net.Deliver(n.ID, now)
		if !ok {
			break
		}
		// The copy frees the slot before the handler runs: its sends
		// may grow the slab, which would move a message read in place.
		n.rx = n.msgs.take(m.Ref)
		if n.Trace != nil {
			n.Trace(now, "rx", n.ID, m.Src, &n.rx)
		}
		n.sink.HandleMsg(&n.rx, now)
		n.veto = now + 1
	}
	// Send, preserving FIFO order (the port enforces it even when a
	// later message has an earlier not-before cycle). The
	// retransmission FSM gates the head: while a lost transfer backs
	// off, nothing from this port enters the network — head-of-line
	// blocking is what keeps the per-(src,dst) FIFO guarantee intact
	// across retransmissions.
	for {
		if !n.outQ.Ready(now) {
			break
		}
		head := n.outQ.Head()
		if n.attempts > 0 && now < n.nextTry {
			n.BackoffCycles++
			break
		}
		msg := &n.msgs.msgs[head.slot]
		pkt := noc.Packet{Src: n.ID, Dst: head.dst, Bytes: msg.WireBytes(), Ref: head.slot}
		if fate := n.net.Inject(pkt, now); fate != noc.Sent {
			if fate == noc.Lost {
				n.transferLost(*head, now)
			}
			break
		}
		if n.attempts > 0 {
			// The retransmission went through; record how long the
			// transfer fought the wire and return the FSM to idle.
			n.Obs.Lat(obs.LatRetry, now-n.retryStart)
			n.attempts = 0
		}
		if n.Obs.Tracing() {
			n.Obs.Instant(obs.PortPid(n.ID), head.dst, msg.Kind.String(), now, msg.Addr)
		}
		if n.Trace != nil {
			n.Trace(now, "tx", n.ID, head.dst, msg)
		}
		n.outQ.Recv(now)
	}
	return n.NextWake(now + 1)
}

// NextWake implements sim.Sleeper: Tick(now) is a strict no-op unless
// a packet is deliverable or a queued send is ready to offer. A send
// that is latched for later — or only backing off — wakes at its
// injection attempt, a packet on its way at its arrival: the network
// pushes that cycle to the node's Waker, but the next answer replaces
// what was pushed. Must be pure.
func (n *Node) NextWake(now uint64) uint64 {
	arrival := n.net.ArrivalAt(n.ID)
	if arrival <= now {
		return now
	}
	at, ok := n.outQ.NextAt()
	if !ok {
		return arrival
	}
	if n.attempts > 0 && at <= now {
		at = n.nextTry
	}
	// A head ready to offer runs now: the injection attempt itself is an
	// event (a refused Inject charges the network's stall counter every
	// cycle).
	return min(arrival, max(at, now))
}

// Veto is now while now is at most the cycle after the latest consumed
// delivery or, at a CPU's port, write-buffer departure, else
// sim.NoWake: a CPU's core, ticked before its node, reacts then (a load
// stalled on an unsent write in its block un-blocks on the departure).
// A bank's sink reacts inside HandleMsg. Pure.
func (n *Node) Veto(now uint64) uint64 {
	if n.veto >= now {
		return now
	}
	return sim.NoWake
}

// Skip implements sim.Sleeper: the only per-cycle counter a sleeping
// node advances is the backoff wait of a ready head held by the retry
// FSM.
func (n *Node) Skip(from, to uint64) {
	if at, ok := n.outQ.NextAt(); ok && at <= from && n.attempts > 0 && n.nextTry > from {
		n.BackoffCycles += to - from
	}
}

// transferLost runs the retry FSM on a Lost answer: schedule the
// re-offer of the (still queued) head with exponential backoff, and
// latch the liveness failure once the budget is spent. The port keeps
// retransmitting even past the budget — the machine that polls
// RetryErr, not the port, decides to stop the run, and a latched
// diagnostic must not deadlock a run that polls nothing.
func (n *Node) transferLost(head outMsg, now uint64) {
	if n.attempts == 0 {
		n.retryStart = now
	}
	n.attempts++
	n.Retransmits++
	if n.attempts > retryBudget && n.retryErr == nil {
		m := &n.msgs.msgs[head.slot]
		n.retryErr = &LivenessError{Node: n.ID, Dst: head.dst, Kind: m.Kind,
			Addr: m.Addr, Attempts: n.attempts, Cycle: now}
	}
	n.nextTry = now + backoff(n.attempts)
}

// Idle reports whether the node has nothing left to send.
func (n *Node) Idle() bool { return n.outQ.Empty() }

// Fingerprint appends the outbound FIFO's length, then each entry in
// order — destination, latch delay relative to now (0 = injectable
// now), message — to e.
func (n *Node) Fingerprint(e *Enc, now uint64) {
	e.U32(uint32(n.outQ.Len()))
	n.outQ.Each(func(at uint64, m outMsg) {
		e.U32(uint32(m.dst))
		e.U64(max(at, now) - now)
		n.msgs.msgs[m.slot].Fingerprint(e)
	})
}
