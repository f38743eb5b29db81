package coherence

import (
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Sink consumes messages delivered to a node. The bank controller uses
// Accept to model its service rate; cache-side sinks always accept.
type Sink interface {
	// Accept reports whether the sink can take one more message now.
	Accept(now uint64) bool
	// HandleMsg processes a delivered message.
	HandleMsg(m *Msg, now uint64)
}

type outMsg struct {
	dst int
	msg *Msg
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
// rest of the system — while request-class messages are admitted only
// below reqBound, which is how NoC backpressure reaches the write
// buffer and the miss handlers.
type Node struct {
	ID   int
	net  noc.Network
	sink Sink
	outQ sim.Port[outMsg]
	pool *msgPool // shared by every node of a Hierarchy

	recvVeto uint64 // the cycle after the latest consumed delivery (RecvVeto)

	// Retry bounds the retransmission loop run when the network loses a
	// transfer (drops only happen under fault injection; on a reliable
	// network the retry state machine never leaves its idle state).
	Retry RetryPolicy
	// drops is the network's loss-notification interface, nil on
	// reliable networks. The retry FSM below is armed only when non-nil.
	drops noc.DropNotifier
	// attempts counts losses of the current head-of-line transfer
	// (0 = FSM idle); nextTry is the cycle the next re-offer is allowed;
	// retryStart is when the first loss happened (retry latency).
	attempts   int
	nextTry    uint64
	retryStart uint64
	// retryErr latches the liveness failure when attempts exceeds the
	// budget; the machine polls it via RetryErr.
	retryErr error

	// Trace, when non-nil, is the node's one message hook: every message
	// it injects ("tx", to peer) and receives ("rx", from peer).
	Trace func(now uint64, dir string, self, peer int, m *Msg)

	// Obs, when attached, records the retry latency of lost transfers.
	Obs *obs.Recorder

	// Retransmits counts transfers lost on the wire and re-offered;
	// BackoffCycles counts cycles the port held its queue in backoff.
	Retransmits   uint64
	BackoffCycles uint64
}

// NewNode attaches a node to the network. If the network reports
// transfer losses (noc.DropNotifier — the fault-injection wrapper
// does), the node arms its retransmission state machine with
// DefaultRetryPolicy.
func NewNode(id int, net noc.Network, sink Sink) *Node {
	n := &Node{ID: id, net: net, sink: sink, pool: new(msgPool), Retry: DefaultRetryPolicy}
	n.drops, _ = net.(noc.DropNotifier)
	return n
}

// RetryErr reports the latched liveness failure (nil while the port is
// within budget); a machine under a fault plan ends its run on it.
func (n *Node) RetryErr() error { return n.retryErr }

// AtBudget reports whether the port's next loss spends its budget (or one did).
func (n *Node) AtBudget() bool { return n.attempts >= n.Retry.Budget }

// NewMsg returns a zeroed message owned by the caller, drawn from the
// hierarchy's free list. The caller fills it and hands ownership to the
// outbound port via SendCtrl/TrySendReq; it is recycled by the
// receiving node after consumption. It runs on every protocol send:
// hot path.
//
//lint:hot
func (n *Node) NewMsg() *Msg { return n.pool.get() }

// SendCtrl enqueues a control-class message (always admitted) for dst,
// not injectable before cycle notBefore.
func (n *Node) SendCtrl(m *Msg, dst int, notBefore uint64) {
	n.outQ.Send(outMsg{dst: dst, msg: m}, notBefore)
}

// TrySendReq enqueues a request-class message if the outbound queue is
// below the admission bound, reporting whether it was admitted.
func (n *Node) TrySendReq(m *Msg, dst int, notBefore uint64) bool {
	if !n.CanSendReq() {
		return false
	}
	n.SendCtrl(m, dst, notBefore)
	return true
}

// CanSendReq reports whether a request-class message would be admitted
// this cycle, without constructing one, so retry loops can ask first and
// skip allocating a message that would only be discarded. Pure.
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
		msg := m.Payload.(*Msg)
		if n.Trace != nil {
			n.Trace(now, "rx", n.ID, m.Src, msg)
		}
		n.sink.HandleMsg(msg, now)
		// HandleMsg never retains the pointer (the pool's ownership
		// contract), so the message recycles into the shared free list.
		n.pool.put(msg)
		n.recvVeto = now + 1
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
		pkt := noc.Packet{Src: n.ID, Dst: head.dst, Bytes: head.msg.WireBytes(), Payload: head.msg}
		if !n.net.Inject(pkt, now) {
			if n.drops != nil && n.drops.TookDrop(n.ID) {
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
		if n.Trace != nil {
			n.Trace(now, "tx", n.ID, head.dst, head.msg)
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

// RecvVeto is now while now is at most the cycle after the latest
// consumed delivery, else sim.NoWake: a CPU's core, ticked before its
// node, reacts then. A bank's sink reacts inside HandleMsg. Pure.
func (n *Node) RecvVeto(now uint64) uint64 {
	if n.recvVeto >= now {
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

// transferLost runs the retry FSM on a loss notification: schedule the
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
	if n.attempts > n.Retry.Budget && n.retryErr == nil {
		n.retryErr = &LivenessError{Node: n.ID, Dst: head.dst, Kind: head.msg.Kind,
			Addr: head.msg.Addr, Attempts: n.attempts, Cycle: now}
	}
	n.nextTry = now + n.Retry.Backoff(n.attempts)
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
		m.msg.Fingerprint(e)
	})
}
