package sim

// Port is a latched, ordered, point-to-point message queue. Messages are
// delivered strictly in send order (FIFO) and each message additionally
// carries a not-before cycle: the head of the queue is only receivable
// once its delivery cycle has been reached. Because delivery respects
// send order even when a later message has an earlier not-before cycle,
// a Port gives the per-(source,destination) ordering guarantee the
// coherence protocols rely on.
//
// The zero value of Port is unbounded; use NewPort to set a capacity.
type Port[T any] struct {
	q   []portEntry[T]
	cap int // 0 = unbounded
}

type portEntry[T any] struct {
	at  uint64
	msg T
}

// NewPort returns a port with the given capacity; capacity 0 means
// unbounded.
func NewPort[T any](capacity int) *Port[T] {
	return &Port[T]{cap: capacity}
}

// CanSend reports whether the port has room for one more message.
func (p *Port[T]) CanSend() bool {
	return p.cap == 0 || len(p.q) < p.cap
}

// Send enqueues msg for delivery no earlier than cycle at. It reports
// whether the message was accepted; a full bounded port rejects it.
func (p *Port[T]) Send(msg T, at uint64) bool {
	if !p.CanSend() {
		return false
	}
	p.q = append(p.q, portEntry[T]{at: at, msg: msg})
	return true
}

// Recv pops and returns the head message if it is deliverable at cycle
// now. The second result reports whether a message was returned.
func (p *Port[T]) Recv(now uint64) (T, bool) {
	if !p.Ready(now) {
		var zero T
		return zero, false
	}
	msg := p.q[0].msg
	// Shift rather than reslice so the backing array does not grow
	// without bound across the run. Every queue in the system is a
	// handful of entries deep (the NoC depths are <= 8, a node's
	// outbound queue hovers at its request bound), so the shift is cheaper
	// than a ring's index arithmetic on every head probe.
	copy(p.q, p.q[1:])
	p.q = p.q[:len(p.q)-1]
	return msg, true
}

// Ready reports whether the head message is receivable at cycle now. The
// GMN, a node's send loop and the fault layer probe it before Head.
func (p *Port[T]) Ready(now uint64) bool {
	return len(p.q) != 0 && p.q[0].at <= now
}

// Head returns the head message in place, without removing or copying
// it. The port must not be empty; the pointer is valid until the next
// Send or Recv.
func (p *Port[T]) Head() *T { return &p.q[0].msg }

// Each calls f for every queued message in FIFO order together with its
// not-before cycle. It is an inspection hook (used by the model checker
// to fingerprint queue contents); f must not mutate the port.
func (p *Port[T]) Each(f func(at uint64, msg T)) {
	for i := range p.q {
		f(p.q[i].at, p.q[i].msg)
	}
}

// NextAt reports the head message's not-before cycle, if any message is
// queued. Because delivery is FIFO regardless of per-message cycles,
// the head's cycle is the earliest at which Recv can make progress —
// the port's contribution to its owner's NextWake.
func (p *Port[T]) NextAt() (uint64, bool) {
	if len(p.q) == 0 {
		return 0, false
	}
	return p.q[0].at, true
}

// Len reports the number of queued messages, deliverable or not.
func (p *Port[T]) Len() int { return len(p.q) }

// Empty reports whether no messages are queued.
func (p *Port[T]) Empty() bool { return len(p.q) == 0 }
