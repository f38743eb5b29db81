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
	// Stats
	Sent     uint64
	Received uint64
	MaxDepth int
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
	p.Sent++
	if len(p.q) > p.MaxDepth {
		p.MaxDepth = len(p.q)
	}
	return true
}

// Recv pops and returns the head message if it is deliverable at cycle
// now. The second result reports whether a message was returned.
func (p *Port[T]) Recv(now uint64) (T, bool) {
	var zero T
	if len(p.q) == 0 || p.q[0].at > now {
		return zero, false
	}
	msg := p.q[0].msg
	// Shift rather than reslice so the backing array does not grow
	// without bound across the run.
	copy(p.q, p.q[1:])
	p.q = p.q[:len(p.q)-1]
	p.Received++
	return msg, true
}

// Peek returns the head message without removing it, if deliverable at
// cycle now.
func (p *Port[T]) Peek(now uint64) (T, bool) {
	var zero T
	if len(p.q) == 0 || p.q[0].at > now {
		return zero, false
	}
	return p.q[0].msg, true
}

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
