package coherence

// msgPool is the free list of protocol messages, one per Hierarchy: a
// node draws what it sends from it (Node.NewMsg) and the *receiving*
// node recycles it once its sink has consumed it (Node.Tick). Per-node
// lists would grow at the banks while a cache-to-cache protocol's
// caches, which send more than they receive, kept allocating.
// The ownership hand-off is strict and one-way:
//
//	pool → outbound port → NoC → receiver sink → pool
//
// A message in flight is owned by the network and never written; the
// receiving node recycles it the moment HandleMsg returns. The one rule
// is therefore: never retain the *Msg — not in a handler, nor in
// Node.Trace, which fires before the recycle point. A Msg holds no
// pointer (its block travels by value), so a value copy, such as
// memctrl.go's directory keeps, is always safe.
type msgPool struct {
	free []*Msg
}

// get returns a zeroed message, reusing a recycled one when available.
// The &Msg{} literal here is the single allocation site the pool leaves
// on the send path: it runs only while the pool grows toward the
// steady-state working set, after which every send is a reuse.
func (p *msgPool) get() *Msg {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return m
	}
	return &Msg{}
}

// put recycles m.
func (p *msgPool) put(m *Msg) {
	*m = Msg{}
	p.free = append(p.free, m)
}
