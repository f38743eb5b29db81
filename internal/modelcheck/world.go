package modelcheck

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/noc"
)

// world is one concrete instance of the scoped system: real protocol
// controllers, banks and interconnect, plus the per-CPU drivers and the
// ghost written-value sets. The explorer rebuilds a world from reset
// and replays a choice path to re-enter any state.
type world struct {
	sc     *Scope
	ops    []op
	values []uint32

	net    *noc.GMN
	space  *mem.Space
	amap   *mem.AddrMap
	caches []coherence.DataCache
	nodes  []*coherence.Node
	banks  []*coherence.MemCtrl
	bnodes []*coherence.Node
	now    uint64

	drv []driver
	// ghost[i] is the set of value-table indices ever written to
	// scoped word i (bit 0 = the initial value). A completed load or
	// swap must observe a member.
	ghost []uint16

	// err is the first invariant or ghost violation observed.
	err error
}

// driver is one CPU's operation state: idle, or polling one in-flight
// operation every cycle until the cache reports completion — the same
// discipline the cycle-accurate CPU model uses.
type driver struct {
	busy bool
	op   op
	done int
}

// choice is one joint per-cycle decision, encoded as CPU-indexed digits
// base len(ops)+1: digit 0 = stay silent (or keep polling when busy),
// digit i>0 = initiate ops[i-1].
type choice uint16

func (c choice) digit(cpu, base int) int {
	for i := 0; i < cpu; i++ {
		c /= choice(base)
	}
	return int(c % choice(base))
}

func joinDigits(digits []int, base int) choice {
	var c choice
	for i := len(digits) - 1; i >= 0; i-- {
		c = c*choice(base) + choice(digits[i])
	}
	return c
}

// newWorld builds the scoped system from reset. It mirrors the
// simulator's wiring (core.Build) at miniature scale.
func newWorld(sc *Scope, ops []op, values []uint32) *world {
	p := coherence.DefaultParams(sc.CPUs)
	p.WriteBufferWords = sc.WBWords
	p.MemLatency = 2
	p.MemService = 1
	if sc.Proto == coherence.MOESI {
		p.CacheToCache = true
	}
	amap := mem.NewAddrMap(sc.Banks)
	banks := make([]int, sc.Banks)
	for i := range banks {
		banks[i] = i
	}
	region := mem.Region{Name: "scope", Base: scopeBase, Size: 1 << 20, Banks: banks}
	if sc.Banks > 1 {
		region.Granule = uint32(p.BlockBytes)
	}
	amap.AddRegion(region)

	w := &world{
		sc:     sc,
		ops:    ops,
		values: values,
		net: noc.NewGMN(noc.GMNConfig{
			Nodes:     sc.CPUs + sc.Banks,
			Delay:     sc.Delay,
			SrcDepth:  sc.SrcDepth,
			FIFODepth: sc.FIFODepth,
		}),
		space: mem.NewSpace(),
		amap:  amap,
		drv:   make([]driver, sc.CPUs),
		ghost: make([]uint16, len(sc.Addrs)),
	}
	for i := range w.ghost {
		w.ghost[i] = 1 // initial memory value (table index 0) is readable
	}
	for b := 0; b < sc.Banks; b++ {
		mc := coherence.NewMemCtrl(b, sc.CPUs+b, p, sc.Proto, w.space)
		mc.Fault = sc.Fault
		node := coherence.NewNode(sc.CPUs+b, w.net, mc)
		mc.SetNode(node)
		w.banks = append(w.banks, mc)
		w.bnodes = append(w.bnodes, node)
	}
	for i := 0; i < sc.CPUs; i++ {
		sink := &coherence.CPUSink{}
		node := coherence.NewNode(i, w.net, sink)
		var dc coherence.DataCache
		switch sc.Proto {
		case coherence.WTI:
			dc = coherence.NewWTICache(i, p, node, amap, sc.CPUs)
		case coherence.WTU:
			dc = coherence.NewWTUCache(i, p, node, amap, sc.CPUs)
		case coherence.MOESI:
			dc = coherence.NewMOESICache(i, p, node, amap, sc.CPUs)
		default:
			dc = coherence.NewMESICache(i, p, node, amap, sc.CPUs)
		}
		sink.D = dc
		sink.I = coherence.NewICache(i, p, node, amap, sc.CPUs)
		w.caches = append(w.caches, dc)
		w.nodes = append(w.nodes, node)
	}
	return w
}

func (w *world) bankFor(addr uint32) *coherence.MemCtrl {
	return w.banks[w.amap.BankOf(addr)]
}

func (w *world) addrIndex(addr uint32) int {
	for i, a := range w.sc.Addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// step advances the world one cycle under the given joint choice,
// following the simulator's canonical order: CPU operations first, then
// cache controllers, CPU nodes, bank nodes, and finally the network.
// When check is set, the transient-safe runtime invariants are
// evaluated on the resulting state; replayed prefixes skip this because
// every prefix state was checked when first discovered.
func (w *world) step(c choice, check bool) {
	base := len(w.ops) + 1
	for cpu := range w.drv {
		d := &w.drv[cpu]
		if !d.busy {
			if digit := c.digit(cpu, base); digit > 0 {
				d.op = w.ops[digit-1]
				d.busy = true
				if d.op.kind != opLoad {
					// The written value may become observable to any
					// CPU from this point on; ghost sets are monotone.
					w.ghost[w.addrIndex(d.op.addr)] |= 1 << d.op.valID
				}
			}
		}
		if d.busy {
			w.driveOp(cpu)
		}
	}
	for i := range w.caches {
		w.caches[i].Tick(w.now)
		w.nodes[i].Tick(w.now)
	}
	for b := range w.bnodes {
		w.bnodes[b].Tick(w.now)
	}
	w.net.Tick(w.now)
	w.now++
	if check && w.err == nil {
		if err := coherence.CheckRuntime(w.caches, w.space, w.bankFor); err != nil {
			w.err = err
		}
	}
}

// driveOp polls cpu's in-flight operation once.
func (w *world) driveOp(cpu int) {
	d := &w.drv[cpu]
	switch d.op.kind {
	case opLoad:
		if v, ok := w.caches[cpu].Load(w.now, d.op.addr, 0xF); ok {
			w.observed(cpu, "load", d.op.addr, v)
			d.busy = false
			d.done++
		}
	case opStore:
		if w.caches[cpu].Store(w.now, d.op.addr, d.op.val, 0xF) {
			d.busy = false
			d.done++
		}
	case opSwap:
		if old, ok := w.caches[cpu].Swap(w.now, d.op.addr, d.op.val); ok {
			w.observed(cpu, "swap", d.op.addr, old)
			d.busy = false
			d.done++
		}
	}
}

// observed checks the ghost data-value invariant: a completed load (or
// the old value returned by a swap) must be a value some CPU actually
// wrote to that word — never an out-of-thin-air or torn word.
func (w *world) observed(cpu int, what string, addr uint32, v uint32) {
	if w.err != nil {
		return
	}
	idx := w.addrIndex(addr)
	for id, val := range w.values {
		if val == v {
			if w.ghost[idx]&(1<<id) == 0 {
				w.err = fmt.Errorf("ghost: cpu %d %s of %#x observed %d, which was never written to that word", cpu, what, addr, v)
			}
			return
		}
	}
	w.err = fmt.Errorf("ghost: cpu %d %s of %#x observed out-of-thin-air value %#x", cpu, what, addr, v)
}

// pendingWork reports whether anything is still in flight: an
// unfinished CPU operation, an undrained controller or bank, a queued
// node message, or an in-flight packet. A state with no pending work is
// quiescent; a state with pending work that the all-silent step cannot
// change is deadlocked.
func (w *world) pendingWork() bool {
	for i := range w.drv {
		if w.drv[i].busy {
			return true
		}
	}
	for i := range w.caches {
		if !w.caches[i].Drained() || !w.nodes[i].Idle() {
			return true
		}
	}
	for b := range w.banks {
		if !w.banks[b].Drained() || !w.bnodes[b].Idle() {
			return true
		}
	}
	return !w.net.Quiet()
}

// remainingOps reports whether any CPU may still initiate operations.
func (w *world) remainingOps() bool {
	for i := range w.drv {
		if w.drv[i].done < w.sc.OpsPerCPU {
			return true
		}
	}
	return false
}

// fingerprint hashes the complete behaviour-relevant state. Everything
// that influences future behaviour participates; counters, latency
// timestamps and observability handles do not. All times are relative
// to the current cycle so states reached at different absolute cycles
// can merge.
func (w *world) fingerprint() [16]byte {
	var b strings.Builder
	for i := range w.drv {
		d := &w.drv[i]
		fmt.Fprintf(&b, "D%t:%d:%x:%x:%d;", d.busy, d.op.kind, d.op.addr, d.op.val, d.done)
	}
	fmt.Fprintf(&b, "G%x;", w.ghost)
	for i, c := range w.caches {
		switch cc := c.(type) {
		case *coherence.WTICache:
			p := cc.PendingInfo()
			fmt.Fprintf(&b, "P%t%t%t%t%t%t:%x:%x:%x;", p.Active, p.IsSwap, p.Issued, p.Done,
				p.StrictStore, p.StrictDone, p.Addr, p.NewVal, p.OldVal)
			for _, e := range cc.WBEntries() {
				fmt.Fprintf(&b, "W%x:%x:%x:%t;", e.Addr, e.Word, e.ByteEn, e.Sent)
			}
		case *coherence.MESICache:
			p := cc.PendingInfo()
			fmt.Fprintf(&b, "P%t%t%t%t%t:%d:%x:%x:%x:%x:%x:%t:%x;", p.Active, p.Issued, p.Apply,
				p.IsSwap, p.Done, p.Kind, p.Blk, p.WAddr, p.Word, p.ByteEn, p.SwapOld,
				p.EvictActive, p.EvictAddr)
		}
		for _, li := range c.(coherence.Inspectable).Lines() {
			fmt.Fprintf(&b, "L%x:%d:%x;", li.Addr, li.State, li.Data)
		}
		for _, qm := range w.nodes[i].QueuedMsgs(w.now) {
			fmt.Fprintf(&b, "Q%d:%d:", qm.Dst, qm.NotBefore)
			qm.Msg.Fingerprint(&b)
		}
	}
	for bi, mc := range w.banks {
		for _, e := range mc.DirEntries() {
			if !e.Busy && e.Sharers == 0 && e.Owner < 0 && !e.Bcast && len(e.Deferred) == 0 {
				continue // indistinguishable from an absent entry
			}
			fmt.Fprintf(&b, "E%x:%x:%d:%t:%t:%d:%d:%d:%d:%t%t%t%t%t%t:%x;",
				e.Blk, e.Sharers, e.Owner, e.Bcast, e.Busy, e.Kind, e.ReqSrc, e.WaitAcks,
				e.FetchTarget, e.FetchPending, e.FetchSeen, e.FetchFwd, e.FetchHadData,
				e.RetainOwner, e.C2CDone, e.OldWord)
			for _, m := range e.Deferred {
				b.WriteByte('d')
				m.Fingerprint(&b)
			}
		}
		fmt.Fprintf(&b, "B%d;", mc.BusyFor(w.now))
		open, row := mc.RowState()
		fmt.Fprintf(&b, "R%t:%x;", open, row)
		for _, qm := range w.bnodes[bi].QueuedMsgs(w.now) {
			fmt.Fprintf(&b, "Q%d:%d:", qm.Dst, qm.NotBefore)
			qm.Msg.Fingerprint(&b)
		}
	}
	w.net.Each(w.now, func(dst bool, busy uint64) {
		tag := 'S'
		if dst {
			tag = 'T'
		}
		fmt.Fprintf(&b, "%c%d:", tag, busy)
	}, func(ready uint64, p noc.Packet) {
		fmt.Fprintf(&b, "%d>%d:%d:", p.Src, p.Dst, ready)
		p.Payload.(*coherence.Msg).Fingerprint(&b)
	})
	for _, a := range w.sc.Addrs {
		fmt.Fprintf(&b, "M%x;", w.space.ReadWord(a))
	}
	h := fnv.New128a()
	h.Write([]byte(b.String()))
	var fp [16]byte
	h.Sum(fp[:0])
	return fp
}

// quiescentCheck runs the strict whole-system invariant on a state with
// no pending work.
func (w *world) quiescentCheck() error {
	return coherence.CheckCoherence(w.caches, w.space, w.bankFor)
}
