package modelcheck

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"strings"

	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/noc"
)

// world is one concrete instance of the scoped system: the memory
// hierarchy the simulator wires (coherence.NewHierarchy) over the real
// interconnect, plus the per-CPU drivers and the ghost written-value
// sets. The explorer rebuilds a world from reset and replays a choice
// path to re-enter any state.
type world struct {
	sc     *Scope
	ops    []op
	values []uint32

	*coherence.Hierarchy
	net   *noc.GMN
	space *mem.Space
	now   uint64

	drv []driver
	// ghost[i] is the set of value-table indices ever written to
	// scoped word i (bit 0 = the initial value). A completed load or
	// swap must observe a member.
	ghost []uint16

	// err is the first invariant or ghost violation observed.
	err error
	// log, when set, receives each operation's begin and completion:
	// the counterexample trace.
	log *strings.Builder
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

// silent reports whether c gives every CPU in the pinned mask digit 0.
func (c choice) silent(pinned uint8, base int) bool {
	for ; pinned != 0; pinned >>= 1 {
		if pinned&1 != 0 && int(c)%base != 0 {
			return false
		}
		c /= choice(base)
	}
	return true
}

// newWorld builds the scoped system from reset.
func newWorld(sc *Scope, ops []op, values []uint32) *world {
	p := coherence.DefaultParams(sc.CPUs)
	p.WriteBufferWords = wbWords
	p.MemLatency = 2
	p.MemService = 1
	// The drivers never fetch, and a world is rebuilt for every replay:
	// one instruction line, and one data line per scoped block (rounded
	// up to a power of two), keep the caches out of the allocator.
	p.ICacheBytes = coherence.BlockBytes
	p.DCacheBytes = coherence.BlockBytes << bits.Len(uint(sc.Addrs-1))
	amap := mem.NewAddrMap(sc.Banks)
	banks := make([]int, sc.Banks)
	for i := range banks {
		banks[i] = i
	}
	region := mem.Region{Name: "scope", Base: scopeBase, Size: 1 << 20, Banks: banks}
	if sc.Banks > 1 {
		region.Granule = coherence.BlockBytes
	}
	amap.AddRegion(region)

	w := &world{
		sc:     sc,
		ops:    ops,
		values: values,
		net: noc.NewGMN(noc.GMNConfig{
			Nodes:     sc.CPUs + sc.Banks,
			Delay:     netDelay,
			SrcDepth:  srcDepth,
			FIFODepth: fifoDepth,
		}),
		space: mem.NewSpace(),
		drv:   make([]driver, sc.CPUs),
		ghost: make([]uint16, sc.Addrs),
	}
	w.Hierarchy = coherence.NewHierarchy(w.net, w.space, amap, p, sc.Proto)
	for i := range w.ghost {
		w.ghost[i] = 1 // initial memory value (table index 0) is readable
	}
	for _, mc := range w.Banks {
		mc.Fault = sc.Fault
	}
	return w
}

func addrIndex(addr uint32) int { return int(addr-scopeBase) / coherence.BlockBytes }

// step advances the world one cycle under the given joint choice: the
// CPUs' operations first, then the hierarchy's own cycle
// (coherence.Hierarchy.Step). When check is set, the transient-safe
// runtime invariants are evaluated on the resulting state; replayed
// prefixes skip this because every prefix state was checked when first
// discovered.
func (w *world) step(c choice, check bool) {
	base := len(w.ops) + 1
	var completed uint8
	for cpu := range w.drv {
		d := &w.drv[cpu]
		digit := int(c) % base
		c /= choice(base)
		if !d.busy && digit > 0 {
			d.op = w.ops[digit-1]
			d.busy = true
			if w.log != nil {
				fmt.Fprintf(w.log, "  cycle %3d: cpu%d begins %s\n", w.now, cpu, d.op)
			}
			if d.op.kind != opLoad {
				// The written value may become observable to any
				// CPU from this point on; ghost sets are monotone.
				w.ghost[addrIndex(d.op.addr)] |= 1 << d.op.valID
			}
		}
		if d.busy && w.driveOp(cpu, d.op) {
			d.busy = false
			d.done++
			completed |= 1 << cpu
		}
	}
	w.Step(w.now)
	for cpu := range w.drv {
		if w.log != nil && completed>>cpu&1 != 0 {
			fmt.Fprintf(w.log, "  cycle %3d: cpu%d completes %s\n", w.now, cpu, w.drv[cpu].op)
		}
	}
	w.now++
	if check && w.err == nil {
		w.err = w.CheckRuntime()
	}
}

// driveOp polls o, cpu's operation in flight, once and reports
// whether it completed.
func (w *world) driveOp(cpu int, o op) bool {
	switch o.kind {
	case opLoad:
		v, ok := w.DCaches[cpu].Load(w.now, o.addr)
		if ok {
			w.observed(cpu, "load", o.addr, v)
		}
		return ok
	case opStore:
		return w.DCaches[cpu].Store(w.now, o.addr, o.val)
	default:
		old, ok := w.DCaches[cpu].Swap(w.now, o.addr, o.val)
		if ok {
			w.observed(cpu, "swap", o.addr, old)
		}
		return ok
	}
}

// observed checks the ghost data-value invariant: a completed load (or
// the old value returned by a swap) must be a value some CPU actually
// wrote to that word — never an out-of-thin-air or torn word.
func (w *world) observed(cpu int, what string, addr uint32, v uint32) {
	if w.err != nil {
		return
	}
	idx := addrIndex(addr)
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
// unfinished CPU operation, or work below the CPUs. A state with no
// pending work is quiescent; a state with pending work that the
// all-silent step cannot change is deadlocked.
func (w *world) pendingWork() bool {
	for i := range w.drv {
		if w.drv[i].busy {
			return true
		}
	}
	return w.Pending(nil)
}

// pinned returns the CPUs that may only choose silence: those with an
// operation in flight, and those out of operations.
func (w *world) pinned() uint8 {
	var m uint8
	for i := range w.drv {
		if w.drv[i].busy || w.drv[i].done >= w.sc.OpsPerCPU {
			m |= 1 << i
		}
	}
	return m
}

// fingerprint hashes the complete behaviour-relevant state, encoded
// into e (reused across calls). Everything that influences future
// behaviour participates; counters, latency timestamps and
// observability handles do not. All times are relative to the current
// cycle so states reached at different absolute cycles can merge.
func (w *world) fingerprint(e *coherence.Enc) [16]byte {
	*e = (*e)[:0]
	for i := range w.drv {
		d := &w.drv[i]
		e.Bools(d.busy)
		e.U32(uint32(d.op.kind), d.op.addr, d.op.val, uint32(d.done))
	}
	for _, g := range w.ghost {
		e.U32(uint32(g))
	}
	w.Hierarchy.Fingerprint(e, w.now)
	// A tag before each port and each packet marks where a port's
	// packets end.
	w.net.Each(w.now, func(dst bool, busy uint64) {
		tag := uint32('S')
		if dst {
			tag = 'T'
		}
		e.U32(tag)
		e.U64(busy)
	}, func(ready uint64, p noc.Packet) {
		e.U32('P', uint32(p.Src), uint32(p.Dst))
		e.U64(ready)
		w.InFlight(p).Fingerprint(e)
	})
	for i := range w.sc.Addrs {
		e.U32(w.space.ReadWord(scopeAddr(i)))
	}
	h := fnv.New128a()
	h.Write(*e)
	var fp [16]byte
	h.Sum(fp[:0])
	return fp
}
