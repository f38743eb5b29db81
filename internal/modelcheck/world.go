package modelcheck

import (
	"fmt"
	"hash/fnv"
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

// newWorld builds the scoped system from reset.
func newWorld(sc *Scope, ops []op, values []uint32) *world {
	p := coherence.DefaultParams(sc.CPUs)
	p.WriteBufferWords = wbWords
	p.MemLatency = 2
	p.MemService = 1
	// The drivers never fetch, and a world is rebuilt for every replay:
	// one line keeps the instruction caches out of the allocator.
	p.ICacheBytes = p.BlockBytes
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
			Delay:     netDelay,
			SrcDepth:  srcDepth,
			FIFODepth: fifoDepth,
		}),
		space: mem.NewSpace(),
		drv:   make([]driver, sc.CPUs),
		ghost: make([]uint16, len(sc.Addrs)),
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

func (w *world) addrIndex(addr uint32) int {
	for i, a := range w.sc.Addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

// step advances the world one cycle under the given joint choice: the
// CPUs' operations first, then the hierarchy's own cycle
// (coherence.Hierarchy.Step). When check is set, the transient-safe
// runtime invariants are evaluated on the resulting state; replayed
// prefixes skip this because every prefix state was checked when first
// discovered.
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
	w.Step(w.now)
	w.now++
	if check && w.err == nil {
		w.err = w.CheckRuntime()
	}
}

// driveOp polls cpu's in-flight operation once.
func (w *world) driveOp(cpu int) {
	d := &w.drv[cpu]
	switch d.op.kind {
	case opLoad:
		if v, ok := w.DCaches[cpu].Load(w.now, d.op.addr, 0xF); ok {
			w.observed(cpu, "load", d.op.addr, v)
			d.busy = false
			d.done++
		}
	case opStore:
		if w.DCaches[cpu].Store(w.now, d.op.addr, d.op.val, 0xF) {
			d.busy = false
			d.done++
		}
	case opSwap:
		if old, ok := w.DCaches[cpu].Swap(w.now, d.op.addr, d.op.val); ok {
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
	w.Hierarchy.Fingerprint(&b, w.now)
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
