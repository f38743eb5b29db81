package codegen

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// SchedMode selects the paper's OS configuration.
type SchedMode int

// The two operating-system configurations of the paper's Section 5.2.
const (
	// SMP is symmetric scheduling: one centralized ready queue in
	// shared memory, first-come-first-served, so a thread descheduled
	// at a barrier can resume on any CPU (migration) and every
	// scheduling operation contends on the same lock and bank.
	SMP SchedMode = iota
	// DS is decentralized scheduling: one ready queue per CPU placed
	// in that CPU's private memory bank; threads are pinned to their
	// home CPU and never migrate.
	DS
)

// String implements fmt.Stringer.
func (m SchedMode) String() string {
	if m == SMP {
		return "SMP"
	}
	return "DS"
}

// Structure layouts (word offsets in bytes) shared between the
// generated code and the host-side initialization.
const (
	qLock  = 0
	qHead  = 4
	qTail  = 8
	qSlots = 12

	barLock  = 0
	barCount = 4
	barTotal = 8
	barNWait = 12
	barWaitq = 16

	tcbPC   = 0
	tcbSP   = 4
	tcbA0   = 8
	tcbHome = 12
	tcbS0   = 16 // S0..S8: 9 words
	tcbSize = 64

	threadStackBytes = 32 * 1024
)

// Runtime builds the threading layer: it allocates the scheduler data
// structures, emits the boot/scheduler/exit/barrier code, and lays the
// initial thread control blocks into the memory image. It is the
// stand-in for the paper's lightweight POSIX-threads OS.
type Runtime struct {
	B       *Builder
	Layout  mem.Layout
	Mode    SchedMode
	Threads int // total thread count (fixed at creation)

	qCap    int    // slots per ready queue, power of two
	qSize   uint32 // bytes per ready queue
	qShared uint32 // SMP: the single queue address
	qOff    uint32 // DS: queue offset within each private segment

	finishedAddr uint32
	exitLockAddr uint32

	shared  *BumpAlloc
	private []*BumpAlloc

	threads  []threadInfo
	barriers []uint32
	emitted  bool
}

type threadInfo struct {
	label string
	arg   uint32
	home  int
	tcb   uint32
	stack uint32
}

// BumpAlloc is a trivial bump allocator over one address range; the
// host uses it to lay out data the way a linker + malloc would.
type BumpAlloc struct {
	name string
	next uint32
	end  uint32
}

// NewBumpAlloc covers [base, base+size).
func NewBumpAlloc(name string, base, size uint32) *BumpAlloc {
	return &BumpAlloc{name: name, next: base, end: base + size}
}

// Alloc reserves size bytes with the given power-of-two alignment.
func (a *BumpAlloc) Alloc(size, align uint32) uint32 {
	if align == 0 || align&(align-1) != 0 {
		panic("codegen: alignment must be a power of two")
	}
	p := (a.next + align - 1) &^ (align - 1)
	if p+size > a.end {
		panic(fmt.Sprintf("codegen: allocator %q exhausted (%d bytes requested)", a.name, size))
	}
	a.next = p + size
	return p
}

// NewRuntime prepares the runtime for the given scheduling mode and
// thread count; it must be created before any code is emitted so the
// boot and scheduler code sit at the image entry point.
func NewRuntime(b *Builder, l mem.Layout, mode SchedMode, threads int) *Runtime {
	if threads < 1 {
		panic("codegen: need at least one thread")
	}
	rt := &Runtime{B: b, Layout: l, Mode: mode, Threads: threads}
	rt.qCap = 1
	for rt.qCap < threads {
		rt.qCap *= 2
	}
	rt.qSize = uint32(qSlots + 4*rt.qCap)

	rt.shared = NewBumpAlloc("shared", l.SharedBase, l.SharedSize)
	rt.private = make([]*BumpAlloc, l.NumCPUs)
	for cpu := 0; cpu < l.NumCPUs; cpu++ {
		// The top of each private segment is reserved for stacks.
		rt.private[cpu] = NewBumpAlloc(fmt.Sprintf("private%d", cpu),
			l.PrivateSeg(cpu), l.PrivateSize-uint32(threadStackBytes)*2)
	}

	// Ready queues: one shared (SMP) or one per CPU at a common offset
	// within each private segment (DS).
	if mode == SMP {
		rt.qShared = rt.shared.Alloc(rt.qSize, 8)
	} else {
		rt.qOff = 0
		for cpu := 0; cpu < l.NumCPUs; cpu++ {
			addr := rt.private[cpu].Alloc(rt.qSize, 8)
			if off := addr - l.PrivateSeg(cpu); cpu == 0 {
				rt.qOff = off
			} else if off != rt.qOff {
				panic("codegen: ready queues not at a common private offset")
			}
		}
	}
	rt.finishedAddr = rt.shared.Alloc(4, 4)
	rt.exitLockAddr = rt.shared.Alloc(4, 4)

	rt.emitPrologue()
	return rt
}

// Shared returns the shared-region allocator for workload data.
func (rt *Runtime) Shared() *BumpAlloc { return rt.shared }

// queueAddrOf returns the ready-queue address for a home CPU
// (host-side mirror of the generated address computation).
func (rt *Runtime) queueAddrOf(home int) uint32 {
	if rt.Mode == SMP {
		return rt.qShared
	}
	return rt.Layout.PrivateSeg(home) + rt.qOff
}

// NewBarrier allocates a barrier for all threads and returns its
// address; pass it in A0 to a Jal("rt_barrier").
func (rt *Runtime) NewBarrier() uint32 {
	addr := rt.shared.Alloc(uint32(barWaitq+4*rt.Threads), 8)
	rt.barriers = append(rt.barriers, addr)
	return addr
}

// AddThread registers a thread running the code at label with the
// given argument (delivered in A0) pinned initially to CPU home. The
// TCB and stack placement follow the mode: private bank for DS, shared
// for SMP (the paper's Architecture 1 memory layout puts everything in
// one bank anyway).
func (rt *Runtime) AddThread(label string, arg uint32, home int) {
	if home < 0 || home >= rt.Layout.NumCPUs {
		panic("codegen: thread home out of range")
	}
	var tcb uint32
	if rt.Mode == SMP {
		tcb = rt.shared.Alloc(tcbSize, 8)
	} else {
		tcb = rt.private[home].Alloc(tcbSize, 8)
	}
	// One stack per thread, at the top of the home private segment,
	// below previously allocated thread stacks of the same CPU.
	n := 0
	for _, t := range rt.threads {
		if t.home == home {
			n++
		}
	}
	stack := rt.Layout.StackTop(home) - uint32(n)*threadStackBytes
	rt.threads = append(rt.threads, threadInfo{
		label: label, arg: arg, home: home, tcb: tcb, stack: stack,
	})
}

// SpinLock emits a test-and-test-and-set acquire of the lock word at
// 0(addr), clobbering tmp.
func (b *Builder) SpinLock(addr, tmp Reg) {
	l := b.AutoLabel("spin")
	b.Label(l)
	b.Lw(tmp, 0, addr)
	b.Bne(tmp, R0, l)
	b.Addi(tmp, R0, 1)
	b.Swap(tmp, 0, addr)
	b.Bne(tmp, R0, l)
}

// SpinUnlock releases the lock word at 0(addr).
func (b *Builder) SpinUnlock(addr Reg) {
	b.Sw(R0, 0, addr)
}

// loadQueueAddr emits code leaving in dst the ready-queue address of
// the CPU whose id is in cpu (clobbers tmp, which may be cpu).
func (rt *Runtime) loadQueueAddr(dst, cpu, tmp Reg) {
	b := rt.B
	if rt.Mode == SMP {
		b.Li(dst, rt.qShared)
		return
	}
	shift := int32(bits.TrailingZeros32(rt.Layout.PrivateSize))
	b.Slli(tmp, cpu, shift)
	b.Li(dst, rt.Layout.PrivateBase+rt.qOff)
	b.Add(dst, dst, tmp)
}

// emitPrologue emits boot + scheduler + thread exit + barrier. The boot
// entry is the label "rt_boot"; workload kernels call "rt_barrier" and
// finish by jumping to "rt_thread_exit".
func (rt *Runtime) emitPrologue() {
	b := rt.B
	mask := int32(rt.qCap - 1)

	// ---- boot: every CPU enters the scheduler loop (stackless). ----
	b.Label("rt_boot")

	// ---- scheduler loop ----
	b.Label("rt_sched_loop")
	// All threads done?
	b.Li(T0, rt.finishedAddr)
	b.Lw(T1, 0, T0)
	b.Li(T2, uint32(rt.Threads))
	b.Beq(T1, T2, "rt_halt")
	// My ready queue.
	rt.loadQueueAddr(T3, ID, T4)
	// Empty test without the lock (cache-friendly idle spin).
	b.Lw(T5, qHead, T3)
	b.Lw(T6, qTail, T3)
	b.Beq(T5, T6, "rt_sched_loop")
	// Lock, re-check, pop.
	b.SpinLock(T3, T7)
	b.Lw(T5, qHead, T3)
	b.Lw(T6, qTail, T3)
	b.Beq(T5, T6, "rt_sched_unlock")
	b.Andi(T7, T5, mask)
	b.Slli(T7, T7, 2)
	b.Add(T7, T7, T3)
	b.Lw(K0, qSlots, T7) // K0 = TCB of the thread to run
	b.Addi(T5, T5, 1)
	b.Sw(T5, qHead, T3)
	b.SpinUnlock(T3)
	// Restore context and jump.
	b.Lw(SP, tcbSP, K0)
	b.Lw(A0, tcbA0, K0)
	for i := 0; i < 9; i++ {
		b.Lw(S0+Reg(i), int32(tcbS0+4*i), K0)
	}
	b.Lw(T0, tcbPC, K0)
	b.Jalr(R0, T0, 0)

	b.Label("rt_sched_unlock")
	b.SpinUnlock(T3)
	b.J("rt_sched_loop")

	b.Label("rt_halt")
	b.Halt()

	// ---- thread exit ----
	b.Label("rt_thread_exit")
	b.Li(T0, rt.exitLockAddr)
	b.SpinLock(T0, T1)
	b.Li(T2, rt.finishedAddr)
	b.Lw(T3, 0, T2)
	b.Addi(T3, T3, 1)
	b.Sw(T3, 0, T2)
	b.SpinUnlock(T0)
	b.J("rt_sched_loop")

	// ---- barrier: A0 = barrier address, K0 = current TCB ----
	b.Label("rt_barrier")
	b.SpinLock(A0, T0)
	b.Lw(T1, barCount, A0)
	b.Addi(T1, T1, 1)
	b.Lw(T2, barTotal, A0)
	b.Beq(T1, T2, "rt_bar_last")
	// Not last: record arrival, save context, park on the wait list.
	b.Sw(T1, barCount, A0)
	b.Sw(RA, tcbPC, K0)
	b.Sw(SP, tcbSP, K0)
	b.Sw(A0, tcbA0, K0)
	for i := 0; i < 9; i++ {
		b.Sw(S0+Reg(i), int32(tcbS0+4*i), K0)
	}
	b.Lw(T3, barNWait, A0)
	b.Slli(T4, T3, 2)
	b.Add(T4, T4, A0)
	b.Sw(K0, barWaitq, T4)
	b.Addi(T3, T3, 1)
	b.Sw(T3, barNWait, A0)
	b.SpinUnlock(A0)
	b.J("rt_sched_loop")

	// Last arriver: reset and wake everyone, then continue.
	b.Label("rt_bar_last")
	b.Sw(R0, barCount, A0)
	b.Lw(T3, barNWait, A0) // T3 = waiters to wake
	b.Sw(R0, barNWait, A0)
	b.Addi(T4, R0, 0) // T4 = i
	b.Label("rt_bar_wake")
	b.Beq(T4, T3, "rt_bar_done")
	b.Slli(T5, T4, 2)
	b.Add(T5, T5, A0)
	b.Lw(T6, barWaitq, T5) // T6 = waiter TCB
	// Enqueue T6 on its home ready queue.
	b.Lw(T7, tcbHome, T6)
	rt.loadQueueAddr(K1, T7, T7)
	b.SpinLock(K1, T7)
	b.Lw(T7, qTail, K1)
	b.Andi(T1, T7, mask)
	b.Slli(T1, T1, 2)
	b.Add(T1, T1, K1)
	b.Sw(T6, qSlots, T1)
	b.Addi(T7, T7, 1)
	b.Sw(T7, qTail, K1)
	b.SpinUnlock(K1)
	b.Addi(T4, T4, 1)
	b.J("rt_bar_wake")
	b.Label("rt_bar_done")
	b.SpinUnlock(A0)
	b.Ret()
}

// BuildImage finalizes the code and lays out every runtime structure
// and initial thread into a loadable image. Call after all kernels are
// emitted.
func (rt *Runtime) BuildImage() (*mem.Image, error) {
	code, err := rt.B.Bytes()
	if err != nil {
		return nil, err
	}
	if uint32(len(code)) > rt.Layout.CodeSize {
		return nil, fmt.Errorf("codegen: code (%d bytes) exceeds the code segment", len(code))
	}
	img := mem.NewImage()
	img.AddSegment(rt.Layout.CodeBase, code)
	entry, ok := rt.B.LabelAddr("rt_boot")
	if !ok {
		return nil, fmt.Errorf("codegen: rt_boot not emitted")
	}
	img.Entry = entry
	img.Define("rt_finished", rt.finishedAddr)

	// Globals.
	img.WriteWord(rt.finishedAddr, 0)
	img.WriteWord(rt.exitLockAddr, 0)

	// Barriers.
	for _, addr := range rt.barriers {
		img.WriteWord(addr+barLock, 0)
		img.WriteWord(addr+barCount, 0)
		img.WriteWord(addr+barTotal, uint32(rt.Threads))
		img.WriteWord(addr+barNWait, 0)
	}

	// Ready queues, initially empty.
	type qinit struct {
		addr uint32
		tail uint32
	}
	queues := make(map[uint32]*qinit)
	addQueue := func(addr uint32) *qinit {
		q, ok := queues[addr]
		if !ok {
			q = &qinit{addr: addr}
			queues[addr] = q
		}
		return q
	}
	if rt.Mode == SMP {
		addQueue(rt.qShared)
	} else {
		for cpu := 0; cpu < rt.Layout.NumCPUs; cpu++ {
			addQueue(rt.queueAddrOf(cpu))
		}
	}

	// Threads: TCBs plus initial ready-queue population.
	for i, t := range rt.threads {
		pc, ok := rt.B.LabelAddr(t.label)
		if !ok {
			return nil, fmt.Errorf("codegen: thread %d: undefined entry label %q", i, t.label)
		}
		img.WriteWord(t.tcb+tcbPC, pc)
		img.WriteWord(t.tcb+tcbSP, t.stack)
		img.WriteWord(t.tcb+tcbA0, t.arg)
		img.WriteWord(t.tcb+tcbHome, uint32(t.home))
		for j := 0; j < 9; j++ {
			img.WriteWord(t.tcb+tcbS0+uint32(4*j), 0)
		}
		q := addQueue(rt.queueAddrOf(t.home))
		img.WriteWord(q.addr+qSlots+4*(q.tail%uint32(rt.qCap)), t.tcb)
		q.tail++
	}
	for _, q := range queues { //lint:allow maprange — each queue writes only its own words
		img.WriteWord(q.addr+qLock, 0)
		img.WriteWord(q.addr+qHead, 0)
		img.WriteWord(q.addr+qTail, q.tail)
	}
	return img, nil
}
