package codegen

import (
	"testing"
	"testing/quick"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// flatRunner executes a finalized builder program on one CPU over an
// always-hit flat memory and returns the CPU.
func flatRunner(t *testing.T, b *Builder, base uint32) *cpu.CPU {
	t.Helper()
	code, err := b.Bytes()
	if err != nil {
		t.Fatalf("finalize: %v", err)
	}
	space := mem.NewSpace()
	for i, by := range code {
		space.SetByte(base+uint32(i), by)
	}
	fm := &flatPort{space: space}
	c := cpu.New(0, fm, &fm.fetches, fm)
	c.Reset(base, 0x80000, 1)
	for cyc := uint64(0); cyc < 1_000_000 && !c.Halted(); cyc++ {
		c.Tick(cyc)
	}
	if !c.Halted() {
		t.Fatalf("program did not halt (pc=%#x)", c.PC())
	}
	return c
}

type flatPort struct {
	space *mem.Space
	// The CPU calls Load, Store, Swap and Skip; the rest of the
	// interface stays unimplemented.
	coherence.DataCache

	// line is the block Line decodes afresh on every call (the core
	// replaces its window with each result, so one buffer serves).
	line    [8]isa.Instr
	fetches uint64
}

func (f *flatPort) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	f.fetches++
	base := addr &^ uint32(4*len(f.line)-1)
	for i := range f.line {
		f.line[i] = isa.Decode(f.space.ReadWord(base + uint32(4*i)))
	}
	return f.line[:], true
}

// Resident reports nothing resident: these tests never run ahead.
func (f *flatPort) Resident(addr uint32) ([]isa.Instr, bool) { return nil, false }

func (f *flatPort) Load(now uint64, addr uint32, byteEn uint8) (uint32, bool) {
	return f.space.ReadWord(addr &^ 3), true
}

func (f *flatPort) Store(now uint64, addr uint32, word uint32, byteEn uint8) bool {
	f.space.WriteMasked(addr&^3, word, byteEn)
	return true
}

func (f *flatPort) Swap(now uint64, addr uint32, newWord uint32) (uint32, bool) {
	old := f.space.ReadWord(addr)
	f.space.WriteWord(addr, newWord)
	return old, true
}

func (f *flatPort) Skip(from, to uint64) {}

func TestLiLoadsAnyConstantProperty(t *testing.T) {
	f := func(v uint32) bool {
		b := NewBuilder(0x1000)
		b.Li(T0, v)
		b.Halt()
		c := flatRunner(t, b, 0x1000)
		return c.Reg(int(T0)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Boundary values.
	for _, v := range []uint32{0, 1, 0x7fff, 0x8000, 0xffff, 0x10000, 0x7fffffff, 0x80000000, 0xffffffff} {
		b := NewBuilder(0x1000)
		b.Li(T0, v)
		b.Halt()
		if got := flatRunner(t, b, 0x1000).Reg(int(T0)); got != v {
			t.Fatalf("Li(%#x) loaded %#x", v, got)
		}
	}
}

func TestForwardAndBackwardBranches(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Li(T0, 3)
	b.Li(T1, 0)
	b.Label("loop")
	b.Addi(T1, T1, 10)
	b.Addi(T0, T0, -1)
	b.Bne(T0, R0, "loop") // backward
	b.Beq(R0, R0, "end")  // forward
	b.Addi(T1, T1, 1000)  // skipped
	b.Label("end")
	b.Halt()
	c := flatRunner(t, b, 0x1000)
	if got := c.Reg(int(T1)); got != 30 {
		t.Fatalf("loop result = %d, want 30", got)
	}
}

func TestJalCallAndReturn(t *testing.T) {
	b := NewBuilder(0x1000)
	b.J("main")
	b.Label("double")
	b.Add(A0, A0, A0)
	b.Ret()
	b.Label("main")
	b.Li(A0, 21)
	b.Jal("double")
	b.Mv(T0, A0)
	b.Halt()
	c := flatRunner(t, b, 0x1000)
	if got := c.Reg(int(T0)); got != 42 {
		t.Fatalf("call result = %d", got)
	}
}

func TestSpinLockMacroSequence(t *testing.T) {
	// Acquire a free lock: the swap must install 1 and fall through.
	b := NewBuilder(0x1000)
	b.Li(T5, 0x8000)
	b.SpinLock(T5, T6)
	b.Li(T0, 7)
	b.Halt()
	c := flatRunner(t, b, 0x1000)
	if c.Reg(int(T0)) != 7 {
		t.Fatal("lock acquisition did not complete")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Label("x")
	b.Label("x")
	if _, err := b.Finalize(); err == nil {
		t.Fatal("duplicate label accepted")
	}

	b = NewBuilder(0x1000)
	b.J("nowhere")
	if _, err := b.Finalize(); err == nil {
		t.Fatal("undefined label accepted")
	}

	b = NewBuilder(0x1000)
	b.Addi(T0, R0, 1<<20)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("out-of-range immediate accepted")
	}
}

func TestAutoLabelUnique(t *testing.T) {
	b := NewBuilder(0x1000)
	if b.AutoLabel("x") == b.AutoLabel("x") {
		t.Fatal("AutoLabel repeated a name")
	}
}

func TestBumpAlloc(t *testing.T) {
	a := NewBumpAlloc("t", 0x1000, 0x100)
	p1 := a.Alloc(4, 4)
	p2 := a.Alloc(10, 32)
	if p1 != 0x1000 {
		t.Fatalf("first alloc at %#x", p1)
	}
	if p2%32 != 0 || p2 < p1+4 {
		t.Fatalf("second alloc at %#x", p2)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exhaustion did not panic")
		}
	}()
	a.Alloc(0x1000, 4)
}

func TestRuntimeQueuePlacement(t *testing.T) {
	l := mem.DefaultLayout(4)
	bSMP := NewBuilder(l.CodeBase)
	rtSMP := NewRuntime(bSMP, l, SMP, 4)
	q := rtSMP.queueAddrOf(0)
	for cpu := 1; cpu < 4; cpu++ {
		if rtSMP.queueAddrOf(cpu) != q {
			t.Fatal("SMP queues are not centralized")
		}
	}
	if q < l.SharedBase || q >= l.SharedBase+l.SharedSize {
		t.Fatalf("SMP queue at %#x outside shared region", q)
	}

	bDS := NewBuilder(l.CodeBase)
	rtDS := NewRuntime(bDS, l, DS, 4)
	for cpu := 0; cpu < 4; cpu++ {
		qa := rtDS.queueAddrOf(cpu)
		if qa < l.PrivateSeg(cpu) || qa >= l.PrivateSeg(cpu)+l.PrivateSize {
			t.Fatalf("DS queue %d at %#x outside its private segment", cpu, qa)
		}
	}
}

func TestRuntimeImageStructures(t *testing.T) {
	l := mem.DefaultLayout(2)
	b := NewBuilder(l.CodeBase)
	rt := NewRuntime(b, l, DS, 2)
	bar := rt.NewBarrier()
	b.Label("worker")
	b.J("rt_thread_exit")
	rt.AddThread("worker", 7, 0)
	rt.AddThread("worker", 8, 1)
	img, err := rt.BuildImage()
	if err != nil {
		t.Fatal(err)
	}
	s := mem.NewSpace()
	img.LoadInto(s)

	if got := s.ReadWord(bar + barTotal); got != 2 {
		t.Fatalf("barrier total = %d", got)
	}
	// Each DS queue initially holds exactly its pinned thread.
	for cpu := 0; cpu < 2; cpu++ {
		qa := rt.queueAddrOf(cpu)
		if got := s.ReadWord(qa + qTail); got != 1 {
			t.Fatalf("queue %d tail = %d", cpu, got)
		}
		tcb := s.ReadWord(qa + qSlots)
		if got := s.ReadWord(tcb + tcbHome); got != uint32(cpu) {
			t.Fatalf("tcb home = %d, want %d", got, cpu)
		}
		wantPC, _ := b.LabelAddr("worker")
		if got := s.ReadWord(tcb + tcbPC); got != wantPC {
			t.Fatalf("tcb pc = %#x, want %#x", got, wantPC)
		}
		if got := s.ReadWord(tcb + tcbA0); got != uint32(7+cpu) {
			t.Fatalf("tcb a0 = %d", got)
		}
		sp := s.ReadWord(tcb + tcbSP)
		if sp <= l.PrivateSeg(cpu) || sp > l.StackTop(cpu) {
			t.Fatalf("tcb sp %#x outside stack range", sp)
		}
	}
	if img.Entry == 0 {
		t.Fatal("entry not set")
	}
}

func TestRuntimeStacksDisjointPerThread(t *testing.T) {
	l := mem.DefaultLayout(2)
	b := NewBuilder(l.CodeBase)
	rt := NewRuntime(b, l, SMP, 4)
	b.Label("w")
	b.J("rt_thread_exit")
	for i := 0; i < 4; i++ {
		rt.AddThread("w", uint32(i), i%2)
	}
	seen := map[uint32]bool{}
	for _, th := range rt.threads {
		if seen[th.stack] {
			t.Fatalf("two threads share stack %#x", th.stack)
		}
		seen[th.stack] = true
	}
}

func TestRuntimeUndefinedThreadLabel(t *testing.T) {
	l := mem.DefaultLayout(1)
	b := NewBuilder(l.CodeBase)
	rt := NewRuntime(b, l, DS, 1)
	rt.AddThread("missing", 0, 0)
	if _, err := rt.BuildImage(); err == nil {
		t.Fatal("undefined thread entry label accepted")
	}
}

func TestMvAndRegisterAliases(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Li(S3, 0xabcd)
	b.Mv(T2, S3)
	b.Halt()
	c := flatRunner(t, b, 0x1000)
	if c.Reg(int(T2)) != 0xabcd {
		t.Fatal("mv failed")
	}
}

func TestEncodedStreamDisassembles(t *testing.T) {
	b := NewBuilder(0x1000)
	b.Li(T0, 123456)
	b.SpinLock(T1, T2)
	b.Halt()
	words, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range words {
		if isa.Decode(w).Op == isa.OpInvalid {
			t.Fatalf("word %d (%#08x) does not decode", i, w)
		}
	}
}

// PC returns the address of the next emitted instruction.
func (b *Builder) PC() uint32 { return b.base + uint32(len(b.ins))*4 }

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.ins) }

func TestEveryEmitterExecutes(t *testing.T) {
	// One program touching every builder emitter, verified end to end;
	// the opcodes no workload emits go through r3, imm and branch.
	b := NewBuilder(0x1000)
	b.Li(T0, 12)
	b.Li(T1, 5)
	b.Add(T2, T0, T1)           // 17
	b.Sub(T3, T0, T1)           // 7
	b.r3(isa.OpAnd, T4, T0, T1) // 4
	b.r3(isa.OpOr, T5, T0, T1)  // 13
	b.r3(isa.OpXor, T6, T0, T1) // 9
	b.r3(isa.OpSll, T7, T1, T4) // 5<<4 = 80
	b.r3(isa.OpSrl, S0, T7, T4) // 5
	b.Li(S1, 0x80000000)
	b.r3(isa.OpSra, S1, S1, T4)     // 0xf8000000
	b.r3(isa.OpSlt, S2, T1, T0)     // 1
	b.r3(isa.OpSltu, S3, T0, T1)    // 0
	b.Mul(S4, T0, T1)               // 60
	b.r3(isa.OpDiv, S5, T0, T1)     // 2
	b.Rem(S6, T0, T1)               // 2
	b.imm(isa.OpXori, S7, T0, 0xff) // 0xf3
	b.imm(isa.OpSlti, S8, T1, 100)  // 1
	b.imm(isa.OpSrli, A1, T7, 2)    // 20
	b.imm(isa.OpSrai, A2, S1, 4)    // sign-propagating
	// Memory ops, word and byte.
	b.Li(A0, 0x8000)
	b.Sw(T2, 0, A0)
	b.Lw(A3, 0, A0) // 17
	b.imm(isa.OpSb, T1, A0, 5)
	b.imm(isa.OpLb, A4, A0, 5)  // 5
	b.imm(isa.OpLbu, A5, A0, 5) // 5
	// Float path.
	b.Li(T0, 3)
	b.CvtWS(F1, T0)
	b.CvtWS(F2, T1) // 5.0
	b.Fadd(F3, F1, F2)
	b.Fsub(F4, F2, F1)
	b.Fmul(F5, F1, F2)
	b.Fdiv(F6, F5, F2) // 3
	b.r3(isa.OpFneg, Reg(F7), Reg(F6), R0)
	b.r3(isa.OpFabs, Reg(F8), Reg(F7), R0) // 3
	b.r3(isa.OpFmov, Reg(F9), Reg(F8), R0)
	b.Fsw(F9, 8, A0)
	b.Flw(F10, 8, A0)
	b.r3(isa.OpFeq, T3, Reg(F8), Reg(F10)) // 1
	b.r3(isa.OpFlt, T4, Reg(F4), Reg(F3))  // 2 < 8 -> 1
	b.r3(isa.OpFle, T5, Reg(F3), Reg(F3))  // 1
	b.CvtSW(T6, F10)                       // 3
	// Branch variants.
	b.Blt(R0, T6, "blt_ok")
	b.Halt()
	b.Label("blt_ok")
	b.Bge(T6, R0, "bge_ok")
	b.Halt()
	b.Label("bge_ok")
	b.branch(isa.OpBltu, R0, T6, "bltu_ok")
	b.Halt()
	b.Label("bltu_ok")
	b.branch(isa.OpBgeu, T6, R0, "bgeu_ok")
	b.Halt()
	b.Label("bgeu_ok")
	b.Swap(T6, 0, A0) // T6=17 (old), mem=3
	b.emit(isa.Instr{Op: isa.OpNop})
	b.Halt()
	if b.Len() == 0 || b.PC() != 0x1000+uint32(4*b.Len()) {
		t.Fatal("PC/Len inconsistent")
	}
	c := flatRunner(t, b, 0x1000)
	checks := map[Reg]uint32{
		T2: 17, T3: 1, T4: 1, T5: 1, T6: 17,
		S0: 5, S2: 1, S3: 0, S4: 60, S5: 2, S6: 2,
		S7: 12 ^ 0xff, S8: 1, A1: 20,
		A3: 17, A4: 5, A5: 5,
	}
	for r, want := range checks { //lint:allow maprange — each register is checked on its own
		if got := c.Reg(int(r)); got != want {
			t.Errorf("r%d = %#x, want %#x", r, got, want)
		}
	}
	if got := c.Reg(int(S1)); got != 0xf8000000 {
		t.Errorf("sra = %#x", got)
	}
	if c.FReg(int(F3)) != 8 || c.FReg(int(F6)) != 3 || c.FReg(int(F8)) != 3 {
		t.Errorf("float chain: %v %v %v", c.FReg(int(F3)), c.FReg(int(F6)), c.FReg(int(F8)))
	}
}

func TestRuntimeAllocatorsAccessible(t *testing.T) {
	l := mem.DefaultLayout(2)
	b := NewBuilder(l.CodeBase)
	rt := NewRuntime(b, l, DS, 2)
	sh := rt.Shared().Alloc(64, 32)
	if sh < l.SharedBase {
		t.Fatal("shared allocation outside region")
	}
	pr := rt.private[1].Alloc(64, 8)
	if pr < l.PrivateSeg(1) || pr >= l.PrivateSeg(1)+l.PrivateSize {
		t.Fatal("private allocation outside segment")
	}
	if SMP.String() != "SMP" || DS.String() != "DS" {
		t.Fatal("mode names")
	}
}
