package cpu

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

// flatMem is an always-hit fake memory implementing both the data port
// and the instruction port, so instruction semantics can be tested
// without the coherence machinery.
type flatMem struct {
	space *mem.Space

	// line is the block Line decodes afresh on every call (the core
	// replaces its window with each result, so one buffer serves).
	line    [8]isa.Instr
	fetches uint64
}

func newFlatMem() *flatMem { return &flatMem{space: mem.NewSpace()} }

func (f *flatMem) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	f.fetches++
	base := addr &^ uint32(4*len(f.line)-1)
	for i := range f.line {
		f.line[i] = isa.Decode(f.space.ReadWord(base + uint32(4*i)))
	}
	return f.line[:], true
}

// Resident reports nothing resident: the tests on flatMem never run ahead.
func (f *flatMem) Resident(addr uint32) ([]isa.Instr, bool) { return nil, false }

func (f *flatMem) Load(now uint64, addr uint32) (uint32, bool) {
	return f.space.ReadWord(addr), true
}

func (f *flatMem) Store(now uint64, addr uint32, word uint32) bool {
	f.space.WriteWord(addr, word)
	return true
}

func (f *flatMem) Swap(now uint64, addr uint32, newWord uint32) (uint32, bool) {
	old := f.space.ReadWord(addr)
	f.space.WriteWord(addr, newWord)
	return old, true
}

func (f *flatMem) Skip(from, to uint64) {}

// Hit vouches for nothing, so the core never loads ahead.
func (f *flatMem) Hit(addr uint32) bool { return false }

func (f *flatMem) ChargeHits(n uint64) {}

// run executes instructions on a fresh CPU until HALT (or maxCycles).
func run(t *testing.T, prog []isa.Instr, setup func(*CPU, *flatMem)) (*CPU, *flatMem) {
	t.Helper()
	fm := newFlatMem()
	base := uint32(0x1000)
	for i, in := range prog {
		fm.space.WriteWord(base+uint32(4*i), mustEncode(in))
	}
	c := New(0, fm, &fm.fetches, fm)
	c.Reset(base, 0x8000, 1)
	if setup != nil {
		setup(c, fm)
	}
	for cyc := uint64(0); cyc < 100000 && !c.Halted(); cyc++ {
		c.Tick(cyc)
	}
	if !c.Halted() {
		t.Fatal("program did not halt")
	}
	return c, fm
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		op   isa.Op
		a, b uint32
		want uint32
	}{
		{isa.OpAdd, 3, 4, 7},
		{isa.OpSub, 3, 4, 0xffffffff},
		{isa.OpOr, 0b1100, 0b1010, 0b1110},
		{isa.OpMul, 7, 6, 42},
		{isa.OpMul, 0xffffffff, 3, 0xfffffffd}, // -1*3 = -3
	}
	for _, cse := range cases {
		c, _ := run(t, []isa.Instr{
			{Op: cse.op, Rd: 10, Rs1: 11, Rs2: 12},
			{Op: isa.OpHalt},
		}, func(c *CPU, _ *flatMem) {
			c.regs[11] = cse.a
			c.regs[12] = cse.b
		})
		if got := c.Reg(10); got != cse.want {
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", cse.op, cse.a, cse.b, got, cse.want)
		}
	}
}

func TestALUMatchesGoSemanticsProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		c, _ := run(t, []isa.Instr{
			{Op: isa.OpAdd, Rd: 10, Rs1: 11, Rs2: 12},
			{Op: isa.OpSub, Rd: 13, Rs1: 11, Rs2: 12},
			{Op: isa.OpMul, Rd: 14, Rs1: 11, Rs2: 12},
			{Op: isa.OpHalt},
		}, func(c *CPU, _ *flatMem) {
			c.regs[11] = a
			c.regs[12] = b
		})
		return c.Reg(10) == a+b && c.Reg(13) == a-b && c.Reg(14) == a*b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpAddi, Rd: 0, Rs1: 0, Imm: 55},
		{Op: isa.OpAdd, Rd: 10, Rs1: 0, Rs2: 0},
		{Op: isa.OpHalt},
	}, nil)
	if c.Reg(0) != 0 || c.Reg(10) != 0 {
		t.Fatalf("r0 = %d, r10 = %d", c.Reg(0), c.Reg(10))
	}
}

func TestLoadStoreWord(t *testing.T) {
	c, fm := run(t, []isa.Instr{
		{Op: isa.OpSw, Rd: 11, Rs1: 12, Imm: 8},
		{Op: isa.OpLw, Rd: 10, Rs1: 12, Imm: 8},
		{Op: isa.OpHalt},
	}, func(c *CPU, _ *flatMem) {
		c.regs[11] = 0xcafebabe
		c.regs[12] = 0x4000
	})
	if got := c.Reg(10); got != 0xcafebabe {
		t.Fatalf("lw = %#x", got)
	}
	if got := fm.space.ReadWord(0x4008); got != 0xcafebabe {
		t.Fatalf("memory = %#x", got)
	}
}

func TestSwapInstruction(t *testing.T) {
	c, fm := run(t, []isa.Instr{
		{Op: isa.OpSwap, Rd: 10, Rs1: 12, Imm: 0},
		{Op: isa.OpHalt},
	}, func(c *CPU, fm *flatMem) {
		c.regs[10] = 111 // value to install
		c.regs[12] = 0x4000
		fm.space.WriteWord(0x4000, 222)
	})
	if got := c.Reg(10); got != 222 {
		t.Fatalf("swap old = %d", got)
	}
	if got := fm.space.ReadWord(0x4000); got != 111 {
		t.Fatalf("swap memory = %d", got)
	}
}

func TestBranchesTakenAndNot(t *testing.T) {
	// beq r11, r12 skips the poison write when equal.
	mk := func(a, b uint32) uint32 {
		c, _ := run(t, []isa.Instr{
			{Op: isa.OpBeq, Rs1: 11, Rd: 12, Imm: 1}, // skip next when equal
			{Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 99},
			{Op: isa.OpHalt},
		}, func(c *CPU, _ *flatMem) {
			c.regs[11] = a
			c.regs[12] = b
		})
		return c.Reg(10)
	}
	if got := mk(5, 5); got != 0 {
		t.Fatalf("taken branch executed the skipped instruction: r10=%d", got)
	}
	if got := mk(5, 6); got != 99 {
		t.Fatalf("untaken branch skipped the instruction: r10=%d", got)
	}
}

func TestBackwardBranchLoop(t *testing.T) {
	// r10 counts down from 5; the loop re-executes until zero.
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 5},
		{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: 1}, // body: r11++
		{Op: isa.OpAddi, Rd: 10, Rs1: 10, Imm: -1},
		{Op: isa.OpBne, Rs1: 10, Rd: 0, Imm: -3},
		{Op: isa.OpHalt},
	}, nil)
	if got := c.Reg(11); got != 5 {
		t.Fatalf("loop body ran %d times, want 5", got)
	}
}

func TestJalAndJalr(t *testing.T) {
	// jal to a function that sets r10 and returns via jalr ra.
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpJal, Imm: 2},                  // call +2 (to index 3)
		{Op: isa.OpAddi, Rd: 11, Rs1: 0, Imm: 1}, // after return
		{Op: isa.OpHalt},
		{Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 42}, // function body
		{Op: isa.OpJalr, Rd: 0, Rs1: RegRA, Imm: 0},
	}, nil)
	if c.Reg(10) != 42 || c.Reg(11) != 1 {
		t.Fatalf("r10=%d r11=%d", c.Reg(10), c.Reg(11))
	}
}

func TestFPUOperationsAndLatency(t *testing.T) {
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpFadd, Rd: 1, Rs1: 2, Rs2: 3},
		{Op: isa.OpFmul, Rd: 4, Rs1: 2, Rs2: 3},
		{Op: isa.OpFdiv, Rd: 5, Rs1: 2, Rs2: 3},
		{Op: isa.OpHalt},
	}, func(c *CPU, _ *flatMem) {
		c.fregs[2] = 6
		c.fregs[3] = 4
	})
	if c.FReg(1) != 10 || c.FReg(4) != 24 || c.FReg(5) != 1.5 {
		t.Fatalf("fpu results: %v %v %v", c.FReg(1), c.FReg(4), c.FReg(5))
	}
	// Multi-cycle occupancy must be accounted.
	want := uint64(fpuAdd + fpuMul + fpuDiv - 3)
	if got := c.Stats().FPUBusyCycles; got != want {
		t.Fatalf("FPUBusyCycles = %d, want %d", got, want)
	}
}

func TestCvtRoundTrip(t *testing.T) {
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpCvtWS, Rd: 1, Rs1: 11},       // f1 = float(r11)
		{Op: isa.OpFmul, Rd: 2, Rs1: 1, Rs2: 1}, // f2 = f1*f1
		{Op: isa.OpCvtSW, Rd: 10, Rs1: 2},       // r10 = int(f2)
		{Op: isa.OpFsub, Rd: 3, Rs1: 0, Rs2: 1}, // f3 = 0 - f1
		{Op: isa.OpCvtSW, Rd: 12, Rs1: 3},
		{Op: isa.OpHalt},
	}, func(c *CPU, _ *flatMem) {
		c.regs[11] = 7
	})
	if c.Reg(10) != 49 {
		t.Fatalf("cvt roundtrip = %d", c.Reg(10))
	}
	if int32(c.Reg(12)) != -7 {
		t.Fatalf("negated conversion = %d", int32(c.Reg(12)))
	}
}

func TestLuiOriComposition(t *testing.T) {
	c, _ := run(t, []isa.Instr{
		{Op: isa.OpLui, Rd: 10, Imm: -8531 /* 0xdead as int16 */},
		{Op: isa.OpOri, Rd: 10, Rs1: 10, Imm: -16657 /* 0xbeef as int16 */},
		{Op: isa.OpHalt},
	}, nil)
	if got := c.Reg(10); got != 0xdeadbeef {
		t.Fatalf("lui/ori = %#x", got)
	}
}

func TestResetConventions(t *testing.T) {
	fm := newFlatMem()
	c := New(3, fm, &fm.fetches, fm)
	c.Reset(0x1000, 0x9000, 8)
	if c.Reg(RegID) != 3 || c.Reg(RegNum) != 8 || c.Reg(RegSP) != 0x9000 {
		t.Fatalf("reset registers: id=%d nc=%d sp=%#x", c.Reg(RegID), c.Reg(RegNum), c.Reg(RegSP))
	}
	if c.PC() != 0x1000 {
		t.Fatalf("pc = %#x", c.PC())
	}
}

func TestIllegalInstructionPanics(t *testing.T) {
	fm := newFlatMem()
	fm.space.WriteWord(0x1000, 0xf4000000) // unassigned major opcode 61
	c := New(0, fm, &fm.fetches, fm)
	c.Reset(0x1000, 0, 1)
	defer func() {
		want := "cpu 0: illegal instruction 0xf4000000 at pc=0x1000"
		if got := fmt.Sprint(recover()); got != want {
			t.Fatalf("illegal instruction: panic %q, want %q", got, want)
		}
	}()
	c.Tick(0)
}

func TestUnalignedAccessPanics(t *testing.T) {
	fm := newFlatMem()
	fm.space.WriteWord(0x1000, mustEncode(isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 2, Imm: 1}))
	c := New(0, fm, &fm.fetches, fm)
	c.Reset(0x1000, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned lw did not panic")
		}
	}()
	c.Tick(0)
}

// stallPort delays every answer by a fixed number of polls.
type stallPort struct {
	*flatMem
	delay int
	count int
}

func (s *stallPort) Load(now uint64, addr uint32) (uint32, bool) {
	s.count++
	if s.count%s.delay != 0 {
		return 0, false
	}
	return s.flatMem.Load(now, addr)
}

func TestDataStallAccounting(t *testing.T) {
	fm := newFlatMem()
	sp := &stallPort{flatMem: fm, delay: 4}
	base := uint32(0x1000)
	prog := []isa.Instr{
		{Op: isa.OpLw, Rd: 10, Rs1: 0, Imm: 0x100},
		{Op: isa.OpHalt},
	}
	for i, in := range prog {
		fm.space.WriteWord(base+uint32(4*i), mustEncode(in))
	}
	c := New(0, fm, &fm.fetches, sp)
	c.Reset(base, 0, 1)
	for cyc := uint64(0); cyc < 100 && !c.Halted(); cyc++ {
		c.Tick(cyc)
	}
	if got := c.Stats().DataStallCycles; got != 3 {
		t.Fatalf("DataStallCycles = %d, want 3", got)
	}
	if got := c.Stats().Loads; got != 1 {
		t.Fatalf("Loads = %d", got)
	}
}

func TestRemainingALUAndFPUOps(t *testing.T) {
	// Covers the operations not exercised elsewhere: immediate
	// variants and the float store and load.
	c, fm := run(t, []isa.Instr{
		{Op: isa.OpAndi, Rd: 10, Rs1: 11, Imm: 0x0ff0},
		{Op: isa.OpOri, Rd: 12, Rs1: 11, Imm: 0x000f},
		{Op: isa.OpAndi, Rd: 13, Rs1: 14, Imm: -1},
		{Op: isa.OpSlli, Rd: 15, Rs1: 11, Imm: 4},
		{Op: isa.OpFsub, Rd: 6, Rs1: 2, Rs2: 3},
		{Op: isa.OpFsw, Rd: 6, Rs1: 0, Imm: 0x300},
		{Op: isa.OpFlw, Rd: 7, Rs1: 0, Imm: 0x300},
		{Op: isa.OpHalt},
	}, func(c *CPU, _ *flatMem) {
		c.regs[11] = 0x1234
		c.regs[14] = 0xdead1234
		c.fregs[2] = 2.5
		c.fregs[3] = -1.5
	})
	if c.Reg(10) != 0x1234&0x0ff0 || c.Reg(12) != 0x1234|0xf {
		t.Fatalf("andi/ori: %#x %#x", c.Reg(10), c.Reg(12))
	}
	if c.Reg(13) != 0x1234 {
		t.Fatalf("andi zero-extends: %#x", c.Reg(13))
	}
	if c.Reg(15) != 0x12340 {
		t.Fatalf("slli = %#x", c.Reg(15))
	}
	if got := fm.space.ReadFloat(0x300); got != 4.0 {
		t.Fatalf("fsw stored %v", got)
	}
	if c.FReg(7) != 4.0 {
		t.Fatalf("flw loaded %v", c.FReg(7))
	}
}

func TestAllBranchVariants(t *testing.T) {
	cases := []struct {
		op    isa.Op
		a, b  uint32
		taken bool
	}{
		{isa.OpBeq, 1, 1, true},
		{isa.OpBeq, 1, 2, false},
		{isa.OpBne, 1, 1, false},
		{isa.OpBne, 1, 2, true},
		{isa.OpBge, 0, 0, true},
		{isa.OpBge, 1, 0, true},
		{isa.OpBge, 0xffffffff, 0, false}, // -1 < 0 signed
	}
	for _, cse := range cases {
		c, _ := run(t, []isa.Instr{
			{Op: cse.op, Rs1: 11, Rd: 12, Imm: 1},
			{Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 7},
			{Op: isa.OpHalt},
		}, func(c *CPU, _ *flatMem) {
			c.regs[11] = cse.a
			c.regs[12] = cse.b
		})
		skipped := c.Reg(10) == 0
		if skipped != cse.taken {
			t.Errorf("%v(%#x,%#x): taken=%v want %v", cse.op, cse.a, cse.b, skipped, cse.taken)
		}
	}
}

func TestHaltedCPUStaysHalted(t *testing.T) {
	c, _ := run(t, []isa.Instr{{Op: isa.OpHalt}}, nil)
	instr := c.Stats().Instructions
	for i := 0; i < 10; i++ {
		c.Tick(uint64(1000 + i))
	}
	if c.Stats().Instructions != instr {
		t.Fatal("halted CPU retired instructions")
	}
	if c.Stats().HaltedAt == 0 && instr != 1 {
		t.Fatal("HaltedAt not recorded")
	}
}

func TestInstStallAccounting(t *testing.T) {
	fm := newFlatMem()
	sp := &stallFetch{flatMem: fm, delay: 3}
	fm.space.WriteWord(0x1000, mustEncode(isa.Instr{Op: isa.OpHalt}))
	c := New(0, sp, &fm.fetches, fm)
	c.Reset(0x1000, 0, 1)
	for cyc := uint64(0); cyc < 100 && !c.Halted(); cyc++ {
		c.Tick(cyc)
	}
	if got := c.Stats().InstStallCycles; got != 2 {
		t.Fatalf("InstStallCycles = %d, want 2", got)
	}
}

type stallFetch struct {
	*flatMem
	delay int
	count int
}

func (s *stallFetch) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	s.count++
	if s.count%s.delay != 0 {
		return nil, false
	}
	return s.flatMem.Line(now, addr)
}

func TestFswStallRetries(t *testing.T) {
	// A store that stalls must retry without double-counting.
	fm := newFlatMem()
	sp := &stallStore{flatMem: fm, delay: 3}
	base := uint32(0x1000)
	prog := []isa.Instr{
		{Op: isa.OpSw, Rd: 11, Rs1: 0, Imm: 0x200},
		{Op: isa.OpHalt},
	}
	for i, in := range prog {
		fm.space.WriteWord(base+uint32(4*i), mustEncode(in))
	}
	c := New(0, fm, &fm.fetches, sp)
	c.Reset(base, 0, 1)
	c.regs[11] = 77
	for cyc := uint64(0); cyc < 100 && !c.Halted(); cyc++ {
		c.Tick(cyc)
	}
	if got := c.Stats().Stores; got != 1 {
		t.Fatalf("Stores = %d, want 1", got)
	}
	if fm.space.ReadWord(0x200) != 77 {
		t.Fatal("store never landed")
	}
}

type stallStore struct {
	*flatMem
	delay int
	count int
}

func (s *stallStore) Store(now uint64, addr uint32, w uint32) bool {
	s.count++
	if s.count%s.delay != 0 {
		return false
	}
	return s.flatMem.Store(now, addr, w)
}

// TestWindowServesTheLineAndIsDroppedOnFailure pins who asks the port
// and when: one Line per line entered, every other fetch counted by the
// core itself, and no window left after a failed Line or a Reset.
func TestWindowServesTheLineAndIsDroppedOnFailure(t *testing.T) {
	fm := newFlatMem()
	sp := &stallFetch{flatMem: fm, delay: 1} // every Line succeeds
	for i := uint32(0); i < 16; i++ {
		fm.space.WriteWord(0x1000+4*i, mustEncode(nop))
	}
	// Word 5 jumps to the last word of the next line.
	fm.space.WriteWord(0x1000+4*5, mustEncode(isa.Instr{Op: isa.OpJal, Imm: 15 - 6}))
	c := New(0, sp, &fm.fetches, fm)
	c.Reset(0x1000, 0, 1)
	now := uint64(0)
	tick := func(n int) {
		for ; n > 0; n-- {
			c.Tick(now)
			now++
		}
	}
	tick(6) // words 0..5 of the first line
	if sp.count != 1 || fm.fetches != 6 || c.PC() != 0x1000+4*15 {
		t.Fatalf("first line: %d Line calls, %d fetches, pc=%#x; want 1, 6, word 15", sp.count, fm.fetches, c.PC())
	}
	tick(1) // word 15: a new line, entered at its far end
	if sp.count != 2 || fm.fetches != 7 || c.st.Instructions != 7 {
		t.Fatalf("second line: %d Line calls, %d fetches, %d instructions", sp.count, fm.fetches, c.st.Instructions)
	}
	// Falling through into a line whose Line fails stalls the core and
	// leaves it without a window.
	fm.space.WriteWord(0x1000+4*16, mustEncode(isa.Instr{Op: isa.OpHalt}))
	sp.delay, sp.count = 3, 0
	tick(1)
	if c.window != nil || c.outcome != outcomeInstStall {
		t.Fatalf("after a failed Line: window of %d, outcome %d", len(c.window), c.outcome)
	}
	tick(2)
	if !c.Halted() || c.st.InstStallCycles != 2 {
		t.Fatalf("halted=%t after %d instruction-stall cycles", c.Halted(), c.st.InstStallCycles)
	}
	// Reset lands inside the line the core holds; it must ask again.
	sp.delay = 1
	c.Reset(0x1000+4*16, 0, 1)
	if c.window != nil {
		t.Fatal("Reset kept the window")
	}
	calls := sp.count
	tick(1)
	if sp.count != calls+1 {
		t.Fatal("the first fetch after Reset did not go to the port")
	}
}

// TestStalledCoreCountsOneFetchPerRetry holds the two ways a data
// stall is paid for to each other: ticked every cycle (-noleap, the
// benchmark's stepped driver) the core re-fetches inside its window on
// every retry; slept over, Skip charges the same fetches.
func TestStalledCoreCountsOneFetchPerRetry(t *testing.T) {
	run := func(skip bool) (fetches uint64, st Stats) {
		fm := newFlatMem()
		sp := &stallStore{flatMem: fm, delay: 10}
		fm.space.WriteWord(0x1000, mustEncode(isa.Instr{Op: isa.OpSw, Rd: 11, Rs1: 0, Imm: 0x200}))
		fm.space.WriteWord(0x1004, mustEncode(isa.Instr{Op: isa.OpHalt}))
		c := New(0, fm, &fm.fetches, sp)
		c.Reset(0x1000, 0, 1)
		for now := uint64(0); !c.Halted(); now++ {
			c.Tick(now)
			if skip && c.outcome == outcomeDataStall && sp.count == 1 {
				// Sleep through the next five retries; the fake store
				// counts its own attempts, so make them for it.
				c.Skip(now+1, now+6)
				sp.count += 5
				now += 5
			}
		}
		return fm.fetches, *c.Stats()
	}
	ticked, tst := run(false)
	slept, sst := run(true)
	if ticked != 11 || tst.DataStallCycles != 9 || tst.Instructions != 2 {
		t.Fatalf("ticked: %d fetches, %+v; want 11 = 9 retries + 2 instructions", ticked, tst)
	}
	if slept != ticked || sst != tst {
		t.Fatalf("slept: %d fetches %+v, ticked: %d fetches %+v", slept, sst, ticked, tst)
	}
}

// mustEncode encodes an instruction the test built to be encodable.
func mustEncode(in isa.Instr) uint32 {
	w, err := isa.Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
