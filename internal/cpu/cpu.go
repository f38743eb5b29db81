// Package cpu implements the SR32 in-order processor model. Each CPU
// retires at most one instruction per cycle; instruction fetches go
// through the instruction cache and data accesses through the
// protocol's data cache, both with a poll-retry discipline, so every
// stalled cycle is attributed to its cause (instruction refill, data
// access, or FPU occupancy). The data-stall share of execution time is
// the metric of the paper's Figure 6.
//
// The core fetches by line: Line gives it the decoded block around the
// pc and it serves the fetches inside that window by index, counting
// them itself. The core owns the window; one rule keeps it true: a
// failed Line or Resident (and Reset) drops it. See coherence.ICache.
//
// A core can run ahead of the clock (RunAhead) through cycles that are
// local: an FPU wait, or an instruction whose block is resident (the
// window, or the block Resident hands a burst that leaves it) that is a
// register, branch or FPU operation or an aligned word load its data
// cache says hits (DataPort.Hit). Such a cycle touches only
// the core's registers, counters and the caches' replacement stamps —
// nothing a message, another ticker or a hook can observe before that
// cycle comes — so executing it early, with that cycle as now, is
// executing it. Everything else runs at its own cycle through Tick: a
// miss or a fetch whose block is not resident starts a transaction, HALT
// ends the run, an illegal or misaligned access must panic where it
// stands. Stores too, even to an owned line: a store is what the rest
// of the machine observes (and letting MESI's join measured slower, not
// faster).
//
// A burst back at its starting state (pc, registers, an idle FPU) has
// proved a spin: a pure loop, across I-lines or not, that repeats until
// the core's caches change, which only its cluster's Tick does. RunAhead
// stops there and the core sleeps in the loop, no wake of its own; Skip
// counts its periods and leaves the core where the naive one stands;
// Tick ends it.
package cpu

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Per-tick outcomes, recorded for the wake contract. outcomeActive (the
// zero value) means the core retired or attempted real work and must
// execute every cycle; the others are stall states whose per-cycle
// effect is exactly one counter bump, which Skip charges.
const (
	outcomeActive uint8 = iota
	outcomeHalted
	outcomeFPU
	outcomeInstStall
	outcomeDataStall
)

// spinLoop is what a burst keeps to prove a spin: the pc and registers
// it started from and the loads it has retired. Once the burst is back
// at that state, period is set (loads is then what any period cycles in
// a row of the loop load) and the core sleeps in the loop.
type spinLoop struct {
	period, loads uint64
	pc            uint32
	regs          [32]uint32
	fregs         [32]float32
}

// Register conventions used by the code generator and runtime: r0 is
// hardwired zero; at reset r1 holds the CPU id and r2 the CPU count;
// r29 is the stack pointer and r31 the link register.
const (
	RegZero = 0
	RegID   = 1
	RegNum  = 2
	RegSP   = 29
	RegRA   = 31
)

// InstrPort is the CPU's instruction-fetch interface, implemented by
// coherence.ICache and by test fakes.
type InstrPort interface {
	// Line counts one fetch at addr and returns the decoded, naturally
	// aligned block holding it, or false while that block is refilled.
	Line(now uint64, addr uint32) ([]isa.Instr, bool)
	// Resident is Line's hit without its fetch; else false, changing nothing.
	Resident(addr uint32) ([]isa.Instr, bool)
}

// DataPort is the CPU's data-access interface: what the core calls of
// its protocol's coherence.DataCache, which documents each method.
type DataPort interface {
	Load(now uint64, addr uint32) (word uint32, ok bool)
	Store(now uint64, addr uint32, word uint32) bool
	Swap(now uint64, addr uint32, newWord uint32) (old uint32, ok bool)
	Hit(addr uint32) bool
	ChargeHits(n uint64)
	Skip(from, to uint64)
}

// The multi-cycle latencies of floating-point operations (occupancy of
// the single FPU), those of a simple single-precision SPARC-class FPU.
const (
	fpuAdd = 2
	fpuMul = 4
	fpuDiv = 16
)

// Stats aggregates one CPU's execution counters.
type Stats struct {
	Instructions    uint64
	Loads           uint64
	Stores          uint64
	Swaps           uint64
	DataStallCycles uint64
	InstStallCycles uint64
	FPUBusyCycles   uint64
	HaltedAt        uint64
}

// CPU is one SR32 core.
type CPU struct {
	ID int

	regs  [32]uint32
	fregs [32]float32
	pc    uint32

	icache InstrPort
	dcache DataPort

	window  []isa.Instr // the block Line or Resident last returned; nil if it failed
	winBase uint32      // window's address
	fetches *uint64     // icache's fetch counter

	busyUntil uint64
	halted    bool

	// ahead is the first cycle RunAhead has not executed: Tick comes no
	// earlier, NextWake answers it, Skip charges nothing below it.
	// ranAhead and bursts are Ahead's counts; spins, spun and crossed Spun's.
	ahead, ranAhead, bursts, spins, spun, crossed uint64

	// outcome records what the most recent Tick did, for NextWake and
	// Skip. It is updated at every Tick return point, so between cycles
	// it always describes the core's current steady state.
	outcome uint8
	spin    spinLoop // the core sleeps in a spin while spin.period != 0

	// Obs, when attached, records stall runs as spans on this CPU's
	// stall row. stallKind remembers the run in progress (0 none,
	// 1 instruction, 2 data); it stays 0 while Obs is nil, so the hot
	// path pays only a byte compare.
	Obs        *obs.Recorder
	stallKind  uint8
	stallStart uint64

	st Stats
}

// New builds a core wired to its caches; fetches is ic's fetch counter.
func New(id int, ic InstrPort, fetches *uint64, dc DataPort) *CPU {
	return &CPU{ID: id, icache: ic, fetches: fetches, dcache: dc}
}

// Reset initializes the architectural state: entry PC, stack pointer,
// and the id/count registers the runtime boot code relies on.
func (c *CPU) Reset(entry, sp uint32, numCPUs int) {
	c.regs = [32]uint32{}
	c.fregs = [32]float32{}
	c.pc = entry
	c.regs[RegID] = uint32(c.ID)
	c.regs[RegNum] = uint32(numCPUs)
	c.regs[RegSP] = sp
	c.halted = false
	c.busyUntil = 0
	c.ahead = 0
	c.window = nil
	c.outcome = outcomeActive
	c.spin.period = 0
}

// Halted reports whether the core has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Stats returns the core's counters.
func (c *CPU) Stats() *Stats { return &c.st }

// PC returns the current program counter (diagnostics).
func (c *CPU) PC() uint32 { return c.pc }

// Reg returns integer register r (diagnostics and tests).
func (c *CPU) Reg(r int) uint32 { return c.regs[r] }

// FReg returns float register r (diagnostics and tests).
func (c *CPU) FReg(r int) float32 { return c.fregs[r] }

func (c *CPU) setReg(r uint8, v uint32) {
	if r != RegZero {
		c.regs[r] = v
	}
}

// Ahead reports the instructions retired ahead of the clock and the
// bursts they came in (host-side diagnostics, like sim.TickCount).
func (c *CPU) Ahead() (instructions, bursts uint64) { return c.ranAhead, c.bursts }

// Spun reports the spin sleeps entered, the cycles slept and the I-lines
// the sleeps' executed tails entered (like Ahead).
func (c *CPU) Spun() (sleeps, cycles, lines uint64) { return c.spins, c.spun, c.crossed }

// Tick advances the core by one cycle.
func (c *CPU) Tick(now uint64) {
	if now < c.ahead {
		panic(fmt.Sprintf("cpu %d: Tick at cycle %d, already run ahead to %d (pc=%#x)", c.ID, now, c.ahead, c.pc))
	}
	c.spin.period = 0 // Skip left the pc and registers where the naive core stands
	if c.halted {
		c.outcome = outcomeHalted
		return
	}
	if c.busyUntil > now {
		c.st.FPUBusyCycles++
		c.outcome = outcomeFPU
		return
	}
	i := c.slot()
	if i < uint32(len(c.window)) {
		*c.fetches++
	} else if c.enter(c.icache.Line(now, c.pc)) {
		i = c.pc / 4 % uint32(len(c.window))
	} else {
		c.st.InstStallCycles++
		c.noteStall(now, 1)
		c.outcome = outcomeInstStall
		return
	}
	in := c.window[i]
	if in.Op == isa.OpInvalid {
		panic(fmt.Sprintf("cpu %d: illegal instruction %#08x at pc=%#x", c.ID, uint32(in.Imm), c.pc))
	}
	if in.Op.IsMemory() {
		if !c.execMem(now, in) {
			c.st.DataStallCycles++
			c.noteStall(now, 2)
			c.outcome = outcomeDataStall
			return
		}
		c.retire(now, c.pc+4)
		return
	}
	c.exec(now, in)
}

// RunAhead executes the cycles [from, horizon) for as long as each is
// local (see the package comment), exactly as Tick would at that cycle,
// and returns the first it did not execute: the next the core is ticked
// at. from is the cycle after the last Tick; the caller vouches that
// before horizon nothing reaches the core's caches and no observer looks.
func (c *CPU) RunAhead(from, horizon uint64) uint64 {
	now, retired, s := from, c.st.Instructions, &c.spin
	if c.halted { // HALT retires like any instruction: outcome cannot tell
		horizon = from
	}
	s.pc, s.loads = c.pc, 0
	s.regs = c.regs // separate statements: a tuple would copy twice
	s.fregs = c.fregs
	canSpin := c.busyUntil <= from // a period: one instruction a cycle
loop:
	for now < horizon {
		if c.busyUntil > now {
			n := min(c.busyUntil, horizon) - now
			c.st.FPUBusyCycles += n
			c.outcome = outcomeFPU
			now, canSpin = now+n, false
			continue
		}
		i := c.slot()
		if i >= uint32(len(c.window)) {
			if !c.enter(c.icache.Resident(c.pc)) {
				break // a miss starts its refill at its own cycle, in Tick
			}
			i = c.pc / 4 % uint32(len(c.window))
		}
		// The fetch counts only once the cycle is known to be local.
		switch in := c.window[i]; in.Op {
		case isa.OpLw, isa.OpFlw:
			addr := c.regs[in.Rs1] + uint32(in.Imm)
			if addr%4 != 0 || !c.dcache.Hit(addr) {
				break loop
			}
			*c.fetches++
			if !c.execMem(now, in) {
				panic(fmt.Sprintf("cpu %d: load at pc=%#x missed after Hit", c.ID, c.pc))
			}
			c.retire(now, c.pc+4)
			s.loads++
		case isa.OpSw, isa.OpFsw, isa.OpSwap, isa.OpHalt, isa.OpInvalid:
			break loop
		default:
			*c.fetches++
			c.exec(now, in)
		}
		now++
		if c.pc == s.pc && canSpin && c.busyUntil <= now && c.cameBack() {
			s.period, c.spins = now-from, c.spins+1
			break
		}
	}
	c.ahead = now
	if n := c.st.Instructions - retired; n != 0 {
		c.ranAhead += n
		c.bursts++
	}
	return now
}

func (c *CPU) retire(now uint64, nextPC uint32) {
	if c.stallKind != 0 {
		c.flushStall(now)
	}
	c.st.Instructions++
	c.pc = nextPC
	c.outcome = outcomeActive
}

// NextWake implements the sim.Sleeper contract. An active core runs
// every cycle. A halted, cache-stalled or spinning core has no wake of
// its own — it is woken by a message delivery, which its node reports,
// or by anything else that ticks its cluster. An FPU-busy core wakes
// itself when the unit frees.
func (c *CPU) NextWake(now uint64) uint64 {
	if now < c.ahead {
		return c.ahead
	}
	if c.spin.period != 0 {
		return ^uint64(0)
	}
	switch c.outcome {
	case outcomeHalted, outcomeInstStall, outcomeDataStall:
		return ^uint64(0)
	case outcomeFPU:
		return max(c.busyUntil, now)
	default:
		return now
	}
}

// Skip implements the sim.Sleeper contract: the counter bumps of the
// cycles [from, to) not executed in the core's current stall state. The
// stalled retry paths themselves are pure (re-polling a pending miss or
// a full write buffer changes no state), so the counters are the whole
// per-cycle effect — the core's own, the fetch inside the window that
// every retry of a data stall repeats, and what the data cache keeps
// for the access it re-rejects. A spinning core counts all but the last
// whole period of [from, to) — an instruction and a fetch a cycle, its
// loads charged as hits — and executes the rest, which stamps each line
// it loads and moves pc and registers to where the naive core stands.
func (c *CPU) Skip(from, to uint64) {
	if from = max(from, c.ahead); from >= to {
		return // executed ahead of the clock, counters and all
	}
	if s := &c.spin; s.period != 0 {
		c.spun += to - from
		if k := (to - from) / s.period; k > 1 {
			n, loads := (k-1)*s.period, (k-1)*s.loads
			c.st.Instructions, *c.fetches = c.st.Instructions+n, *c.fetches+n
			c.st.Loads += loads
			c.dcache.ChargeHits(loads)
			from += n
		}
		for ; from < to; from++ {
			if c.slot() >= uint32(len(c.window)) {
				if !c.enter(c.icache.Resident(c.pc)) {
					panic(fmt.Sprintf("cpu %d: spin fetch at pc=%#x missed: only the core's own refill replaces an I-line, and a spin has none pending", c.ID, c.pc))
				}
				c.crossed++
			}
			*c.fetches++
			if in := c.window[c.slot()]; !in.Op.IsMemory() {
				c.exec(from, in)
			} else if c.execMem(from, in) {
				c.retire(from, c.pc+4)
			} else {
				panic(fmt.Sprintf("cpu %d: spin load at pc=%#x missed", c.ID, c.pc))
			}
		}
		return
	}
	switch c.outcome {
	case outcomeFPU:
		c.st.FPUBusyCycles += to - from
	case outcomeInstStall:
		c.st.InstStallCycles += to - from
	case outcomeDataStall:
		c.st.DataStallCycles += to - from
		*c.fetches += to - from
		c.dcache.Skip(from, to)
	}
}

// slot is the pc's index in the window, len(window) or more when the pc
// is outside it: a pc below winBase wraps high, one compare for both ends.
func (c *CPU) slot() uint32 { return (c.pc - c.winBase) >> 2 }

// enter makes block, the naturally aligned line Line or Resident
// answered for the pc, the window; a failed lookup (nil) drops it.
func (c *CPU) enter(block []isa.Instr, ok bool) bool {
	c.window, c.winBase = block, c.pc&^(4*uint32(len(block))-1)
	return ok
}

// cameBack reports whether the registers are those the burst started
// from, floats compared by their bits.
func (c *CPU) cameBack() bool {
	same := c.regs == c.spin.regs
	for i, f := range c.fregs {
		same = same && math.Float32bits(f) == math.Float32bits(c.spin.fregs[i])
	}
	return same
}

// noteStall extends or begins the stall run of the given kind.
func (c *CPU) noteStall(now uint64, kind uint8) {
	if c.Obs == nil {
		return
	}
	if c.stallKind != kind {
		c.flushStall(now)
		c.stallKind = kind
		c.stallStart = now
	}
}

// flushStall emits the finished stall run ending at cycle now.
func (c *CPU) flushStall(now uint64) {
	if c.stallKind == 0 {
		return
	}
	name := "inst stall"
	if c.stallKind == 2 {
		name = "data stall"
	}
	c.Obs.Span(obs.CPUPid(c.ID), obs.TidStall, name, c.stallStart, now, c.pc)
	c.stallKind = 0
}

// execMem performs a memory instruction; it reports false while the
// access has not completed (the CPU retries next cycle).
func (c *CPU) execMem(now uint64, in isa.Instr) bool {
	addr := c.regs[in.Rs1] + uint32(in.Imm)
	if addr%4 != 0 {
		panic(fmt.Sprintf("cpu %d: unaligned 4-byte access at %#x (pc=%#x)", c.ID, addr, c.pc))
	}
	switch in.Op {
	case isa.OpLw:
		w, ok := c.dcache.Load(now, addr)
		if !ok {
			return false
		}
		c.setReg(in.Rd, w)
		c.st.Loads++
	case isa.OpFlw:
		w, ok := c.dcache.Load(now, addr)
		if !ok {
			return false
		}
		c.fregs[in.Rd] = math.Float32frombits(w)
		c.st.Loads++
	case isa.OpSw:
		if !c.dcache.Store(now, addr, c.regs[in.Rd]) {
			return false
		}
		c.st.Stores++
	case isa.OpFsw:
		if !c.dcache.Store(now, addr, math.Float32bits(c.fregs[in.Rd])) {
			return false
		}
		c.st.Stores++
	case isa.OpSwap:
		old, ok := c.dcache.Swap(now, addr, c.regs[in.Rd])
		if !ok {
			return false
		}
		c.setReg(in.Rd, old)
		c.st.Swaps++
	default:
		panic(fmt.Sprintf("cpu %d: execMem on %v", c.ID, in.Op))
	}
	return true
}

func (c *CPU) exec(now uint64, in isa.Instr) {
	next := c.pc + 4
	a, b := c.regs[in.Rs1], c.regs[in.Rs2]
	switch in.Op {
	case isa.OpAdd:
		c.setReg(in.Rd, a+b)
	case isa.OpSub:
		c.setReg(in.Rd, a-b)
	case isa.OpOr:
		c.setReg(in.Rd, a|b)
	case isa.OpMul:
		c.setReg(in.Rd, a*b)

	case isa.OpAddi:
		c.setReg(in.Rd, a+uint32(in.Imm))
	case isa.OpAndi:
		c.setReg(in.Rd, a&uint32(uint16(in.Imm)))
	case isa.OpOri:
		c.setReg(in.Rd, a|uint32(uint16(in.Imm)))
	case isa.OpSlli:
		c.setReg(in.Rd, a<<(uint32(in.Imm)&31))
	case isa.OpLui:
		c.setReg(in.Rd, uint32(in.Imm)<<16)

	case isa.OpBeq:
		if a == c.regs[in.Rd] {
			next = c.branchTarget(in)
		}
	case isa.OpBne:
		if a != c.regs[in.Rd] {
			next = c.branchTarget(in)
		}
	case isa.OpBge:
		if int32(a) >= int32(c.regs[in.Rd]) {
			next = c.branchTarget(in)
		}
	case isa.OpJal:
		c.setReg(RegRA, next)
		next = c.pc + 4 + uint32(in.Imm)*4
	case isa.OpJalr:
		target := a + uint32(in.Imm)
		c.setReg(in.Rd, next)
		next = target

	case isa.OpFadd:
		c.fregs[in.Rd] = c.fregs[in.Rs1] + c.fregs[in.Rs2]
		c.fpuBusy(now, fpuAdd)
	case isa.OpFsub:
		c.fregs[in.Rd] = c.fregs[in.Rs1] - c.fregs[in.Rs2]
		c.fpuBusy(now, fpuAdd)
	case isa.OpFmul:
		c.fregs[in.Rd] = c.fregs[in.Rs1] * c.fregs[in.Rs2]
		c.fpuBusy(now, fpuMul)
	case isa.OpFdiv:
		c.fregs[in.Rd] = c.fregs[in.Rs1] / c.fregs[in.Rs2]
		c.fpuBusy(now, fpuDiv)
	case isa.OpCvtWS:
		c.fregs[in.Rd] = float32(int32(a))
		c.fpuBusy(now, fpuAdd)
	case isa.OpCvtSW:
		c.setReg(in.Rd, uint32(int32(c.fregs[in.Rs1])))
		c.fpuBusy(now, fpuAdd)

	case isa.OpHalt:
		c.halted = true
		c.st.HaltedAt = now
		c.Obs.Instant(obs.CPUPid(c.ID), obs.TidStall, "halt", now, c.pc)
	default:
		panic(fmt.Sprintf("cpu %d: exec on %v", c.ID, in.Op))
	}
	c.retire(now, next)
}

func (c *CPU) branchTarget(in isa.Instr) uint32 {
	return c.pc + 4 + uint32(in.Imm)*4
}

// fpuBusy occupies the FPU for lat cycles total (this cycle included).
func (c *CPU) fpuBusy(now, lat uint64) { c.busyUntil = now + lat }
