package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/isa"
)

// rigPort is the data and instruction port of the run-ahead rig: a flat
// word memory behind per-line valid bits. An access to an invalid line
// misses and starts a refill that lands missLat cycles later; like the
// real controllers it changes state only in step — the rig's stand-in
// for the cluster's Tick, where fills land and invalidations strike —
// and never inside Load, Hit, Line or Resident. Every data access is
// logged, and so is every ChargeHits. Like an LRU array, the port keeps
// a clock that each load hit, charged hit and fill advances, and stamps
// a data line with it at its every hit and fill.
type rigPort struct {
	coherence.DataCache // the rest of the interface is never called

	words          map[uint32]uint32
	code           map[uint32][]isa.Instr // decoded blocks by address
	dValid, iValid map[uint32]bool        // by block address
	dPend, iPend   uint32                 // block being refilled, 0 if none
	dAt, iAt       uint64                 // cycle its fill lands
	fetches        uint64
	crossed        uint64 // Resident's hits: a burst ran into another I-line
	clock, charged uint64
	stamp          [rigLines]uint64 // each data line's last touch
	log            []string
}

const (
	rigBlock   = 32
	rigMissLat = 7
)

func (p *rigPort) Line(now uint64, addr uint32) ([]isa.Instr, bool) {
	if p.iPend != 0 {
		return nil, false
	}
	p.fetches++
	blk := addr &^ (rigBlock - 1)
	if p.iValid[blk] {
		return p.code[blk], true
	}
	p.iPend, p.iAt = blk, now+rigMissLat
	return nil, false
}

// Resident is Line's hit, counted in crossed, not in fetches.
func (p *rigPort) Resident(addr uint32) ([]isa.Instr, bool) {
	if blk := addr &^ (rigBlock - 1); p.iPend == 0 && p.iValid[blk] {
		p.crossed++
		return p.code[blk], true
	}
	return nil, false
}

func (p *rigPort) Hit(addr uint32) bool { return p.dPend == 0 && p.dValid[addr&^(rigBlock-1)] }

func (p *rigPort) Load(now uint64, addr uint32, byteEn uint8) (w uint32, ok bool) {
	if p.dPend != 0 {
		return 0, false // the pure retry of a stalled load: not logged, a sleeping core skips it
	}
	if blk := addr &^ (rigBlock - 1); p.dValid[blk] {
		w, ok = p.words[addr&^3], true
		p.touch(blk)
	} else {
		p.dPend, p.dAt = blk, now+rigMissLat
	}
	p.log = append(p.log, fmt.Sprintf("%d load %#x/%x = %#x %t", now, addr, byteEn, w, ok))
	return w, ok
}

func (p *rigPort) Store(now uint64, addr uint32, word uint32, byteEn uint8) bool {
	ok := p.dPend == 0
	if ok {
		old := p.words[addr&^3]
		for i := uint32(0); i < 4; i++ {
			if byteEn>>i&1 != 0 {
				old = old&^(0xff<<(8*i)) | word&(0xff<<(8*i))
			}
		}
		p.words[addr&^3] = old
	}
	p.log = append(p.log, fmt.Sprintf("%d store %#x/%x = %#x %t", now, addr, byteEn, word, ok))
	return ok
}

func (p *rigPort) Swap(now uint64, addr uint32, newWord uint32) (old uint32, ok bool) {
	if ok = p.dPend == 0; ok {
		old, p.words[addr] = p.words[addr], newWord
	}
	p.log = append(p.log, fmt.Sprintf("%d swap %#x = %#x %t", now, addr, old, ok))
	return old, ok
}

func (p *rigPort) Skip(from, to uint64) {}

func (p *rigPort) ChargeHits(n uint64) {
	p.clock, p.charged = p.clock+n, p.charged+n
	p.log = append(p.log, fmt.Sprintf("charge %d", n))
}

// touch stamps the data line blk with the next clock value.
func (p *rigPort) touch(blk uint32) {
	p.clock++
	p.stamp[(blk-rigData)/rigBlock] = p.clock
}

// sameCalls reports whether the run-ahead core's port calls dut are the
// per-cycle core's ref, a "charge n" standing for the next n calls of
// ref, each of which must be a load that hit: a counted hit's cycle and
// word are what the log of ref alone knows.
func sameCalls(ref, dut []string) bool {
	for _, d := range dut {
		var n int
		if _, err := fmt.Sscanf(d, "charge %d", &n); err != nil {
			if len(ref) == 0 || ref[0] != d {
				return false
			}
			ref = ref[1:]
			continue
		}
		for ; n > 0; n, ref = n-1, ref[1:] {
			if len(ref) == 0 || !strings.Contains(ref[0], " load ") || !strings.HasSuffix(ref[0], " true") {
				return false
			}
		}
	}
	return len(ref) == 0
}

// step applies what reaches the port at cycle now: fills that land and
// the invalidation scheduled for it. It reports whether anything did.
func (p *rigPort) step(now uint64, inval uint32) bool {
	changed := false
	if p.dPend != 0 && p.dAt <= now {
		p.touch(p.dPend)
		p.dValid[p.dPend], p.dPend, changed = true, 0, true
	}
	if p.iPend != 0 && p.iAt <= now {
		p.iValid[p.iPend], p.iPend, changed = true, 0, true
	}
	if inval != 0 && p.dValid[inval] {
		p.dValid[inval], changed = false, true
	}
	return changed
}

// nextEvent is the first cycle after now at which step will act; invals
// holds the line invalidated at each cycle, 0 for none.
func (p *rigPort) nextEvent(now uint64, invals []uint32) uint64 {
	next := uint64(math.MaxUint64)
	if p.dPend != 0 {
		next = min(next, p.dAt)
	}
	if p.iPend != 0 {
		next = min(next, p.iAt)
	}
	for at := now + 1; at < uint64(len(invals)) && at < next; at++ {
		if invals[at] != 0 {
			return at
		}
	}
	return next
}

const (
	rigCode  = 0x1000
	rigData  = 0x4000
	rigWords = 96 // program length
	rigLines = 4  // data lines
)

// rigProgram draws a branchy program over every kind of instruction the
// core tells apart: register and immediate ALU ops, branches and jumps
// that stay inside the program, word loads (a few misaligned), byte
// loads, stores, swaps, FPU ops of every latency, the odd illegal word
// and HALT. r8 holds the data base; r1..r7 and f1..f7 are scratch.
func rigProgram(rng *rand.Rand) []uint32 {
	reg := func() uint8 { return uint8(1 + rng.Intn(7)) }
	off := func(align int) int32 { return int32(rng.Intn(rigLines*rigBlock/align) * align) }
	alu := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpXor, isa.OpSll, isa.OpSlt, isa.OpMul, isa.OpDiv, isa.OpRem}
	imm := []isa.Op{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpSlti, isa.OpSrli, isa.OpLui}
	br := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu, isa.OpBgeu}
	fpu := []isa.Op{isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpFeq, isa.OpFlt, isa.OpFle,
		isa.OpCvtWS, isa.OpCvtSW, isa.OpFmov, isa.OpFabs, isa.OpFneg}
	prog := make([]uint32, rigWords)
	for i := range prog {
		var in isa.Instr
		switch r := rng.Intn(100); {
		case r < 22:
			in = isa.Instr{Op: alu[rng.Intn(len(alu))], Rd: reg(), Rs1: reg(), Rs2: reg()}
		case r < 40:
			in = isa.Instr{Op: imm[rng.Intn(len(imm))], Rd: reg(), Rs1: reg(), Imm: int32(rng.Intn(64) - 16)}
		case r < 54: // a target inside the program, either direction
			in = isa.Instr{Op: br[rng.Intn(len(br))], Rd: reg(), Rs1: reg(), Imm: int32(rng.Intn(rigWords) - i - 1)}
		case r < 57:
			in = isa.Instr{Op: isa.OpJal, Imm: int32(rng.Intn(rigWords) - i - 1)}
		case r < 72:
			in = isa.Instr{Op: isa.OpLw, Rd: reg(), Rs1: 8, Imm: off(4)}
			if rng.Intn(150) == 0 {
				in.Imm += 2 // misaligned: panics where it stands
			}
		case r < 76:
			in = isa.Instr{Op: isa.OpFlw, Rd: reg(), Rs1: 8, Imm: off(4)}
		case r < 79:
			in = isa.Instr{Op: []isa.Op{isa.OpLb, isa.OpLbu}[rng.Intn(2)], Rd: reg(), Rs1: 8, Imm: off(1)}
		case r < 84:
			in = isa.Instr{Op: []isa.Op{isa.OpSw, isa.OpFsw}[rng.Intn(2)], Rd: reg(), Rs1: 8, Imm: off(4)}
		case r < 85:
			in = isa.Instr{Op: isa.OpSb, Rd: reg(), Rs1: 8, Imm: off(1)}
		case r < 86:
			in = isa.Instr{Op: isa.OpSwap, Rd: reg(), Rs1: 8, Imm: off(4)}
		case r < 98:
			in = isa.Instr{Op: fpu[rng.Intn(len(fpu))], Rd: reg(), Rs1: reg(), Rs2: reg()}
		case r < 99:
			in = isa.Instr{Op: isa.OpNop}
		default:
			if rng.Intn(8) == 0 {
				prog[i] = 0 // decodes to OpInvalid
				continue
			}
			in = isa.Instr{Op: isa.OpNop}
		}
		prog[i] = mustEncode(in)
	}
	prog[rigWords-1] = mustEncode(isa.Instr{Op: isa.OpHalt})
	return prog
}

// rigCore builds a core on a fresh port holding prog; data lines start
// valid, code lines invalid (the first fetch of each misses).
func rigCore(prog []uint32, rng *rand.Rand) (*CPU, *rigPort) {
	p := &rigPort{words: map[uint32]uint32{}, code: map[uint32][]isa.Instr{},
		dValid: map[uint32]bool{}, iValid: map[uint32]bool{}}
	for i, w := range prog {
		blk := (rigCode + uint32(4*i)) &^ (rigBlock - 1)
		p.code[blk] = append(p.code[blk], isa.Decode(w))
	}
	for a := uint32(rigData); a < rigData+rigLines*rigBlock; a += 4 {
		p.words[a] = rng.Uint32()
		p.dValid[a&^(rigBlock-1)] = true
	}
	c := New(0, p, &p.fetches, p)
	c.Reset(rigCode, 0, 1)
	c.regs[8] = rigData
	for r := 1; r < 8; r++ {
		c.regs[r] = uint32(rng.Intn(9)) // small: branches go both ways
		c.fregs[r] = float32(rng.Intn(9)) - 3
	}
	return c, p
}

// rigState is everything of a core and its port that a cycle can change.
type rigState struct {
	regs       [32]uint32
	fregs      [32]uint32
	pc         uint32
	busyUntil  uint64
	halted     bool
	outcome    uint8
	st         Stats
	fetches    uint64
	clock      uint64
	stamp      [rigLines]uint64
	dPend, iPd uint32
}

func snapshot(c *CPU, p *rigPort) rigState {
	s := rigState{regs: c.regs, pc: c.pc, busyUntil: c.busyUntil, halted: c.halted, outcome: c.outcome,
		st: c.st, fetches: p.fetches, clock: p.clock, stamp: p.stamp, dPend: p.dPend, iPd: p.iPend}
	for i, f := range c.fregs {
		s.fregs[i] = math.Float32bits(f) // NaN compares by bits
	}
	return s
}

// tickOrPanic runs one Tick and returns the panic message, if any.
func tickOrPanic(c *CPU, now uint64) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	c.Tick(now)
	return ""
}

// TestRunAheadMatchesPerCycleTicks is the differential rig: a core
// ticked once per cycle against a core that, after each Tick, is offered
// a random horizon — nothing, one cycle, the middle of an FPU wait, up
// to the next cycle anything reaches its port — and then, as the engine
// would, either ticked again at the cycle RunAhead returned or slept to
// its own NextWake and charged by Skip. At every such boundary both
// cores must agree on registers, pc, counters, fetches, the port's clock
// and line stamps, and the exact Load/Store/Swap calls (cycle, address,
// result) they made, panics included — except that the hits of a slept
// spin's counted periods are one ChargeHits, which must stand for as
// many load hits of the per-cycle core.
func TestRunAheadMatchesPerCycleTicks(t *testing.T) {
	const seeds, maxCycles = 300, 1500
	var ahead, bursts, slept, panics, charged, crossed uint64
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := rigProgram(rng)
		init := rand.New(rand.NewSource(seed))
		ref, rp := rigCore(prog, init)
		init = rand.New(rand.NewSource(seed))
		dut, dp := rigCore(prog, init)
		// Invalidations strike random data lines at random cycles.
		invals := make([]uint32, maxCycles+1)
		for i := 0; i < 40; i++ {
			invals[1+rng.Intn(maxCycles)] = rigData + uint32(rng.Intn(rigLines))*rigBlock
		}
		rseen, dseen := 0, 0 // data-port calls already compared
		for now := uint64(0); now < maxCycles && !dut.halted; {
			rp.step(now, invals[now])
			dp.step(now, invals[now])
			rmsg, dmsg := tickOrPanic(ref, now), tickOrPanic(dut, now)
			if rmsg != dmsg {
				t.Fatalf("seed %d cycle %d: per-cycle core panicked %q, run-ahead core %q", seed, now, rmsg, dmsg)
			}
			if rmsg != "" {
				panics++
				break
			}
			// Nothing reaches the port before its next event; the offer
			// is anywhere from no cycle at all up to there.
			event := dp.nextEvent(now, invals)
			horizon := min(now+1+uint64(rng.Intn(24)), event, maxCycles)
			next := dut.RunAhead(now+1, horizon)
			if next < now+1 || next > max(horizon, now+1) {
				t.Fatalf("seed %d cycle %d: RunAhead(%d, %d) returned %d", seed, now, now+1, horizon, next)
			}
			if w := dut.NextWake(now + 1); next > now+1 && w != next {
				t.Fatalf("seed %d cycle %d: ahead to %d but NextWake(%d) = %d", seed, now, next, now+1, w)
			}
			// A core whose own wake lies further ahead may sleep to it (or
			// to the next event, whichever is first), as under the engine.
			if w := min(dut.NextWake(next), event, maxCycles); w > next && rng.Intn(2) == 0 {
				next = w
				slept++
			}
			dut.Skip(now+1, next) // the engine settles before the next Tick
			for cyc := now + 1; cyc < next; cyc++ {
				if rp.step(cyc, invals[cyc]) {
					t.Fatalf("seed %d: the rig let cycle %d, inside a horizon, change the port", seed, cyc)
				}
				if msg := tickOrPanic(ref, cyc); msg != "" {
					t.Fatalf("seed %d cycle %d: RunAhead ran past a cycle that panics: %s", seed, cyc, msg)
				}
			}
			if a, b := snapshot(ref, rp), snapshot(dut, dp); a != b || !sameCalls(rp.log[rseen:], dp.log[dseen:]) {
				t.Fatalf("seed %d: cores differ at cycle %d (ticked at %d, offered %d):\nper-cycle %+v %q\nrun-ahead %+v %q",
					seed, next, now, horizon, a, rp.log[rseen:], b, dp.log[dseen:])
			}
			rseen, dseen = len(rp.log), len(dp.log)
			now = next
		}
		a, b := dut.Ahead()
		ahead, bursts, charged, crossed = ahead+a, bursts+b, charged+dp.charged, crossed+dp.crossed
	}
	t.Logf("%d instructions ahead of the clock in %d bursts, %d I-lines crossed, %d sleeps, %d hits charged, %d runs ended in a panic",
		ahead, bursts, crossed, slept, charged, panics)
	if ahead == 0 || bursts == 0 || crossed == 0 || slept == 0 || charged == 0 || panics == 0 {
		t.Fatal("the rig never ran ahead, never crossed a line, never slept, never charged a hit or never reached a panic: vacuous")
	}
}

// aheadCore is a core on an always-valid rigPort holding prog.
func aheadCore(prog ...isa.Instr) (*CPU, *rigPort) {
	words := make([]uint32, len(prog))
	for i, in := range prog {
		words[i] = mustEncode(in)
	}
	c, p := rigCore(words, rand.New(rand.NewSource(1)))
	for i := range words {
		p.iValid[(rigCode+uint32(4*i))&^(rigBlock-1)] = true
	}
	return c, p
}

// TestRunAheadStopsAtHalt: HALT retires like any instruction, so the
// outcome it leaves cannot tell a halted core from a running one. A
// burst runs neither into a HALT nor on after one.
func TestRunAheadStopsAtHalt(t *testing.T) {
	c, _ := aheadCore(isa.Instr{Op: isa.OpAddi, Rd: 1, Imm: 1}, isa.Instr{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1},
		isa.Instr{Op: isa.OpHalt}, isa.Instr{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 40})
	c.Tick(0)
	if next := c.RunAhead(1, 100); next != 2 || c.halted || c.st.Instructions != 2 {
		t.Fatalf("burst up to HALT: next=%d halted=%t after %d instructions, want 2, false, 2", next, c.halted, c.st.Instructions)
	}
	c.Tick(2)
	if !c.halted || c.st.HaltedAt != 2 {
		t.Fatalf("HALT at its own cycle: halted=%t at %d", c.halted, c.st.HaltedAt)
	}
	if next := c.RunAhead(3, 100); next != 3 || c.st.Instructions != 3 || c.regs[1] != 2 {
		t.Fatalf("burst after HALT: next=%d, %d instructions, r1=%d; want 3, 3, 2", next, c.st.Instructions, c.regs[1])
	}
}

// TestRunAheadCountsTheFetchOnceLocal: a load the burst refuses has not
// been fetched yet — its Tick will count it.
func TestRunAheadCountsTheFetchOnceLocal(t *testing.T) {
	c, p := aheadCore(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop},
		isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 8}, isa.Instr{Op: isa.OpHalt})
	p.dValid[rigData] = false
	c.Tick(0)
	if next := c.RunAhead(1, 100); next != 2 || p.fetches != 2 || len(p.log) != 0 {
		t.Fatalf("refused load: next=%d, %d fetches, port calls %v; want 2, 2, none", next, p.fetches, p.log)
	}
	c.Tick(2)
	if p.fetches != 3 || c.st.DataStallCycles != 1 {
		t.Fatalf("the load's own cycle: %d fetches, %d stall cycles", p.fetches, c.st.DataStallCycles)
	}
}

// TestTickBehindRunAheadPanics: a lookahead violation is loud. The
// scheduled engine never ticks a cluster before its core's ahead; if a
// bound is ever wrong, the first symptom is this panic, not a wrong
// number. Reset clears it.
func TestTickBehindRunAheadPanics(t *testing.T) {
	c, _ := aheadCore(isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpNop}, isa.Instr{Op: isa.OpHalt})
	c.ID = 5
	c.Tick(0)
	if next := c.RunAhead(1, 3); next != 3 {
		t.Fatalf("RunAhead(1, 3) = %d", next)
	}
	msg := tickOrPanic(c, 2)
	for _, want := range []string{"cpu 5", "cycle 2", "ahead to 3", fmt.Sprintf("pc=%#x", rigCode+12)} {
		if !strings.Contains(msg, want) {
			t.Errorf("Tick(2) behind ahead=3: panic %q lacks %q", msg, want)
		}
	}
	c.Reset(rigCode, 0, 1)
	if msg := tickOrPanic(c, 0); msg != "" || c.NextWake(1) != 1 {
		t.Fatalf("after Reset: Tick(0) panicked %q, NextWake(1) = %d", msg, c.NextWake(1))
	}
}

// TestSpinSleepStandsWhereTheNaiveCoreStands: a lock spin, run in
// bursts, proves itself once a burst comes back to the state it started
// from. The core then sleeps with no wake of its own; Skip to any cycle of
// the loop leaves registers, pc, counters, fetches, the data port's calls
// (a ChargeHits standing for as many load hits) and its line stamps as a
// core ticked every cycle has them, and the Tick at which the lock word
// has changed runs on from there. One loop changes a float and an
// integer register and changes them back; one flips the sign of a zero,
// so it only comes back after two turns, which a float compare would not
// see; one loads two lines at two phases of its period.
func TestSpinSleepStandsWhereTheNaiveCoreStands(t *testing.T) {
	nop := isa.Instr{Op: isa.OpNop}
	progs := [][]isa.Instr{{
		{Op: isa.OpLw, Rd: 1, Rs1: 8},            // spin: lw r1, 0(r8)
		{Op: isa.OpFneg, Rd: 1, Rs1: 1},          // f1 = -f1
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1},  // r3++
		{Op: isa.OpFneg, Rd: 1, Rs1: 1},          // f1 = -f1
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: -1}, // r3--
		{Op: isa.OpBne, Rs1: 1, Imm: -6},         // bne r1, r0, spin
		{Op: isa.OpHalt}, nop,                    // one whole line
	}, {
		{Op: isa.OpLw, Rd: 1, Rs1: 8},    // spin: lw r1, 0(r8)
		{Op: isa.OpFneg, Rd: 3, Rs1: 3},  // f3 = -f3, from +0
		{Op: isa.OpBne, Rs1: 1, Imm: -3}, // bne r1, r0, spin
		{Op: isa.OpHalt}, nop, nop, nop, nop,
	}, {
		{Op: isa.OpLw, Rd: 1, Rs1: 8},            // spin: lw r1, 0(r8)
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1},  // r3++
		{Op: isa.OpLw, Rd: 4, Rs1: 8, Imm: 40},   // lw r4, 40(r8): the next line
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: -1}, // r3--
		{Op: isa.OpBne, Rs1: 1, Imm: -5},         // bne r1, r0, spin
		{Op: isa.OpHalt}, nop, nop,
	}}
	for p, prog := range progs {
		for _, wake := range []uint64{40, 41, 42, 43, 44, 45, 97} {
			ref, rp := aheadCore(prog...)
			dut, dp := aheadCore(prog...)
			rp.words[rigData], dp.words[rigData] = 7, 7
			ref.fregs[3], dut.fregs[3] = 0, 0
			slept := false
			for now := uint64(0); !dut.halted; {
				if now == wake { // the lock is released: the next load sees it
					rp.words[rigData], dp.words[rigData] = 0, 0
				}
				ref.Tick(now)
				dut.Tick(now)
				next := dut.RunAhead(now+1, now+8)
				if dut.spin.period != 0 {
					if w := dut.NextWake(next); w != ^uint64(0) {
						t.Fatalf("loop %d, wake %d: spinning at %d, NextWake = %d", p, wake, next, w)
					}
					if next < wake {
						next, slept = wake, true
					}
				}
				dut.Skip(now+1, next)
				for c := now + 1; c < next; c++ {
					ref.Tick(c)
				}
				if a, b := snapshot(ref, rp), snapshot(dut, dp); a != b || !sameCalls(rp.log, dp.log) {
					t.Fatalf("loop %d, wake %d: cores differ at cycle %d:\nper-cycle %+v\nspinning  %+v", p, wake, next, a, b)
				}
				now = next
			}
			if sleeps, cycles := dut.Spun(); !slept || sleeps == 0 || cycles == 0 {
				t.Fatalf("loop %d, wake %d: the core never slept in the spin (%d sleeps, %d cycles)", p, wake, sleeps, cycles)
			}
		}
	}
}
