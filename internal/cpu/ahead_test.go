package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

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
// a data line with it at its every hit and fill. With iWays 2 its I-side
// does the same on a clock of its own at each Line or Resident hit and
// fill, as a 2-way cacheArray's lookup does; iWays 1 keeps no order, as
// a direct-mapped array keeps none. An invalidation is a remote store:
// it changes the line's words.
type rigPort struct {
	words          map[uint32]uint32
	code           map[uint32][]isa.Instr // decoded blocks by address
	dValid, iValid map[uint32]bool        // by block address
	dPend, iPend   uint32                 // block being refilled, 0 if none
	dAt, iAt       uint64                 // cycle its fill lands
	fetches        uint64
	crossed        uint64 // Resident's hits: a burst ran into another I-line
	clock, charged uint64
	stamp          [rigLines]uint64 // each data line's last touch
	iWays          int
	iClock         uint64
	iStamp         map[uint32]uint64 // each I-line's last touch, by block address
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
		p.iTouch(blk)
		return p.code[blk], true
	}
	p.iPend, p.iAt = blk, now+rigMissLat
	return nil, false
}

// Resident is Line's hit, counted in crossed, not in fetches.
func (p *rigPort) Resident(addr uint32) ([]isa.Instr, bool) {
	if blk := addr &^ (rigBlock - 1); p.iPend == 0 && p.iValid[blk] {
		p.crossed++
		p.iTouch(blk)
		return p.code[blk], true
	}
	return nil, false
}

func (p *rigPort) Hit(addr uint32) bool { return p.dPend == 0 && p.dValid[addr&^(rigBlock-1)] }

func (p *rigPort) Load(now uint64, addr uint32) (w uint32, ok bool) {
	if p.dPend != 0 {
		return 0, false // the pure retry of a stalled load: not logged, a sleeping core skips it
	}
	if blk := addr &^ (rigBlock - 1); p.dValid[blk] {
		w, ok = p.words[addr&^3], true
		p.touch(blk)
	} else {
		p.dPend, p.dAt = blk, now+rigMissLat
	}
	p.log = append(p.log, fmt.Sprintf("%d load %#x = %#x %t", now, addr, w, ok))
	return w, ok
}

func (p *rigPort) Store(now uint64, addr uint32, word uint32) bool {
	ok := p.dPend == 0
	if ok {
		p.words[addr] = word
	}
	p.log = append(p.log, fmt.Sprintf("%d store %#x = %#x %t", now, addr, word, ok))
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

// iTouch stamps the I-line blk with the next I-clock value, if the
// I-side keeps an order.
func (p *rigPort) iTouch(blk uint32) {
	if p.iWays > 1 {
		p.iClock++
		p.iStamp[blk] = p.iClock
	}
}

// iOrder lists the stamped I-lines from least to most recently used:
// the order in which a set-associative array's victim picks them.
func (p *rigPort) iOrder() []uint32 {
	var blks []uint32
	for blk := range p.iStamp { //lint:allow maprange — sorted below by stamps, which differ
		blks = append(blks, blk)
	}
	sort.Slice(blks, func(i, j int) bool { return p.iStamp[blks[i]] < p.iStamp[blks[j]] })
	return blks
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
		p.iTouch(p.iPend)
		p.iValid[p.iPend], p.iPend, changed = true, 0, true
	}
	if inval != 0 && p.dValid[inval] {
		p.dValid[inval], changed = false, true
		for a := inval; a < inval+rigBlock; a += 4 {
			p.words[a]++ // a spin on the line sees its word change
		}
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

// nop is addi r0, r0, 0: SR32 has no no-op of its own.
var nop = isa.Instr{Op: isa.OpAddi}

const (
	rigCode  = 0x1000
	rigData  = 0x4000
	rigWords = 96 // program length
	rigLines = 4  // data lines
)

// rigProgram draws a branchy program over every kind of instruction the
// core tells apart: register and immediate ALU ops, branches and jumps
// that stay inside the program, word loads (a few misaligned), stores,
// swaps, FPU ops of every latency, the odd illegal word
// and HALT. r8 holds the data base; r1..r7 and f1..f7 are scratch. One
// program in three spins across a line boundary on a word until an
// invalidation changes it.
func rigProgram(rng *rand.Rand) []uint32 {
	reg := func() uint8 { return uint8(1 + rng.Intn(7)) }
	off := func(align int) int32 { return int32(rng.Intn(rigLines*rigBlock/align) * align) }
	alu := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpOr, isa.OpMul}
	imm := []isa.Op{isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpSlli, isa.OpLui}
	br := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBge}
	fpu := []isa.Op{isa.OpFadd, isa.OpFsub, isa.OpFmul, isa.OpFdiv, isa.OpCvtWS, isa.OpCvtSW}
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
		case r < 84:
			in = isa.Instr{Op: []isa.Op{isa.OpSw, isa.OpFsw}[rng.Intn(2)], Rd: reg(), Rs1: 8, Imm: off(4)}
		case r < 86:
			in = isa.Instr{Op: isa.OpSwap, Rd: reg(), Rs1: 8, Imm: off(4)}
		case r < 98:
			in = isa.Instr{Op: fpu[rng.Intn(len(fpu))], Rd: reg(), Rs1: reg(), Rs2: reg()}
		case r < 99:
			in = nop
		default:
			if rng.Intn(8) == 0 {
				prog[i] = 0 // decodes to OpInvalid
				continue
			}
			in = nop
		}
		prog[i] = mustEncode(in)
	}
	if rng.Intn(3) == 0 { // lw r5, x; spin: lw r4, x; beq r4, r5, spin
		b, x := rigBlock/4*(1+rng.Intn(rigWords*4/rigBlock-1)), off(4)
		prog[b-2] = mustEncode(isa.Instr{Op: isa.OpLw, Rd: 5, Rs1: 8, Imm: x})
		prog[b-1] = mustEncode(isa.Instr{Op: isa.OpLw, Rd: 4, Rs1: 8, Imm: x})
		prog[b] = mustEncode(isa.Instr{Op: isa.OpBeq, Rd: 5, Rs1: 4, Imm: -2})
	}
	prog[rigWords-1] = mustEncode(isa.Instr{Op: isa.OpHalt})
	return prog
}

// rigCore builds a core on a fresh port holding prog; data lines start
// valid, code lines invalid (the first fetch of each misses).
func rigCore(prog []uint32, rng *rand.Rand) (*CPU, *rigPort) {
	p := &rigPort{words: map[uint32]uint32{}, code: map[uint32][]isa.Instr{},
		dValid: map[uint32]bool{}, iValid: map[uint32]bool{}, iStamp: map[uint32]uint64{}}
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
	var ahead, bursts, slept, panics, charged, crossed, spins, spinSeeds, spinLines uint64
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
		if s, _, l := dut.Spun(); s > 0 {
			spins, spinSeeds, spinLines = spins+s, spinSeeds+1, spinLines+l
		}
	}
	t.Logf("%d instructions ahead of the clock in %d bursts, %d I-lines crossed, %d sleeps (%d in a spin, on %d of %d seeds, whose tails entered %d I-lines), %d hits charged, %d runs ended in a panic",
		ahead, bursts, crossed, slept, spins, spinSeeds, seeds, spinLines, charged, panics)
	if ahead == 0 || bursts == 0 || crossed == 0 || slept == 0 || spins == 0 || spinLines == 0 || charged == 0 || panics == 0 {
		t.Fatal("the rig never ran ahead, never crossed a line, never slept in a spin, never in one across a line, never charged a hit or never reached a panic: vacuous")
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
	c, p := aheadCore(nop, nop, isa.Instr{Op: isa.OpLw, Rd: 1, Rs1: 8}, isa.Instr{Op: isa.OpHalt})
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
	c, _ := aheadCore(nop, nop, nop, isa.Instr{Op: isa.OpHalt})
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
// integer register and changes them back; one loads -0 over a +0, which
// a float compare would take for the state it started from; one loads a
// NaN, which a float compare would never see come back; one loads two
// lines at two phases of its period.
func TestSpinSleepStandsWhereTheNaiveCoreStands(t *testing.T) {
	progs := [][]isa.Instr{{
		{Op: isa.OpLw, Rd: 1, Rs1: 8},            // spin: lw r1, 0(r8)
		{Op: isa.OpFlw, Rd: 1, Rs1: 8, Imm: 4},   // f1 = 2.5
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1},  // r3++
		{Op: isa.OpFlw, Rd: 1, Rs1: 8, Imm: 8},   // f1 = +0, as it started
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: -1}, // r3--
		{Op: isa.OpBne, Rs1: 1, Imm: -6},         // bne r1, r0, spin
		{Op: isa.OpHalt}, nop,                    // one whole line
	}, {
		{Op: isa.OpLw, Rd: 1, Rs1: 8},           // spin: lw r1, 0(r8)
		{Op: isa.OpFlw, Rd: 3, Rs1: 8, Imm: 12}, // f3 = -0, from +0
		{Op: isa.OpBne, Rs1: 1, Imm: -3},        // bne r1, r0, spin
		{Op: isa.OpHalt}, nop, nop, nop, nop,
	}, {
		{Op: isa.OpLw, Rd: 1, Rs1: 8},           // spin: lw r1, 0(r8)
		{Op: isa.OpFlw, Rd: 3, Rs1: 8, Imm: 16}, // f3 = NaN
		{Op: isa.OpBne, Rs1: 1, Imm: -3},        // bne r1, r0, spin
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
			for _, port := range []*rigPort{rp, dp} {
				w := port.words
				w[rigData], w[rigData+4], w[rigData+8] = 7, math.Float32bits(2.5), 0
				w[rigData+12], w[rigData+16] = 0x80000000, 0x7fc00000 // -0, NaN
			}
			ref.fregs[1], dut.fregs[1] = 0, 0
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
			if sleeps, cycles, _ := dut.Spun(); !slept || sleeps == 0 || cycles == 0 {
				t.Fatalf("loop %d, wake %d: the core never slept in the spin (%d sleeps, %d cycles)", p, wake, sleeps, cycles)
			}
		}
	}
}

// TestSpinAcrossILinesSleeps: a spin whose loop straddles a 32-byte
// boundary is proved by the one burst that starts in it, at every phase
// of its period P. Skip over spans of 1, P-1, P and k·P+r cycles then
// leaves pc, registers, counters, the data port's calls and stamps and
// the I-side's victim order as a core ticked every cycle leaves them,
// direct-mapped and 2-way, and the Tick after the lock is released runs
// on from there to HALT. The counted periods stamp no I-line, so the
// I-clock falls behind the naive one; the executed tail's last whole
// period enters every line the loop enters, so each such stamp is the
// naive one less one shift, above every stamp the sleep left alone —
// the order within a set, all that victim reads, is the naive one.
func TestSpinAcrossILinesSleeps(t *testing.T) {
	const head, period = 6, 4 // the spin's first word; its cycles
	prog := []isa.Instr{nop, nop, nop, nop, nop, nop,
		{Op: isa.OpLw, Rd: 1, Rs1: 8},            // spin: lw r1, 0(r8)
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: 1},  // r3++, the line's last word
		{Op: isa.OpAddi, Rd: 3, Rs1: 3, Imm: -1}, // r3--, the next line's first
		{Op: isa.OpBne, Rs1: 1, Imm: -4},         // bne r1, r0, spin
		{Op: isa.OpHalt}, nop, nop, nop, nop, nop}
	for _, ways := range []int{1, 2} {
		for phase := uint64(0); phase < period; phase++ {
			ref, rp := aheadCore(prog...)
			dut, dp := aheadCore(prog...)
			rp.iWays, dp.iWays = ways, ways
			rp.words[rigData], dp.words[rigData] = 7, 7
			name := fmt.Sprintf("ways %d, phase %d", ways, phase)
			same := func(at uint64) {
				t.Helper()
				if a, b := snapshot(ref, rp), snapshot(dut, dp); a != b || !sameCalls(rp.log, dp.log) {
					t.Fatalf("%s: cores differ at cycle %d:\nper-cycle %+v\nspinning  %+v", name, at, a, b)
				}
				if a, b := rp.iOrder(), dp.iOrder(); fmt.Sprint(a) != fmt.Sprint(b) {
					t.Fatalf("%s: I-lines by age at cycle %d: per-cycle %#x, spinning %#x", name, at, a, b)
				}
			}
			now := uint64(0)
			for ; now <= head+phase; now++ {
				ref.Tick(now)
				dut.Tick(now)
			}
			if next := dut.RunAhead(now, now+1000); next != now+period || dut.spin.period != period {
				t.Fatalf("%s: burst from %d returned %d with period %d: want a spin of %d proved", name, now, next, dut.spin.period, period)
			}
			for ; now < dut.ahead; now++ {
				ref.Tick(now)
			}
			same(now)
			for _, span := range []uint64{1, period - 1, period, 3*period + 2, 1, 100*period + 1} {
				dut.Skip(now, now+span)
				for end := now + span; now < end; now++ {
					ref.Tick(now)
				}
				same(now)
			}
			rp.words[rigData], dp.words[rigData] = 0, 0 // the lock is released
			for ; !dut.halted; now++ {
				ref.Tick(now)
				dut.Tick(now)
			}
			same(now)
			if sleeps, cycles, lines := dut.Spun(); sleeps != 1 || cycles == 0 || lines == 0 {
				t.Fatalf("%s: %d spin sleeps of %d cycles whose tails entered %d I-lines; want one, crossing", name, sleeps, cycles, lines)
			}
		}
	}
}
