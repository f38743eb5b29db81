package coherence_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/cpu"
	"repro/internal/isa"
)

const (
	diffCode = coherence.FetchMachineBase
	diffData = diffCode + 0x4000
	lineLen  = 8 // instructions per 32-byte line
)

// branchyProgram returns a terminating random program of the given
// number of I-lines: a prologue, a body of ALU, FPU and memory
// instructions mixed with forward branches and jumps, and a counted
// back edge over the whole body. Branch targets favour the last and
// the first word of a line, so the core enters lines at their far end
// and falls through from one into the next.
func branchyProgram(rng *rand.Rand, lines, trips int) []isa.Instr {
	n := lines * lineLen
	prog := make([]isa.Instr, n)
	prologue := []isa.Instr{
		{Op: isa.OpLui, Rd: 10, Imm: diffData >> 16},
		{Op: isa.OpOri, Rd: 10, Rs1: 10, Imm: diffData & 0xffff},
		{Op: isa.OpAddi, Rd: 11, Imm: int32(trips)},
		{Op: isa.OpAddi, Rd: 12, Imm: int32(rng.Intn(1000))},
		{Op: isa.OpCvtWS, Rd: 2, Rs1: 12},
	}
	body := copy(prog, prologue)
	tail := n - 3
	prog[tail] = isa.Instr{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: -1}
	prog[tail+1] = isa.Instr{Op: isa.OpBne, Rs1: 11, Rd: 0, Imm: int32(body - (tail + 2))}
	prog[tail+2] = isa.Instr{Op: isa.OpHalt}

	target := func(from int) int32 { // a word in (from, tail], as a branch offset
		t := from + 1 + rng.Intn(tail-from)
		switch line := t / lineLen * lineLen; rng.Intn(3) {
		case 0:
			t = line + lineLen - 1
		case 1:
			t = line + lineLen
		}
		if t <= from || t > tail {
			t = tail
		}
		return int32(t - (from + 1))
	}
	off := func() int32 { return int32(4 * rng.Intn(64)) }
	for i := body; i < tail; i++ {
		switch r := rng.Intn(20); {
		case r < 5:
			prog[i] = isa.Instr{Op: isa.OpAddi, Rd: 12, Rs1: 12, Imm: int32(rng.Intn(64) - 20)}
		case r < 7:
			prog[i] = isa.Instr{Op: isa.OpXor, Rd: 13, Rs1: 12, Rs2: 11}
		case r < 9:
			prog[i] = isa.Instr{Op: isa.OpLw, Rd: 14, Rs1: 10, Imm: off()}
		case r < 11:
			prog[i] = isa.Instr{Op: isa.OpSw, Rd: 12, Rs1: 10, Imm: off()}
		case r < 12:
			prog[i] = isa.Instr{Op: isa.OpSb, Rd: 13, Rs1: 10, Imm: int32(rng.Intn(256))}
		case r < 13:
			prog[i] = isa.Instr{Op: isa.OpSwap, Rd: 14, Rs1: 10, Imm: off()}
		case r < 14:
			prog[i] = isa.Instr{Op: []isa.Op{isa.OpFadd, isa.OpFmul, isa.OpFdiv}[rng.Intn(3)], Rd: 1, Rs1: 1, Rs2: 2}
		case r < 15:
			prog[i] = isa.Instr{Op: isa.OpFlw, Rd: 1, Rs1: 10, Imm: off()}
		case r < 18:
			op := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBgeu}[rng.Intn(4)]
			prog[i] = isa.Instr{Op: op, Rs1: 12, Rd: 13, Imm: target(i)}
		case r < 19:
			prog[i] = isa.Instr{Op: isa.OpJal, Imm: target(i)}
		default:
			prog[i] = isa.Instr{Op: isa.OpNop}
		}
	}
	return prog
}

// fetchRig is one core on one FetchMachine.
type fetchRig struct {
	m *coherence.FetchMachine
	c *cpu.CPU
}

func newFetchRig(prog []isa.Instr, icacheLines, ways int, ref bool) *fetchRig {
	m := coherence.NewFetchMachine(icacheLines, ways, ref)
	for i, in := range prog {
		m.Space.WriteWord(diffCode+uint32(4*i), mustEncode(in))
	}
	port, fetches := m.Port()
	c := cpu.New(0, port, fetches, m.DCaches[0])
	c.Reset(diffCode, 0, 1)
	return &fetchRig{m, c}
}

// state is everything of a rig the differential run compares, cycle by
// cycle: where the core is and what its tick was (the counters say: a
// tick bumps exactly one of them), what the instruction side counted,
// and what reached the interconnect and the bank.
func (r *fetchRig) state(now uint64) string {
	fetches, misses := r.m.IStats()
	return fmt.Sprintf("pc=%#x halted=%t wake=%d cpu=%+v fetches=%d misses=%d net=%+v ifetches=%d",
		r.c.PC(), r.c.Halted(), r.c.NextWake(now), *r.c.Stats(), fetches, misses,
		r.m.Net.Stats(), r.m.Banks[0].Stats().IFetches)
}

// horizon is the cycle a cluster would let the core run ahead to after
// cycle now: nothing reaches the caches before the node's, caches' and
// veto's next wakes, nor before a bank's answer crosses the network.
func (r *fetchRig) horizon(now uint64) uint64 {
	n := r.m.Nodes[0]
	return min(now+r.m.Net.MinTransit(), n.NextWake(now+1), n.RecvVeto(now+1),
		r.m.DCaches[0].NextWake(now+1), r.m.ICaches[0].NextWake(now+1))
}

// TestFetchByLineMatchesPerFetchReference is the differential rig for
// the core's line window: the real ICache and the per-fetch reference
// (icache_ref_test.go) run the same random program on identical
// machines in lock-step and must agree on pc, tick outcome, Fetches,
// Misses and refill traffic — over 2- and 4-line I-caches at every
// associativity they admit, so lines conflict, alternate in one set and
// are evicted under the window. The reference is ticked every cycle;
// the real core is too, or, in the run-ahead half, offered a random
// horizon after each Tick as its cluster would (RunAhead, whose bursts
// take the next line through Resident), and compared at each cycle it
// is ticked.
func TestFetchByLineMatchesPerFetchReference(t *testing.T) {
	geometries := []struct{ lines, ways int }{{2, 1}, {2, 2}, {4, 1}, {4, 2}, {4, 4}}
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	var total cpu.Stats
	var misses, ahead uint64
	for _, g := range geometries {
		for seed := 0; seed < 2*seeds; seed++ {
			runAhead := seed >= seeds
			rng := rand.New(rand.NewSource(int64(seed % seeds)))
			// From programs that fit the cache to ones three times its size.
			prog := branchyProgram(rng, 2+rng.Intn(3*g.lines), 2+rng.Intn(6))
			opt, ref := newFetchRig(prog, g.lines, g.ways, false), newFetchRig(prog, g.lines, g.ways, true)
			name := fmt.Sprintf("lines=%d ways=%d seed=%d run-ahead=%t", g.lines, g.ways, seed%seeds, runAhead)
			for now, next := uint64(0), uint64(0); !(opt.c.Halted() && ref.c.Halted()); now = next {
				if now > 200_000 {
					t.Fatalf("%s: not halted after %d cycles (pc=%#x)", name, now, opt.c.PC())
				}
				opt.c.Tick(now)
				opt.m.Step(now)
				next = now + 1
				if h := min(next+uint64(rng.Intn(24)), opt.horizon(now)); runAhead && h > next && opt.c.NextWake(next) == next {
					next = opt.c.RunAhead(next, h)
				}
				for cyc := now; cyc < next; cyc++ {
					if cyc > now {
						opt.m.Step(cyc)
					}
					ref.c.Tick(cyc)
					ref.m.Step(cyc)
				}
				if a, b := opt.state(next), ref.state(next); a != b {
					t.Fatalf("%s: cycle %d:\n  line window: %s\n  per fetch:   %s", name, next, a, b)
				}
				// What the per-fetch cache counted, stated without either
				// implementation: every tick that retires or data-stalls
				// fetched, and so did the one that started a refill.
				st := opt.c.Stats()
				if f, m := opt.m.IStats(); f != st.Instructions+st.DataStallCycles+m {
					t.Fatalf("%s: cycle %d: %d fetches for %d instructions, %d data stalls, %d misses",
						name, next, f, st.Instructions, st.DataStallCycles, m)
				}
			}
			for r := 0; r < 32; r++ {
				if opt.c.Reg(r) != ref.c.Reg(r) || opt.c.FReg(r) != ref.c.FReg(r) {
					t.Fatalf("%s: register %d differs at halt", name, r)
				}
			}
			_, m := opt.m.IStats()
			a, _ := opt.c.Ahead()
			misses, ahead = misses+m, ahead+a
			total.Instructions += opt.c.Stats().Instructions
			total.DataStallCycles += opt.c.Stats().DataStallCycles
			total.FPUBusyCycles += opt.c.Stats().FPUBusyCycles
		}
	}
	t.Logf("%d instructions (%d run ahead), %d I-misses, %d data-stall and %d FPU-busy cycles",
		total.Instructions, ahead, misses, total.DataStallCycles, total.FPUBusyCycles)
	if misses == 0 || ahead == 0 || total.DataStallCycles == 0 || total.FPUBusyCycles == 0 {
		t.Fatal("the rig wants refills, run-ahead, data-stall retries and FPU retries in its runs")
	}
}

// TestIllegalInstructionPanicsAtTheFetch: a line may carry words that
// are not instructions (data after the code, padding); filling it must
// be silent, and the core must fault only if it fetches one — with its
// id, the word and the pc, as before the program was decoded by line.
func TestIllegalInstructionPanicsAtTheFetch(t *testing.T) {
	m := coherence.NewFetchMachine(4, 1, false)
	m.Space.WriteWord(diffCode, mustEncode(isa.Instr{Op: isa.OpNop}))
	m.Space.WriteWord(diffCode+4, 0xf4000123) // unassigned major opcode 61
	port, fetches := m.Port()
	c := cpu.New(7, port, fetches, m.DCaches[0])
	c.Reset(diffCode, 0, 1)
	defer func() {
		want := fmt.Sprintf("cpu 7: illegal instruction 0xf4000123 at pc=%#x", diffCode+4)
		if got := fmt.Sprint(recover()); !strings.Contains(got, want) {
			t.Fatalf("panic %q, want %q", got, want)
		}
		if c.Stats().Instructions != 1 {
			t.Fatalf("%d instructions retired before the fault, want the nop alone", c.Stats().Instructions)
		}
	}()
	for now := uint64(0); now < 1000; now++ {
		c.Tick(now)
		m.Step(now)
	}
	t.Fatal("garbage word executed")
}

// mustEncode encodes an instruction the test built to be encodable.
func mustEncode(in isa.Instr) uint32 {
	w, err := isa.Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
