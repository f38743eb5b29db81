package cpu

import (
	"testing"

	"repro/internal/isa"
)

// BenchmarkInterpreterALU measures raw interpreter throughput
// (simulated instructions per wall second) on a tight ALU loop.
func BenchmarkInterpreterALU(b *testing.B) {
	fm := newFlatMem()
	base := uint32(0x1000)
	prog := []isa.Instr{
		{Op: isa.OpAddi, Rd: 10, Rs1: 0, Imm: 1000},
		{Op: isa.OpAddi, Rd: 11, Rs1: 11, Imm: 3}, // loop body
		{Op: isa.OpAdd, Rd: 12, Rs1: 11, Rs2: 10},
		{Op: isa.OpAddi, Rd: 10, Rs1: 10, Imm: -1},
		{Op: isa.OpBne, Rs1: 10, Rd: 0, Imm: -4},
		{Op: isa.OpBeq, Rs1: 0, Rd: 0, Imm: -6}, // restart forever
	}
	for i, in := range prog {
		fm.space.WriteWord(base+uint32(4*i), mustEncode(in))
	}
	c := New(0, fm, &fm.fetches, fm)
	c.Reset(base, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
	}
	b.ReportMetric(float64(c.Stats().Instructions)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpreterMemOps exercises the memory path (always-hit).
func BenchmarkInterpreterMemOps(b *testing.B) {
	fm := newFlatMem()
	base := uint32(0x1000)
	prog := []isa.Instr{
		{Op: isa.OpLw, Rd: 10, Rs1: 0, Imm: 0x200},
		{Op: isa.OpSw, Rd: 10, Rs1: 0, Imm: 0x204},
		{Op: isa.OpBeq, Rs1: 0, Rd: 0, Imm: -3},
	}
	for i, in := range prog {
		fm.space.WriteWord(base+uint32(4*i), mustEncode(in))
	}
	c := New(0, fm, &fm.fetches, fm)
	c.Reset(base, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(uint64(i))
	}
}
