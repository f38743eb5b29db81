package isa

import "testing"

func BenchmarkDecode(b *testing.B) {
	words := make([]uint32, 64)
	for i, op := range AllOps() {
		if i >= len(words) {
			break
		}
		words[i] = mustEncode(Canonical(Instr{Op: op, Rd: 1, Rs1: 2, Rs2: 3, Imm: 5}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Decode(words[i&63])
	}
}

func BenchmarkEncode(b *testing.B) {
	in := Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: 42}
	for i := 0; i < b.N; i++ {
		if _, err := Encode(in); err != nil {
			b.Fatal(err)
		}
	}
}
