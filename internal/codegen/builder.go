// Package codegen provides a programmatic macro-assembler for SR32 and
// the threading runtime (spin-locks, context-switching schedulers,
// barriers) that the workload kernels are compiled with. It plays the
// role of the paper's cross-compilation toolchain and lightweight
// POSIX-threads OS: workloads are Go functions that emit SR32 code
// through the Builder, and the Runtime provides the SMP (centralized,
// migrating) and DS (decentralized, pinned) schedulers of the paper's
// two software configurations.
package codegen

import (
	"fmt"

	"repro/internal/isa"
)

// Reg is an SR32 integer register.
type Reg uint8

// Register conventions shared by all generated code. K0 permanently
// holds the running thread's TCB pointer (set by the scheduler); K1 is
// a runtime scratch register; both are never touched by kernel code.
const (
	R0 Reg = 0 // hardwired zero
	ID Reg = 1 // CPU id at reset
	NC Reg = 2 // CPU count at reset
	A0 Reg = 3 // arguments / return value
	A1 Reg = 4
	A2 Reg = 5
	A3 Reg = 6
	A4 Reg = 7
	A5 Reg = 8
	T0 Reg = 9 // caller-saved temporaries
	T1 Reg = 10
	T2 Reg = 11
	T3 Reg = 12
	T4 Reg = 13
	T5 Reg = 14
	T6 Reg = 15
	T7 Reg = 16
	S0 Reg = 17 // callee-saved: preserved across calls and barriers
	S1 Reg = 18
	S2 Reg = 19
	S3 Reg = 20
	S4 Reg = 21
	S5 Reg = 22
	S6 Reg = 23
	S7 Reg = 24
	S8 Reg = 25
	GP Reg = 26 // reserved
	K1 Reg = 27 // runtime scratch
	K0 Reg = 28 // current TCB pointer
	SP Reg = 29
	FP Reg = 30
	RA Reg = 31
)

// FReg is an SR32 floating-point register.
type FReg uint8

// Floating-point register aliases.
const (
	F0 FReg = iota
	F1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
	F11
)

// fixup is a branch or jal whose word-relative offset to label is
// patched in by Finalize.
type fixup struct {
	index int    // instruction index to patch
	label string // target label
}

// Builder assembles a code segment instruction by instruction.
type Builder struct {
	base   uint32
	ins    []isa.Instr
	labels map[string]int
	fixups []fixup
	autoN  int
	err    error
}

// NewBuilder starts a code segment at base (word-aligned).
func NewBuilder(base uint32) *Builder {
	if base&3 != 0 {
		panic("codegen: code base must be word aligned")
	}
	return &Builder{base: base, labels: make(map[string]int)}
}

// AutoLabel returns a fresh label name with the given prefix, for
// macros that need local branch targets.
func (b *Builder) AutoLabel(prefix string) string {
	b.autoN++
	return fmt.Sprintf(".%s.%d", prefix, b.autoN)
}

func (b *Builder) emit(in isa.Instr) {
	b.ins = append(b.ins, in)
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("codegen: "+format, args...)
	}
}

// Label defines a label at the current position. Redefinition is an
// error reported by Finalize.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.ins)
}

// LabelAddr returns the absolute address of a defined label. It is only
// valid for labels already defined (host-side structures that point at
// code should be resolved after emission).
func (b *Builder) LabelAddr(name string) (uint32, bool) {
	idx, ok := b.labels[name]
	if !ok {
		return 0, false
	}
	return b.base + uint32(idx)*4, true
}

// --- raw instruction emitters -------------------------------------------

func (b *Builder) r3(op isa.Op, rd, rs1, rs2 Reg) {
	b.emit(isa.Instr{Op: op, Rd: uint8(rd), Rs1: uint8(rs1), Rs2: uint8(rs2)})
}

func (b *Builder) imm(op isa.Op, rd, rs1 Reg, imm int32) {
	if imm < isa.ImmIMin || imm > isa.ImmIMax {
		b.fail("%v immediate %d out of range", op, imm)
		imm = 0
	}
	b.emit(isa.Instr{Op: op, Rd: uint8(rd), Rs1: uint8(rs1), Imm: imm})
}

// Integer register-register operations.
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.r3(isa.OpAdd, rd, rs1, rs2) }
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.r3(isa.OpSub, rd, rs1, rs2) }
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.r3(isa.OpMul, rd, rs1, rs2) }

// Integer register-immediate operations.
func (b *Builder) Addi(rd, rs1 Reg, v int32) { b.imm(isa.OpAddi, rd, rs1, v) }
func (b *Builder) Andi(rd, rs1 Reg, v int32) { b.imm(isa.OpAndi, rd, rs1, v) }
func (b *Builder) Ori(rd, rs1 Reg, v int32)  { b.imm(isa.OpOri, rd, rs1, v) }
func (b *Builder) Slli(rd, rs1 Reg, v int32) { b.imm(isa.OpSlli, rd, rs1, v) }
func (b *Builder) Lui(rd Reg, v int32)       { b.imm(isa.OpLui, rd, R0, v) }

// Memory operations (imm(rs1) addressing).
func (b *Builder) Lw(rd Reg, off int32, rs1 Reg)   { b.imm(isa.OpLw, rd, rs1, off) }
func (b *Builder) Sw(src Reg, off int32, rs1 Reg)  { b.imm(isa.OpSw, src, rs1, off) }
func (b *Builder) Swap(rd Reg, off int32, rs1 Reg) { b.imm(isa.OpSwap, rd, rs1, off) }

// Floating-point operations.
func (b *Builder) Flw(fd FReg, off int32, rs1 Reg) { b.imm(isa.OpFlw, Reg(fd), rs1, off) }
func (b *Builder) Fsw(fs FReg, off int32, rs1 Reg) { b.imm(isa.OpFsw, Reg(fs), rs1, off) }
func (b *Builder) Fadd(fd, fa, fb FReg)            { b.r3(isa.OpFadd, Reg(fd), Reg(fa), Reg(fb)) }
func (b *Builder) Fsub(fd, fa, fb FReg)            { b.r3(isa.OpFsub, Reg(fd), Reg(fa), Reg(fb)) }
func (b *Builder) Fmul(fd, fa, fb FReg)            { b.r3(isa.OpFmul, Reg(fd), Reg(fa), Reg(fb)) }
func (b *Builder) Fdiv(fd, fa, fb FReg)            { b.r3(isa.OpFdiv, Reg(fd), Reg(fa), Reg(fb)) }
func (b *Builder) CvtWS(fd FReg, rs Reg)           { b.r3(isa.OpCvtWS, Reg(fd), rs, R0) }
func (b *Builder) CvtSW(rd Reg, fs FReg)           { b.r3(isa.OpCvtSW, rd, Reg(fs), R0) }

// Branches to labels (forward references allowed).
func (b *Builder) branch(op isa.Op, rs1, rs2 Reg, label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.ins), label: label})
	b.emit(isa.Instr{Op: op, Rd: uint8(rs2), Rs1: uint8(rs1)})
}

func (b *Builder) Beq(rs1, rs2 Reg, label string) { b.branch(isa.OpBeq, rs1, rs2, label) }
func (b *Builder) Bne(rs1, rs2 Reg, label string) { b.branch(isa.OpBne, rs1, rs2, label) }
func (b *Builder) Bge(rs1, rs2 Reg, label string) { b.branch(isa.OpBge, rs1, rs2, label) }

// J is an unconditional jump to a label (beq r0, r0).
func (b *Builder) J(label string) { b.Beq(R0, R0, label) }

// Jal calls a label, linking into RA.
func (b *Builder) Jal(label string) {
	b.fixups = append(b.fixups, fixup{index: len(b.ins), label: label})
	b.emit(isa.Instr{Op: isa.OpJal})
}

// Jalr jumps to rs1+off, linking into rd (use R0 for a plain indirect
// jump, RA for an indirect call).
func (b *Builder) Jalr(rd, rs1 Reg, off int32) { b.imm(isa.OpJalr, rd, rs1, off) }

// Ret returns to the caller (jalr r0, ra, 0).
func (b *Builder) Ret() { b.Jalr(R0, RA, 0) }

// Halt stops the executing CPU.
func (b *Builder) Halt() { b.emit(isa.Instr{Op: isa.OpHalt}) }

// Mv copies a register (or rd, rs, r0).
func (b *Builder) Mv(rd, rs Reg) { b.r3(isa.OpOr, rd, rs, R0) }

// Li loads a 32-bit constant with one or two instructions.
func (b *Builder) Li(rd Reg, v uint32) {
	sv := int32(v)
	if sv >= isa.ImmIMin && sv <= isa.ImmIMax {
		b.Addi(rd, R0, sv)
		return
	}
	b.Lui(rd, int32(int16(v>>16)))
	if lo := v & 0xffff; lo != 0 {
		// The low half is zero-extended by ori at execution; encode it
		// sign-wrapped so it fits the 16-bit immediate field.
		b.Ori(rd, rd, int32(int16(lo)))
	}
}

// Finalize resolves label references and encodes the program. The
// returned words are ready to be placed at the builder's base address.
func (b *Builder) Finalize() ([]uint32, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			return nil, fmt.Errorf("codegen: undefined label %q", f.label)
		}
		b.ins[f.index].Imm = int32(target - (f.index + 1))
	}
	words := make([]uint32, len(b.ins))
	for i, in := range b.ins {
		w, err := isa.Encode(in)
		if err != nil {
			return nil, fmt.Errorf("codegen: at %#x: %w", b.base+uint32(i)*4, err)
		}
		words[i] = w
	}
	return words, nil
}

// Bytes encodes the program as little-endian bytes (for mem.Image).
func (b *Builder) Bytes() ([]byte, error) {
	words, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(words)*4)
	for i, w := range words {
		out[i*4] = byte(w)
		out[i*4+1] = byte(w >> 8)
		out[i*4+2] = byte(w >> 16)
		out[i*4+3] = byte(w >> 24)
	}
	return out, nil
}
