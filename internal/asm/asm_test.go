package asm

import (
	"strings"
	"testing"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/mem"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble(src, 0x1000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestAssembleBasicProgram(t *testing.T) {
	p := mustAssemble(t, `
_start:
    li   t0, 10
    addi t1, t0, -3
    halt
`)
	words := p.Segments[0x1000]
	if len(words) != 3 {
		t.Fatalf("got %d words", len(words))
	}
	if p.Entry != 0x1000 {
		t.Fatalf("entry = %#x", p.Entry)
	}
	in := isa.Decode(words[1])
	if in.Op != isa.OpAddi || in.Imm != -3 {
		t.Fatalf("second instruction = %+v", in)
	}
}

func TestAssembleRunsFib(t *testing.T) {
	p := mustAssemble(t, `
_start:
    li   t0, 10
    li   a0, 0
    li   a1, 1
loop:
    beq  t0, zero, done
    add  t2, a0, a1
    mv   a0, a1
    mv   a1, t2
    addi t0, t0, -1
    j    loop
done:
    la   t3, result
    sw   a0, 0(t3)
    halt
    .align 32
result:
    .word 0
`)
	sys, err := core.Build(core.DefaultConfig(coherence.WTI, mem.Arch2, 1), p.Image())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	addr := p.Symbols["result"]
	if got := sys.Space.ReadWord(addr); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestDirectives(t *testing.T) {
	p := mustAssemble(t, `
    .equ magic, 0x1234
data:
    .word 1, 2, magic
    .float 1.5
    .space 8
after:
    halt
`)
	words := p.Segments[0x1000]
	if words[0] != 1 || words[1] != 2 || words[2] != 0x1234 {
		t.Fatalf(".word block = %v", words[:3])
	}
	if words[3] != 0x3fc00000 { // float32(1.5)
		t.Fatalf(".float = %#x", words[3])
	}
	if words[4] != 0 || words[5] != 0 {
		t.Fatal(".space not zeroed")
	}
	if p.Symbols["after"] != 0x1000+6*4 {
		t.Fatalf("after = %#x", p.Symbols["after"])
	}
	if p.Symbols["magic"] != 0x1234 {
		t.Fatalf("equ = %#x", p.Symbols["magic"])
	}
}

func TestOrgCreatesSegments(t *testing.T) {
	p := mustAssemble(t, `
    halt
    .org 0x8000
    .word 42
`)
	if len(p.Segments) != 2 {
		t.Fatalf("segments = %d", len(p.Segments))
	}
	if p.Segments[0x8000][0] != 42 {
		t.Fatal("second segment content wrong")
	}
}

func TestMemoryOperandForms(t *testing.T) {
	p := mustAssemble(t, `
    lw   t0, 16(sp)
    sw   t0, (sp)
    flw  f1, -4(a0)
    swap t1, 0(a1)
    halt
`)
	words := p.Segments[0x1000]
	lw := isa.Decode(words[0])
	if lw.Op != isa.OpLw || lw.Imm != 16 || lw.Rs1 != 29 {
		t.Fatalf("lw = %+v", lw)
	}
	sw := isa.Decode(words[1])
	if sw.Op != isa.OpSw || sw.Imm != 0 {
		t.Fatalf("sw = %+v", sw)
	}
	flw := isa.Decode(words[2])
	if flw.Op != isa.OpFlw || flw.Imm != -4 || flw.Rs1 != 3 {
		t.Fatalf("flw = %+v", flw)
	}
}

func TestDisasmReassembleRoundTrip(t *testing.T) {
	// Assemble, disassemble every word, assemble the disassembly, and
	// compare the encodings.
	src := `
_start:
    add  r1, r2, r3
    addi r4, r5, -7
    lui  r6, 18
    lw   r7, 12(r8)
    sw   r9, -8(r10)
    lb   r1, 0(r2)
    sb   r3, 3(r4)
    swap r5, 0(r6)
    fadd f1, f2, f3
    fdiv f4, f5, f6
    feq  r1, f2, f3
    cvtws f7, r8
    cvtsw r9, f10
    fneg f1, f2
    jalr r1, r2, 8
back:
    beq  r1, r2, back
    bne  r3, r4, 0x1000
    blt  r5, r6, fwd
    bge  r7, r8, fwd+4
    bltu r9, r10, back-8
    bgeu r11, r12, _start
    jal  fwd
    jal  0x2000
    nop
fwd:
    halt
    halt
`
	p1 := mustAssemble(t, src)
	words1 := p1.Segments[0x1000]
	var sb strings.Builder
	for i, w := range words1 {
		pc := 0x1000 + uint32(4*i)
		sb.WriteString(isa.Disasm(isa.Decode(w), pc))
		sb.WriteByte('\n')
	}
	p2 := mustAssemble(t, sb.String())
	words2 := p2.Segments[0x1000]
	if len(words1) != len(words2) {
		t.Fatalf("length mismatch: %d vs %d", len(words1), len(words2))
	}
	for i := range words1 {
		if words1[i] != words2[i] {
			t.Fatalf("word %d: %#08x vs %#08x (%s)", i, words1[i], words2[i],
				isa.Disasm(isa.Decode(words1[i]), 0))
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"duplicate label", "x:\nx:\n halt"},
		{"undefined branch target", "beq r1, r2, nowhere\nhalt"},
		{"bad register", "add r1, r99, r2"},
		{"bad mnemonic", "frobnicate r1"},
		{"immediate overflow", "addi r1, r0, 100000"},
		{"bad directive", ".bogus 1"},
		{"odd space", ".space 3"},
		{"missing operand", "add r1, r2"},
		{"extra operand", "halt r1"},
		{"float register for an integer one", "add r1, f2, r3"},
		{"integer register for a float one", "fadd f1, r2, f3"},
		{"memory operand without ( )", "lw r1, 4"},
		{"empty operand", "beq r1, r2,"},
		{"overlapping .org", ".org 0x1000\n.word 1, 2\n.org 0x1004\n.word 3"},
		{".org back onto the first segment", "x: .word 1\n.org 0x1000\nhalt"},
		{"growing into a later segment", ".org 0x1008\n.word 1\n.org 0x1000\n.word 1, 2, 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src, 0x1000)
			if _, ok := err.(*Error); !ok {
				t.Fatalf("Assemble(%q) = %v, want an *asm.Error", c.src, err)
			}
		})
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	p := mustAssemble(t, `
# full-line comment
   ; semicolon comment

_start: halt   # trailing comment
`)
	if len(p.Segments[0x1000]) != 1 {
		t.Fatal("comments not stripped")
	}
}

func TestSymbolArithmetic(t *testing.T) {
	p := mustAssemble(t, `
    .equ base, 0x2000
    lw t0, 0(sp)
    li t1, base+8
    halt
`)
	words := p.Segments[0x1000]
	// li of base+8 (0x2008) fits 16 bits: single addi.
	in := isa.Decode(words[1])
	if in.Op != isa.OpAddi || in.Imm != 0x2008 {
		t.Fatalf("li base+8 = %+v", in)
	}
}

func TestErrorFormatting(t *testing.T) {
	_, err := Assemble("frobnicate r1", 0x1000)
	if err == nil {
		t.Fatal("expected error")
	}
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if e.Line != 1 || !strings.Contains(e.Error(), "line 1") {
		t.Fatalf("error = %v", e)
	}
	// An operand error names the mnemonic as written and the operand.
	for src, want := range map[string]string{
		"add r1, r99, r2":           `asm: line 1: add: bad register "r99"`,
		"nop\naddi r1, r0, 100000":  `asm: line 2: addi: immediate 100000 out of range`,
		"mv r1":                     `asm: line 1: mv: needs 2 operands, got 1`,
		"flw f1, 4(f2)":             `asm: line 1: flw: bad register "f2"`,
		"la t0, nowhere":            `asm: line 1: la: undefined symbol or bad number "nowhere"`,
		".word 1\n.org 0x1000\nj 0": `asm: line 3: 0x1000 overlaps the segment at 0x1000`,
	} {
		if _, err := Assemble(src, 0x1000); err == nil || err.Error() != want {
			t.Errorf("Assemble(%q) = %v, want %s", src, err, want)
		}
	}
}

// TestSyntaxTableRoundTrip holds the assembler to isa's operand-syntax
// table: for every defined op, with each operand drawn at both ends of
// its range (registers 0 and 31, the immediate field's limits, near and
// farthest targets either side of the instruction), the text Disasm
// prints assembles to the word Encode gives, and that word disassembles
// to the same text.
func TestSyntaxTableRoundTrip(t *testing.T) {
	const pc = 0x40000
	draws := []struct {
		reg      uint8
		imm, rel int32 // rel: target offset in words, scaled to the class below
	}{
		{0, isa.ImmIMin, -1}, {31, isa.ImmIMax, 1}, {7, -1, -3}, {24, 12, 9},
	}
	for op := isa.OpInvalid + 1; op != isa.OpInvalid; op++ { // every Op value
		if _, ok := isa.OpByName(op.Name()); !ok {
			continue
		}
		for _, d := range draws {
			in := isa.Instr{Op: op}
			for _, c := range []byte(op.Syntax()) {
				switch c {
				case isa.SynImm:
					in.Imm = d.imm
				case isa.SynMem:
					in.Imm, in.Rs1 = d.imm, d.reg
				case isa.SynAddr:
					in.Imm = d.rel
					if d.rel == -1 || d.rel == 1 { // the farthest target
						in.Imm *= isa.ImmIMax
						if op.Class() == isa.ClassJ {
							in.Imm = d.rel * isa.ImmJMax
						}
					}
				default:
					*in.Reg(c) = d.reg
				}
			}
			text := isa.Disasm(in, pc)
			prog, err := Assemble(text, pc)
			if err != nil {
				t.Errorf("%q: %v", text, err)
				continue
			}
			if got, want := prog.Segments[pc], mustEncode(in); len(got) != 1 || got[0] != want {
				t.Errorf("%q assembled to %#x, Encode gives %#08x", text, got, want)
			} else if again := isa.Disasm(isa.Decode(got[0]), pc); again != text {
				t.Errorf("%q disassembles back as %q", text, again)
			}
		}
	}
}

func TestLiExpandsLargeLiterals(t *testing.T) {
	p := mustAssemble(t, `
    li t0, 0x12345678
    li t1, -5
    halt
`)
	words := p.Segments[0x1000]
	// Large literal: lui+ori; small: single addi.
	if len(words) != 4 {
		t.Fatalf("words = %d, want 4", len(words))
	}
	hi := isa.Decode(words[0])
	lo := isa.Decode(words[1])
	if hi.Op != isa.OpLui || lo.Op != isa.OpOri {
		t.Fatalf("large li expansion: %v %v", hi.Op, lo.Op)
	}
	small := isa.Decode(words[2])
	if small.Op != isa.OpAddi || small.Imm != -5 {
		t.Fatalf("small li: %+v", small)
	}
}

func TestLiForwardSymbolTwoWords(t *testing.T) {
	p := mustAssemble(t, `
    li t0, later
    halt
later:
    .word 0
`)
	words := p.Segments[0x1000]
	if len(words) != 4 {
		t.Fatalf("words = %d", len(words))
	}
	// Run it: t0 must hold the address of "later".
	sys := p.Symbols["later"]
	hi := isa.Decode(words[0])
	lo := isa.Decode(words[1])
	got := uint32(hi.Imm)<<16 | uint32(uint16(lo.Imm))
	if got != sys {
		t.Fatalf("li symbol = %#x, want %#x", got, sys)
	}
}

func TestBranchAlignmentError(t *testing.T) {
	// A branch to a .equ symbol with an unaligned value must fail.
	_, err := Assemble(`
    .equ odd, 0x1001
    beq r1, r2, odd
`, 0x1000)
	if err == nil {
		t.Fatal("unaligned branch target accepted")
	}
}

func TestLabelOnSameLineAndMulti(t *testing.T) {
	p := mustAssemble(t, `
a: b: c: nop
    halt
`)
	for _, sym := range []string{"a", "b", "c"} {
		if p.Symbols[sym] != 0x1000 {
			t.Fatalf("%s = %#x", sym, p.Symbols[sym])
		}
	}
}

func TestAssemblerPseudoB(t *testing.T) {
	p := mustAssemble(t, `
_start:
    b skip
    halt
skip:
    halt
`)
	in := isa.Decode(p.Segments[0x1000][0])
	if in.Op != isa.OpBeq || in.Rs1 != 0 || in.Rd != 0 || in.Imm != 1 {
		t.Fatalf("b pseudo = %+v", in)
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
