// Package asm is a two-pass text assembler for SR32. The programmatic
// builder in internal/codegen is the primary code path for the
// workloads; the assembler exists for hand-written test programs and
// the sr32asm command-line tool.
//
// How an instruction is written is not decided here: each row of
// internal/isa's op table spells its operands in syntax letters
// (isa.Op.Syntax), isa.Disasm prints from that string and this package
// parses from it, so whatever Disasm prints assembles back to the same
// word (TestSyntaxTableRoundTrip walks every op). The pseudo-instructions
// (b, j, ret, mv, li, la) rewrite themselves into a machine instruction
// before the table is consulted. Adding an instruction is one isa table
// row with its syntax string and one case in the cpu's exec (optionally
// a codegen.Builder emitter); nothing changes here.
//
// Syntax:
//
//	# comment            ; comment
//	label:               (labels may share a line with an instruction)
//	add  rd, rs1, rs2    lw rd, off(rs)      sw rs, off(rs)
//	beq  rs1, rs2, addr  jal addr            jalr rd, rs, off
//	li   rd, imm32       la rd, symbol       mv rd, rs
//	b    addr            j addr              nop   ret   halt
//	.org addr            .word v[, v...]     .float f[, f...]
//	.space n             .align n            .equ name, value
//
// Every number — immediate, offset, code address, li/la value, directive
// operand — is a literal (decimal or 0x hex, signed) or a symbol with an
// optional +N/-N; code addresses and li/la values may name symbols
// defined later in the source. Registers accept numeric (r0..r31,
// f0..f31) and ABI names (zero, id, nc, a0..a5, t0..t7, s0..s8, gp, k0,
// k1, sp, fp, ra). Segments laid over each other (.org back into
// assembled words) are an error.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Error is an assembly diagnostic with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Program is an assembled unit.
type Program struct {
	// Segments maps base addresses to assembled words.
	Segments map[uint32][]uint32
	// Symbols holds every label and .equ definition.
	Symbols map[string]uint32
	// Entry is the address of the "_start" symbol if defined, else the
	// lowest segment base.
	Entry uint32
}

// Image converts the program into a loadable memory image.
func (p *Program) Image() *mem.Image {
	img := mem.NewImage()
	for base, words := range p.Segments {
		buf := make([]byte, len(words)*4)
		for i, w := range words {
			buf[i*4] = byte(w)
			buf[i*4+1] = byte(w >> 8)
			buf[i*4+2] = byte(w >> 16)
			buf[i*4+3] = byte(w >> 24)
		}
		img.AddSegment(base, buf)
	}
	for name, addr := range p.Symbols {
		img.Define(name, addr)
	}
	img.Entry = p.Entry
	return img
}

var regNames = map[string]uint8{
	"zero": 0, "id": 1, "nc": 2,
	"a0": 3, "a1": 4, "a2": 5, "a3": 6, "a4": 7, "a5": 8,
	"t0": 9, "t1": 10, "t2": 11, "t3": 12, "t4": 13, "t5": 14, "t6": 15, "t7": 16,
	"s0": 17, "s1": 18, "s2": 19, "s3": 20, "s4": 21, "s5": 22, "s6": 23, "s7": 24, "s8": 25,
	"gp": 26, "k1": 27, "k0": 28, "sp": 29, "fp": 30, "ra": 31,
}

// parseReg accepts r<N> or an ABI alias, or with float set f<N>.
func parseReg(tok string, float bool) (uint8, error) {
	tok = strings.ToLower(tok)
	prefix, kind := "r", "register"
	if float {
		prefix, kind = "f", "float register"
	} else if r, ok := regNames[tok]; ok {
		return r, nil
	}
	if strings.HasPrefix(tok, prefix) {
		if n, err := strconv.Atoi(tok[1:]); err == nil && n >= 0 && n <= 31 {
			return uint8(n), nil
		}
	}
	return 0, fmt.Errorf("bad %s %q", kind, tok)
}

// item is one assembled unit: an instruction, literal words, or
// reserved space.
type item struct {
	line  int
	name  string // mnemonic as written, for diagnostics
	addr  uint32
	words int

	raw []uint32  // literal data; nil (and no instruction) is .space
	in  isa.Instr // Op == OpInvalid for data
	// target is the operand pass 2 resolves, once every symbol is
	// known: the code address of a branch or jal, or (words == 2) the
	// value li/la load with lui+ori.
	target string
}

// Assembler holds the two-pass state.
type Assembler struct {
	items []item
	syms  map[string]uint32
	pc    uint32
}

// New returns an assembler with the program counter at base.
func New(base uint32) *Assembler {
	return &Assembler{syms: make(map[string]uint32), pc: base}
}

// Assemble parses and assembles a complete source text.
func Assemble(src string, base uint32) (*Program, error) {
	a := New(base)
	for i, line := range strings.Split(src, "\n") {
		if err := a.line(i+1, line); err != nil {
			return nil, err
		}
	}
	return a.Finish()
}

func (a *Assembler) define(line int, name string, v uint32) error {
	if _, dup := a.syms[name]; dup {
		return &Error{Line: line, Msg: fmt.Sprintf("duplicate symbol %q", name)}
	}
	a.syms[name] = v
	return nil
}

// line assembles one source line (pass 1: layout + literal encoding).
func (a *Assembler) line(ln int, s string) error {
	// Strip comments.
	if i := strings.IndexAny(s, "#;"); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	for {
		i := strings.Index(s, ":")
		if i < 0 {
			break
		}
		label := strings.TrimSpace(s[:i])
		if label == "" || strings.ContainsAny(label, " \t,") {
			return &Error{Line: ln, Msg: "malformed label"}
		}
		if err := a.define(ln, label, a.pc); err != nil {
			return err
		}
		s = strings.TrimSpace(s[i+1:])
	}
	if s == "" {
		return nil
	}
	fields := strings.SplitN(s, " ", 2)
	op := strings.ToLower(fields[0])
	rest := ""
	if len(fields) == 2 {
		rest = strings.TrimSpace(fields[1])
	}
	if strings.HasPrefix(op, ".") {
		return a.directive(ln, op, rest)
	}
	return a.instruction(ln, op, rest)
}

func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// Finish resolves what pass 1 left for it and produces the program:
// one segment per run of contiguous items, in source order.
func (a *Assembler) Finish() (*Program, error) {
	p := &Program{Segments: make(map[uint32][]uint32), Symbols: a.syms}
	var bases []uint32 // of p.Segments, in source order
	var end uint64     // of the segment being extended
	for _, it := range a.items {
		words, err := a.encodeItem(&it)
		if err != nil {
			return nil, err
		}
		lo := uint64(it.addr)
		hi := lo + 4*uint64(len(words))
		for _, b := range bases {
			if lo < uint64(b)+4*uint64(len(p.Segments[b])) && uint64(b) < hi {
				return nil, &Error{Line: it.line, Msg: fmt.Sprintf("%#x overlaps the segment at %#x", lo, b)}
			}
		}
		if lo != end || len(bases) == 0 {
			bases = append(bases, it.addr)
		}
		base := bases[len(bases)-1]
		p.Segments[base] = append(p.Segments[base], words...)
		end = hi
	}
	for i, b := range bases {
		if i == 0 || b < p.Entry {
			p.Entry = b
		}
	}
	if e, ok := a.syms["_start"]; ok {
		p.Entry = e
	}
	return p, nil
}

// encodeItem is pass 2 for one item.
func (a *Assembler) encodeItem(it *item) ([]uint32, error) {
	if it.in.Op == isa.OpInvalid {
		if it.raw != nil {
			return it.raw, nil
		}
		return make([]uint32, it.words), nil // .space
	}
	bad := func(err error) ([]uint32, error) {
		return nil, &Error{Line: it.line, Msg: it.name + ": " + err.Error()}
	}
	ins := []isa.Instr{it.in}
	if it.target != "" {
		v, err := a.parseNum(it.target)
		switch {
		case err != nil:
			return bad(err)
		case it.words == 2: // li/la: pass 1's lui takes the high half, an ori the low
			ins[0].Imm = int32(int16(v >> 16))
			ins = append(ins, isa.Instr{Op: isa.OpOri, Rd: it.in.Rd, Rs1: it.in.Rd, Imm: int32(int16(v))})
		case v&3 != 0:
			return bad(fmt.Errorf("branch target %#x not word aligned", v))
		default:
			ins[0].Imm = int32(uint32(v)-it.addr-4) / 4
		}
	}
	words := make([]uint32, len(ins))
	for i, in := range ins {
		w, err := isa.Encode(in)
		if err != nil {
			return bad(err)
		}
		words[i] = w
	}
	return words, nil
}
