package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// parseNum parses a literal integer (decimal, 0x hex, optional sign) or
// an already-defined symbol, with an optional trailing +N/-N offset.
func (a *Assembler) parseNum(tok string) (int64, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return 0, fmt.Errorf("empty operand")
	}
	// Literal?
	if v, err := strconv.ParseInt(tok, 0, 64); err == nil {
		return v, nil
	}
	if v, err := strconv.ParseUint(tok, 0, 64); err == nil {
		return int64(v), nil
	}
	// symbol, symbol+N, symbol-N.
	name, off := tok, int64(0)
	for _, sep := range []string{"+", "-"} {
		if i := strings.LastIndex(tok, sep); i > 0 {
			o, err := strconv.ParseInt(tok[i:], 0, 64)
			if err == nil {
				name, off = strings.TrimSpace(tok[:i]), o
				break
			}
		}
	}
	if v, ok := a.syms[name]; ok {
		return int64(v) + off, nil
	}
	return 0, fmt.Errorf("undefined symbol or bad number %q", tok)
}

// imm parses an operand that must fit the I-type immediate field.
func (a *Assembler) imm(tok string) (int32, error) {
	v, err := a.parseNum(tok)
	if err == nil && (v < isa.ImmIMin || v > isa.ImmIMax) {
		err = fmt.Errorf("immediate %d out of range", v)
	}
	return int32(v), err
}

func (a *Assembler) push(it item) {
	it.addr = a.pc
	a.items = append(a.items, it)
	a.pc += uint32(4 * it.words)
}

func (a *Assembler) directive(ln int, op, rest string) error {
	ops := splitOperands(rest)
	bad := func(msg string) error { return &Error{Line: ln, Msg: msg} }
	switch op {
	case ".org":
		if len(ops) != 1 {
			return bad(".org needs one operand")
		}
		v, err := a.parseNum(ops[0])
		if err != nil {
			return bad(err.Error())
		}
		if v < 0 || v > math.MaxUint32 || v%4 != 0 {
			return bad(".org address must be a word-aligned 32-bit value")
		}
		a.pc = uint32(v)
	case ".word":
		if len(ops) == 0 {
			return bad(".word needs operands")
		}
		raw := make([]uint32, len(ops))
		for i, o := range ops {
			v, err := a.parseNum(o)
			if err != nil {
				return bad(err.Error())
			}
			raw[i] = uint32(v)
		}
		a.push(item{line: ln, words: len(raw), raw: raw})
	case ".float":
		if len(ops) == 0 {
			return bad(".float needs operands")
		}
		raw := make([]uint32, len(ops))
		for i, o := range ops {
			f, err := strconv.ParseFloat(o, 32)
			if err != nil {
				return bad(err.Error())
			}
			raw[i] = math.Float32bits(float32(f))
		}
		a.push(item{line: ln, words: len(raw), raw: raw})
	case ".space":
		if len(ops) != 1 {
			return bad(".space needs one operand")
		}
		v, err := a.parseNum(ops[0])
		if err != nil || v <= 0 || v%4 != 0 {
			return bad(".space needs a positive multiple of 4")
		}
		a.push(item{line: ln, words: int(v / 4)})
	case ".align":
		if len(ops) != 1 {
			return bad(".align needs one operand")
		}
		v, err := a.parseNum(ops[0])
		if err != nil || v <= 0 || v&(v-1) != 0 {
			return bad(".align needs a power of two")
		}
		if rem := a.pc % uint32(v); rem != 0 {
			pad := (uint32(v) - rem) / 4
			a.push(item{line: ln, words: int(pad)})
		}
	case ".equ":
		if len(ops) != 2 {
			return bad(".equ needs name, value")
		}
		v, err := a.parseNum(ops[1])
		if err != nil {
			return bad(err.Error())
		}
		return a.define(ln, ops[0], uint32(v))
	default:
		return bad(fmt.Sprintf("unknown directive %q", op))
	}
	return nil
}

// instruction assembles one instruction: it looks the mnemonic up in
// isa's table and parses one operand per letter of the row's syntax.
// No machine instruction is named here; the six pseudo-instructions
// first rewrite themselves into one, in source text.
func (a *Assembler) instruction(ln int, name, rest string) error {
	ops := splitOperands(rest)
	bad := func(format string, args ...any) error {
		return &Error{Line: ln, Msg: name + ": " + fmt.Sprintf(format, args...)}
	}
	for _, tok := range ops {
		if tok == "" {
			return bad("empty operand")
		}
	}
	it := item{line: ln, name: name, words: 1}
	mnem, added := name, 0 // added: operands the rewrite supplies
	switch name {
	case "b", "j":
		mnem, ops, added = "beq", append([]string{"r0", "r0"}, ops...), 2
	case "ret":
		mnem, ops, added = "jalr", append([]string{"r0", "ra", "0"}, ops...), 3
	case "mv":
		mnem, ops, added = "or", append(ops, "r0"), 1
	case "li", "la":
		// addi when li's value is known in pass 1 and fits; else lui
		// here and pass 2 adds the ori and fills in both halves.
		mnem = "lui"
		if len(ops) != 2 {
			break
		}
		v, err := a.parseNum(ops[1])
		if v = int64(int32(v)); name == "li" && err == nil && v >= isa.ImmIMin && v <= isa.ImmIMax {
			mnem, ops, added = "addi", []string{ops[0], "r0", strconv.FormatInt(v, 10)}, 1
		} else {
			it.words, it.target, ops[1] = 2, ops[1], "0"
		}
	}
	op, ok := isa.OpByName(mnem)
	if !ok {
		return &Error{Line: ln, Msg: fmt.Sprintf("unknown mnemonic %q", name)}
	}
	syn := op.Syntax()
	if len(ops) != len(syn) {
		return bad("needs %d operands, got %d", len(syn)-added, len(ops)-added)
	}
	it.in.Op = op
	for i, tok := range ops {
		var err error
		switch c := syn[i]; c {
		case isa.SynImm:
			it.in.Imm, err = a.imm(tok)
		case isa.SynMem:
			open, shut := strings.Index(tok, "("), strings.LastIndex(tok, ")")
			if open < 0 || shut < open {
				return bad("bad memory operand %q, want imm(reg)", tok)
			}
			if off := strings.TrimSpace(tok[:open]); off != "" {
				it.in.Imm, err = a.imm(off)
			}
			if err == nil {
				it.in.Rs1, err = parseReg(strings.TrimSpace(tok[open+1:shut]), false)
			}
		case isa.SynAddr:
			it.target = tok
		case isa.SynFd, isa.SynFs1, isa.SynFs2:
			*it.in.Reg(c), err = parseReg(tok, true)
		default:
			*it.in.Reg(c), err = parseReg(tok, false)
		}
		if err != nil {
			return bad("%v", err)
		}
	}
	a.push(it)
	return nil
}
