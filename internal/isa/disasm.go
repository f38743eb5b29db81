package isa

import "fmt"

// RegName returns the conventional name of integer register r.
func RegName(r uint8) string { return fmt.Sprintf("r%d", r) }

// FRegName returns the conventional name of float register r.
func FRegName(r uint8) string { return fmt.Sprintf("f%d", r) }

// Disasm renders a decoded instruction in the assembler's input syntax,
// operand by operand from the op's syntax letters. pc is the address of
// the instruction; it is used to render branch and jump targets as
// absolute addresses.
func Disasm(in Instr, pc uint32) string {
	if in.Op == OpInvalid {
		return ".word <invalid>"
	}
	s, sep := in.Op.Name(), " "
	for _, c := range []byte(in.Op.Syntax()) {
		s += sep
		switch c {
		case SynImm:
			s += fmt.Sprint(in.Imm)
		case SynMem:
			s += fmt.Sprintf("%d(%s)", in.Imm, RegName(in.Rs1))
		case SynAddr:
			s += fmt.Sprintf("%#x", pc+4+uint32(in.Imm)*4)
		case SynFd, SynFs1, SynFs2:
			s += FRegName(*in.Reg(c))
		default:
			s += RegName(*in.Reg(c))
		}
		sep = ", "
	}
	return s
}
