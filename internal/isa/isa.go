// Package isa defines SR32, the small SPARC-flavoured 32-bit RISC
// instruction set executed by the simulated processors.
//
// The paper's platforms use SPARC-V8 cores with an FPU; for the purposes
// of the write-policy study the processor only matters as a generator of
// dependent load/store/atomic streams, so SR32 keeps the essentials:
// 32 integer registers (r0 hardwired to zero), 32 single-precision float
// registers, word/byte loads and stores, an atomic SWAP (the SPARC
// synchronization primitive the runtime's spin-locks are built on),
// branches, jump-and-link, and a small FPU.
//
// Instructions are fixed 32-bit words:
//
//	R-type:  op[31:26] rd[25:21] rs1[20:16] rs2[15:11] funct[10:0]
//	I-type:  op[31:26] rd[25:21] rs1[20:16] imm16[15:0]   (sign-extended)
//	J-type:  op[31:26] imm26[25:0]                        (sign-extended)
//
// Branch offsets and JAL targets are in words, PC-relative to the
// instruction after the branch.
package isa

import "fmt"

// Op identifies an SR32 operation after decoding.
type Op uint8

// The SR32 operations.
const (
	OpInvalid Op = iota

	// Integer register-register ALU.
	OpAdd
	OpSub
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt
	OpSltu
	OpMul
	OpDiv
	OpRem

	// Integer register-immediate ALU.
	OpAddi
	OpAndi
	OpOri
	OpXori
	OpSlti
	OpSlli
	OpSrli
	OpSrai
	OpLui

	// Memory.
	OpLw
	OpSw
	OpLb
	OpLbu
	OpSb
	OpSwap // atomic: rd <-> mem32[rs1+imm]

	// Control flow.
	OpBeq
	OpBne
	OpBlt
	OpBge
	OpBltu
	OpBgeu
	OpJal
	OpJalr

	// Floating point (single precision).
	OpFlw
	OpFsw
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpFeq   // rd = (f(rs1) == f(rs2))
	OpFlt   // rd = (f(rs1) <  f(rs2))
	OpFle   // rd = (f(rs1) <= f(rs2))
	OpCvtWS // f(rd) = float(r(rs1))
	OpCvtSW // r(rd) = int(f(rs1))
	OpFmov  // f(rd) = f(rs1)
	OpFabs  // f(rd) = |f(rs1)|
	OpFneg  // f(rd) = -f(rs1)

	// System.
	OpHalt
	OpNop

	numOps
)

// Instr is a decoded SR32 instruction.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int32
}

// Class partitions operations by encoding format.
type Class uint8

// Encoding classes.
const (
	ClassR Class = iota
	ClassI
	ClassJ
)

// Operand-syntax letters: how one assembler operand is written and the
// Instr field it fills. Each opTable row spells its operands with them,
// in source order; Disasm prints from that string and internal/asm
// parses from it, so the two cannot disagree.
const (
	SynRd, SynRs1, SynRs2 = 'd', 's', 't' // integer register in that field
	SynFd, SynFs1, SynFs2 = 'D', 'S', 'T' // float register in that field
	SynImm                = 'i'           // immediate
	SynMem                = 'm'           // imm(rs1); the immediate may be omitted
	SynAddr               = 'a'           // code address; Imm is its word offset from pc+4
)

// opInfo describes one operation's encoding and assembler syntax.
type opInfo struct {
	name   string
	syn    string // operand-syntax letters
	class  Class
	major  uint8 // 6-bit major opcode
	funct  uint16
	memory bool // touches data memory
}

// Major opcode groups. R-type integer ops share major 0, R-type float
// ops share major 1; everything else has a unique major.
const (
	majR  = 0
	majRF = 1
)

var opTable = [numOps]opInfo{
	OpAdd:  {name: "add", syn: "dst", class: ClassR, major: majR, funct: 1},
	OpSub:  {name: "sub", syn: "dst", class: ClassR, major: majR, funct: 2},
	OpAnd:  {name: "and", syn: "dst", class: ClassR, major: majR, funct: 3},
	OpOr:   {name: "or", syn: "dst", class: ClassR, major: majR, funct: 4},
	OpXor:  {name: "xor", syn: "dst", class: ClassR, major: majR, funct: 5},
	OpSll:  {name: "sll", syn: "dst", class: ClassR, major: majR, funct: 6},
	OpSrl:  {name: "srl", syn: "dst", class: ClassR, major: majR, funct: 7},
	OpSra:  {name: "sra", syn: "dst", class: ClassR, major: majR, funct: 8},
	OpSlt:  {name: "slt", syn: "dst", class: ClassR, major: majR, funct: 9},
	OpSltu: {name: "sltu", syn: "dst", class: ClassR, major: majR, funct: 10},
	OpMul:  {name: "mul", syn: "dst", class: ClassR, major: majR, funct: 11},
	OpDiv:  {name: "div", syn: "dst", class: ClassR, major: majR, funct: 12},
	OpRem:  {name: "rem", syn: "dst", class: ClassR, major: majR, funct: 13},

	OpAddi: {name: "addi", syn: "dsi", class: ClassI, major: 2},
	OpAndi: {name: "andi", syn: "dsi", class: ClassI, major: 3},
	OpOri:  {name: "ori", syn: "dsi", class: ClassI, major: 4},
	OpXori: {name: "xori", syn: "dsi", class: ClassI, major: 5},
	OpSlti: {name: "slti", syn: "dsi", class: ClassI, major: 6},
	OpSlli: {name: "slli", syn: "dsi", class: ClassI, major: 7},
	OpSrli: {name: "srli", syn: "dsi", class: ClassI, major: 8},
	OpSrai: {name: "srai", syn: "dsi", class: ClassI, major: 9},
	OpLui:  {name: "lui", syn: "di", class: ClassI, major: 10},

	OpLw:   {name: "lw", syn: "dm", class: ClassI, major: 11, memory: true},
	OpSw:   {name: "sw", syn: "dm", class: ClassI, major: 12, memory: true},
	OpLb:   {name: "lb", syn: "dm", class: ClassI, major: 13, memory: true},
	OpLbu:  {name: "lbu", syn: "dm", class: ClassI, major: 14, memory: true},
	OpSb:   {name: "sb", syn: "dm", class: ClassI, major: 15, memory: true},
	OpSwap: {name: "swap", syn: "dm", class: ClassI, major: 16, memory: true},

	OpBeq:  {name: "beq", syn: "sda", class: ClassI, major: 17},
	OpBne:  {name: "bne", syn: "sda", class: ClassI, major: 18},
	OpBlt:  {name: "blt", syn: "sda", class: ClassI, major: 19},
	OpBge:  {name: "bge", syn: "sda", class: ClassI, major: 20},
	OpBltu: {name: "bltu", syn: "sda", class: ClassI, major: 21},
	OpBgeu: {name: "bgeu", syn: "sda", class: ClassI, major: 22},
	OpJal:  {name: "jal", syn: "a", class: ClassJ, major: 23},
	OpJalr: {name: "jalr", syn: "dsi", class: ClassI, major: 24},

	OpFlw: {name: "flw", syn: "Dm", class: ClassI, major: 25, memory: true},
	OpFsw: {name: "fsw", syn: "Dm", class: ClassI, major: 26, memory: true},

	OpFadd:  {name: "fadd", syn: "DST", class: ClassR, major: majRF, funct: 1},
	OpFsub:  {name: "fsub", syn: "DST", class: ClassR, major: majRF, funct: 2},
	OpFmul:  {name: "fmul", syn: "DST", class: ClassR, major: majRF, funct: 3},
	OpFdiv:  {name: "fdiv", syn: "DST", class: ClassR, major: majRF, funct: 4},
	OpFeq:   {name: "feq", syn: "dST", class: ClassR, major: majRF, funct: 5},
	OpFlt:   {name: "flt", syn: "dST", class: ClassR, major: majRF, funct: 6},
	OpFle:   {name: "fle", syn: "dST", class: ClassR, major: majRF, funct: 7},
	OpCvtWS: {name: "cvtws", syn: "Ds", class: ClassR, major: majRF, funct: 8},
	OpCvtSW: {name: "cvtsw", syn: "dS", class: ClassR, major: majRF, funct: 9},
	OpFmov:  {name: "fmov", syn: "DS", class: ClassR, major: majRF, funct: 10},
	OpFabs:  {name: "fabs", syn: "DS", class: ClassR, major: majRF, funct: 11},
	OpFneg:  {name: "fneg", syn: "DS", class: ClassR, major: majRF, funct: 12},

	OpHalt: {name: "halt", class: ClassJ, major: 62},
	OpNop:  {name: "nop", class: ClassJ, major: 63},
}

// decode tables built at init time.
var (
	rFunct  [2048]Op
	rfFunct [2048]Op
	majorOp [64]Op
)

func init() {
	for op := Op(1); op < numOps; op++ {
		info := opTable[op]
		if info.name == "" {
			continue
		}
		switch {
		case info.class == ClassR && info.major == majR:
			rFunct[info.funct] = op
		case info.class == ClassR && info.major == majRF:
			rfFunct[info.funct] = op
		default:
			majorOp[info.major] = op
		}
	}
}

// Name returns the mnemonic of op.
func (op Op) Name() string {
	if op < numOps && opTable[op].name != "" {
		return opTable[op].name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// String implements fmt.Stringer.
func (op Op) String() string { return op.Name() }

// Syntax returns op's operand-syntax letters, one per operand.
func (op Op) Syntax() string {
	if op < numOps {
		return opTable[op].syn
	}
	return ""
}

// Reg returns the register field that syntax letter c (either case)
// names.
func (in *Instr) Reg(c byte) *uint8 {
	switch c | 0x20 {
	case SynRd:
		return &in.Rd
	case SynRs1:
		return &in.Rs1
	}
	return &in.Rs2
}

// IsMemory reports whether op accesses data memory.
func (op Op) IsMemory() bool { return op < numOps && opTable[op].memory }

// Class returns the encoding class of op.
func (op Op) Class() Class {
	if op < numOps {
		return opTable[op].class
	}
	return ClassJ
}

// OpByName returns the operation with the given mnemonic.
func OpByName(name string) (Op, bool) {
	for op := Op(1); op < numOps; op++ {
		if opTable[op].name == name {
			return op, true
		}
	}
	return OpInvalid, false
}
