// Package isa defines SR32, the small SPARC-flavoured 32-bit RISC
// instruction set executed by the simulated processors.
//
// The paper's platforms use SPARC-V8 cores with an FPU; for the purposes
// of the write-policy study the processor only matters as a generator of
// dependent load/store/atomic streams, so SR32 keeps the essentials:
// 32 integer registers (r0 hardwired to zero), 32 single-precision float
// registers, word loads and stores, an atomic SWAP (the SPARC
// synchronization primitive the runtime's spin-locks are built on),
// branches, jump-and-link, and a small FPU. It holds exactly the
// operations codegen.Builder emits: an op no workload can produce is not
// an op of the machine.
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
	OpOr
	OpMul

	// Integer register-immediate ALU.
	OpAddi
	OpAndi
	OpOri
	OpSlli
	OpLui

	// Memory.
	OpLw
	OpSw
	OpSwap // atomic: rd <-> mem32[rs1+imm]

	// Control flow.
	OpBeq
	OpBne
	OpBge
	OpJal
	OpJalr

	// Floating point (single precision).
	OpFlw
	OpFsw
	OpFadd
	OpFsub
	OpFmul
	OpFdiv
	OpCvtWS // f(rd) = float(r(rs1))
	OpCvtSW // r(rd) = int(f(rs1))

	// System.
	OpHalt

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

// opInfo describes one operation's encoding.
type opInfo struct {
	name   string
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
	OpAdd: {name: "add", class: ClassR, major: majR, funct: 1},
	OpSub: {name: "sub", class: ClassR, major: majR, funct: 2},
	OpOr:  {name: "or", class: ClassR, major: majR, funct: 4},
	OpMul: {name: "mul", class: ClassR, major: majR, funct: 11},

	OpAddi: {name: "addi", class: ClassI, major: 2},
	OpAndi: {name: "andi", class: ClassI, major: 3},
	OpOri:  {name: "ori", class: ClassI, major: 4},
	OpSlli: {name: "slli", class: ClassI, major: 7},
	OpLui:  {name: "lui", class: ClassI, major: 10},

	OpLw:   {name: "lw", class: ClassI, major: 11, memory: true},
	OpSw:   {name: "sw", class: ClassI, major: 12, memory: true},
	OpSwap: {name: "swap", class: ClassI, major: 16, memory: true},

	OpBeq:  {name: "beq", class: ClassI, major: 17},
	OpBne:  {name: "bne", class: ClassI, major: 18},
	OpBge:  {name: "bge", class: ClassI, major: 20},
	OpJal:  {name: "jal", class: ClassJ, major: 23},
	OpJalr: {name: "jalr", class: ClassI, major: 24},

	OpFlw: {name: "flw", class: ClassI, major: 25, memory: true},
	OpFsw: {name: "fsw", class: ClassI, major: 26, memory: true},

	OpFadd:  {name: "fadd", class: ClassR, major: majRF, funct: 1},
	OpFsub:  {name: "fsub", class: ClassR, major: majRF, funct: 2},
	OpFmul:  {name: "fmul", class: ClassR, major: majRF, funct: 3},
	OpFdiv:  {name: "fdiv", class: ClassR, major: majRF, funct: 4},
	OpCvtWS: {name: "cvtws", class: ClassR, major: majRF, funct: 8},
	OpCvtSW: {name: "cvtsw", class: ClassR, major: majRF, funct: 9},

	OpHalt: {name: "halt", class: ClassJ, major: 62},
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

// IsMemory reports whether op accesses data memory.
func (op Op) IsMemory() bool { return op < numOps && opTable[op].memory }
