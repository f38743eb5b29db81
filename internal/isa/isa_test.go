package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// AllOps returns every defined operation.
func AllOps() []Op {
	out := make([]Op, 0, int(numOps)-1)
	for op := Op(1); op < numOps; op++ {
		if opTable[op].name != "" {
			out = append(out, op)
		}
	}
	return out
}

// Canonical returns in with fields not used by its encoding class
// cleared, so that Decode(mustEncode(in)) == Canonical(in) holds for
// every encodable instruction.
func Canonical(in Instr) Instr {
	if in.Op == OpInvalid || in.Op >= numOps {
		return Instr{Op: OpInvalid}
	}
	switch opTable[in.Op].class {
	case ClassR:
		in.Imm = 0
	case ClassI:
		in.Rs2 = 0
	case ClassJ:
		in.Rd, in.Rs1, in.Rs2 = 0, 0, 0
	}
	return in
}

func TestEncodeDecodeRoundTripAllOps(t *testing.T) {
	for _, op := range AllOps() {
		in := Instr{Op: op, Rd: 5, Rs1: 7, Rs2: 9, Imm: -12}
		in = Canonical(in)
		w, err := Encode(in)
		if err != nil {
			t.Fatalf("%v: encode: %v", op, err)
		}
		got := Decode(w)
		if got != in {
			t.Fatalf("%v: roundtrip %+v -> %#08x -> %+v", op, in, w, got)
		}
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	ops := AllOps()
	f := func(opIdx uint16, rd, rs1, rs2 uint8, imm int32) bool {
		in := Instr{
			Op:  ops[int(opIdx)%len(ops)],
			Rd:  rd % 32,
			Rs1: rs1 % 32,
			Rs2: rs2 % 32,
		}
		switch in.Op.Class() {
		case ClassI:
			in.Imm = imm % (ImmIMax + 1)
		case ClassJ:
			in.Imm = imm % (ImmJMax + 1)
		}
		in = Canonical(in)
		w, err := Encode(in)
		if err != nil {
			return false
		}
		return Decode(w) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsProperty(t *testing.T) {
	// Every 32-bit word must decode to something (possibly OpInvalid)
	// without panicking, and valid decodes must re-encode to an
	// equivalent instruction.
	f := func(w uint32) bool {
		in := Decode(w)
		if in.Op == OpInvalid {
			return true
		}
		w2, err := Encode(in)
		if err != nil {
			return false
		}
		return Decode(w2) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsOutOfRange(t *testing.T) {
	cases := []Instr{
		{Op: OpAddi, Rd: 1, Imm: ImmIMax + 1},
		{Op: OpAddi, Rd: 1, Imm: ImmIMin - 1},
		{Op: OpJal, Imm: ImmJMax + 1},
		{Op: OpAdd, Rd: 32},
		{Op: OpAdd, Rs1: 99},
		{Op: OpInvalid},
	}
	for _, in := range cases {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", in)
		}
	}
}

func TestOpByNameCoversAllOps(t *testing.T) {
	for _, op := range AllOps() {
		got, ok := OpByName(op.Name())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v", op.Name(), got, ok)
		}
	}
	if _, ok := OpByName("bogus"); ok {
		t.Error("OpByName accepted a bogus mnemonic")
	}
}

func TestOpClassFlags(t *testing.T) {
	cases := []struct {
		op     Op
		memory bool
	}{
		{OpLw, true},
		{OpSw, true},
		{OpSwap, true},
		{OpFlw, true},
		{OpFsw, true},
		{OpBeq, false},
		{OpJal, false},
		{OpJalr, false},
		{OpAdd, false},
		{OpHalt, false},
	}
	for _, c := range cases {
		if c.op.IsMemory() != c.memory {
			t.Errorf("%v.IsMemory() = %v", c.op, c.op.IsMemory())
		}
	}
}

func TestImmediateSignExtension(t *testing.T) {
	w := mustEncode(Instr{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -1})
	if got := Decode(w); got.Imm != -1 {
		t.Fatalf("imm decoded to %d, want -1", got.Imm)
	}
	w = mustEncode(Instr{Op: OpJal, Imm: -100})
	if got := Decode(w); got.Imm != -100 {
		t.Fatalf("jal imm decoded to %d, want -100", got.Imm)
	}
}

func TestDisasmMentionsOperands(t *testing.T) {
	cases := []struct {
		in   Instr
		want []string
	}{
		{Instr{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, []string{"add", "r1", "r2", "r3"}},
		{Instr{Op: OpLw, Rd: 4, Rs1: 29, Imm: 16}, []string{"lw", "r4", "16(r29)"}},
		{Instr{Op: OpFadd, Rd: 1, Rs1: 2, Rs2: 3}, []string{"fadd", "f1", "f2", "f3"}},
		{Instr{Op: OpBeq, Rs1: 1, Rd: 2, Imm: 4}, []string{"beq", "r1", "r2"}},
		{Instr{Op: OpHalt}, []string{"halt"}},
		{Instr{Op: OpInvalid}, []string{"invalid"}},
	}
	for _, c := range cases {
		s := Disasm(c.in, 0x1000)
		for _, want := range c.want {
			if !strings.Contains(s, want) {
				t.Errorf("Disasm(%+v) = %q, missing %q", c.in, s, want)
			}
		}
	}
}

func TestDisasmRandomValidWordsNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		w := rng.Uint32()
		in := Decode(w)
		_ = Disasm(in, rng.Uint32()&^3)
	}
}

func TestCanonicalClearsUnusedFields(t *testing.T) {
	in := Canonical(Instr{Op: OpHalt, Rd: 3, Rs1: 4, Rs2: 5, Imm: 6})
	if in.Rd != 0 || in.Rs1 != 0 || in.Rs2 != 0 {
		t.Fatalf("J-type canonical kept register fields: %+v", in)
	}
	in = Canonical(Instr{Op: OpAdd, Rd: 3, Imm: 6})
	if in.Imm != 0 {
		t.Fatalf("R-type canonical kept immediate: %+v", in)
	}
	in = Canonical(Instr{Op: OpAddi, Rd: 3, Rs2: 9, Imm: 6})
	if in.Rs2 != 0 {
		t.Fatalf("I-type canonical kept rs2: %+v", in)
	}
}

// TestSyntaxNamesOnlyEncodedFields checks the operand-syntax table
// against the encodings: every letter fills a field of its own that the
// op's class encodes (Canonical keeps it), so no written operand is
// silently dropped, and only halt and nop take no operands.
func TestSyntaxNamesOnlyEncodedFields(t *testing.T) {
	for _, op := range AllOps() {
		in := Instr{Op: op}
		fill := func(field *uint8) {
			if *field != 0 {
				t.Errorf("%v: syntax %q names a register field twice", op, op.Syntax())
			}
			*field = 1
		}
		for _, c := range []byte(op.Syntax()) {
			switch c {
			case SynImm, SynAddr:
				in.Imm++
			case SynMem:
				in.Imm++
				fill(&in.Rs1)
			case SynRd, SynRs1, SynRs2, SynFd, SynFs1, SynFs2:
				fill(in.Reg(c))
			default:
				t.Errorf("%v: unknown syntax letter %q", op, c)
			}
		}
		if in.Imm > 1 || Canonical(in) != in {
			t.Errorf("%v: syntax %q names a field class %d does not encode (or the immediate twice)", op, op.Syntax(), op.Class())
		}
		if empty := op == OpHalt || op == OpNop; (op.Syntax() == "") != empty {
			t.Errorf("%v: syntax %q", op, op.Syntax())
		}
	}
}

// mustEncode encodes an instruction the test built to be encodable.
func mustEncode(in Instr) uint32 {
	w, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
