package isa

import (
	"testing"
	"testing/quick"
)

// AllOps returns every defined operation.
func AllOps() []Op {
	out := make([]Op, 0, int(numOps)-1)
	for op := Op(1); op < numOps; op++ {
		out = append(out, op)
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
		switch opTable[in.Op].class {
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

// mustEncode encodes an instruction the test built to be encodable.
func mustEncode(in Instr) uint32 {
	w, err := Encode(in)
	if err != nil {
		panic(err)
	}
	return w
}
