package isa

import "fmt"

// Field ranges of the 32-bit encodings.
const (
	immIBits = 16
	immJBits = 26
	// ImmIMin..ImmIMax is the representable I-type immediate range.
	ImmIMin = -(1 << (immIBits - 1))
	ImmIMax = 1<<(immIBits-1) - 1
	// ImmJMin..ImmJMax is the representable J-type immediate range.
	ImmJMin = -(1 << (immJBits - 1))
	ImmJMax = 1<<(immJBits-1) - 1
)

// Encode packs an instruction into its 32-bit machine word. It returns
// an error when a register index or immediate does not fit its field.
func Encode(in Instr) (uint32, error) {
	if in.Op == OpInvalid || in.Op >= numOps || opTable[in.Op].name == "" {
		return 0, fmt.Errorf("isa: encode: invalid op %d", in.Op)
	}
	if in.Rd > 31 || in.Rs1 > 31 || in.Rs2 > 31 {
		return 0, fmt.Errorf("isa: encode %s: register index out of range", in.Op)
	}
	info := opTable[in.Op]
	w := uint32(info.major) << 26
	switch info.class {
	case ClassR:
		w |= uint32(in.Rd) << 21
		w |= uint32(in.Rs1) << 16
		w |= uint32(in.Rs2) << 11
		w |= uint32(info.funct) & 0x7ff
	case ClassI:
		if in.Imm < ImmIMin || in.Imm > ImmIMax {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 16-bit range", in.Op, in.Imm)
		}
		w |= uint32(in.Rd) << 21
		w |= uint32(in.Rs1) << 16
		w |= uint32(uint16(in.Imm))
	case ClassJ:
		if in.Imm < ImmJMin || in.Imm > ImmJMax {
			return 0, fmt.Errorf("isa: encode %s: immediate %d out of 26-bit range", in.Op, in.Imm)
		}
		w |= uint32(in.Imm) & ((1 << immJBits) - 1)
	}
	return w, nil
}

// Decode unpacks a 32-bit machine word. Unknown encodings decode to an
// Instr with Op == OpInvalid rather than an error, so the CPU can treat
// them as an illegal-instruction condition; Imm then carries the word
// for the diagnostic.
func Decode(w uint32) Instr {
	major := uint8(w >> 26)
	op := majorOp[major]
	switch major {
	case majR:
		op = rFunct[w&0x7ff]
	case majRF:
		op = rfFunct[w&0x7ff]
	}
	if op == OpInvalid {
		return Instr{Op: OpInvalid, Imm: int32(w)}
	}
	in := Instr{Op: op, Rd: uint8(w >> 21 & 31), Rs1: uint8(w >> 16 & 31)}
	switch opTable[op].class {
	case ClassR:
		in.Rs2 = uint8(w >> 11 & 31)
	case ClassI:
		in.Imm = int32(int16(w & 0xffff))
	default: // ClassJ
		return Instr{Op: op, Imm: int32(w<<6) >> 6} // sign-extend 26 bits
	}
	return in
}
