// Package isa defines the miniature RISC instruction set shared by the
// machine-class simulators (internal/uniproc, internal/simd, internal/mimd,
// internal/spatial). It provides the instruction format, a binary encoding
// (so instruction memories hold realistic words and configuration sizes can
// be counted), an assembler for a small textual syntax, and a disassembler.
//
// The ISA is deliberately small — a register machine with 16 general
// registers, ALU operations, loads/stores, branches, and the inter-processor
// SEND/RECV/SYNC primitives the taxonomy's DP-DP networks carry — but it is
// complete enough to express the workload kernels of internal/workload on
// every machine class.
package isa

import "fmt"

// Word is the machine word of the simulated architectures.
type Word = int64

// NumRegs is the number of general-purpose registers per data processor.
const NumRegs = 16

// Op is an operation code.
type Op uint8

// Operation codes. The groups matter to the simulators: ALU ops execute in
// the data processor, memory ops traverse the DP-DM switch, communication
// ops traverse the DP-DP network, and control ops execute in the
// instruction processor.
const (
	// OpNop does nothing for one cycle.
	OpNop Op = iota
	// OpHalt stops the processor.
	OpHalt

	// OpLdi loads the immediate into Rd.
	OpLdi
	// OpMov copies Ra into Rd.
	OpMov

	// ALU register-register operations: Rd = Ra <op> Rb.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// OpSlt sets Rd to 1 if Ra < Rb, else 0.
	OpSlt
	// OpSeq sets Rd to 1 if Ra == Rb, else 0.
	OpSeq
	// OpMin and OpMax compute the minimum/maximum of Ra and Rb.
	OpMin
	OpMax

	// OpAddi adds the immediate: Rd = Ra + Imm.
	OpAddi
	// OpMuli multiplies by the immediate: Rd = Ra * Imm.
	OpMuli

	// OpLd loads Rd from data memory at address Ra+Imm.
	OpLd
	// OpSt stores Rb to data memory at address Ra+Imm.
	OpSt

	// OpBeq/OpBne/OpBlt/OpBge branch by Imm (relative to the next
	// instruction) when Ra == / != / < / >= Rb.
	OpBeq
	OpBne
	OpBlt
	OpBge
	// OpJmp branches unconditionally by Imm.
	OpJmp

	// OpSend transmits Ra over the DP-DP network to the processor (or lane)
	// whose index is in Rb.
	OpSend
	// OpRecv blocks until a value arrives from processor/lane Rb and loads
	// it into Rd.
	OpRecv
	// OpSync blocks at a barrier until every participating processor
	// reaches it. Only meaningful on multi-processor machines.
	OpSync
	// OpLane loads the processor/lane index into Rd; 0 on uni-processors.
	OpLane

	opCount // sentinel; keep last
)

// opInfo describes assembler syntax and operand usage per op.
type opInfo struct {
	name string
	// operand shape: which fields the op uses.
	usesRd, usesRa, usesRb, usesImm, mem bool
}

var opTable = [opCount]opInfo{
	OpNop:  {name: "nop"},
	OpHalt: {name: "halt"},
	OpLdi:  {name: "ldi", usesRd: true, usesImm: true},
	OpMov:  {name: "mov", usesRd: true, usesRa: true},
	OpAdd:  {name: "add", usesRd: true, usesRa: true, usesRb: true},
	OpSub:  {name: "sub", usesRd: true, usesRa: true, usesRb: true},
	OpMul:  {name: "mul", usesRd: true, usesRa: true, usesRb: true},
	OpDiv:  {name: "div", usesRd: true, usesRa: true, usesRb: true},
	OpRem:  {name: "rem", usesRd: true, usesRa: true, usesRb: true},
	OpAnd:  {name: "and", usesRd: true, usesRa: true, usesRb: true},
	OpOr:   {name: "or", usesRd: true, usesRa: true, usesRb: true},
	OpXor:  {name: "xor", usesRd: true, usesRa: true, usesRb: true},
	OpShl:  {name: "shl", usesRd: true, usesRa: true, usesRb: true},
	OpShr:  {name: "shr", usesRd: true, usesRa: true, usesRb: true},
	OpSlt:  {name: "slt", usesRd: true, usesRa: true, usesRb: true},
	OpSeq:  {name: "seq", usesRd: true, usesRa: true, usesRb: true},
	OpMin:  {name: "min", usesRd: true, usesRa: true, usesRb: true},
	OpMax:  {name: "max", usesRd: true, usesRa: true, usesRb: true},
	OpAddi: {name: "addi", usesRd: true, usesRa: true, usesImm: true},
	OpMuli: {name: "muli", usesRd: true, usesRa: true, usesImm: true},
	OpLd:   {name: "ld", usesRd: true, usesRa: true, usesImm: true, mem: true},
	OpSt:   {name: "st", usesRb: true, usesRa: true, usesImm: true, mem: true},
	OpBeq:  {name: "beq", usesRa: true, usesRb: true, usesImm: true},
	OpBne:  {name: "bne", usesRa: true, usesRb: true, usesImm: true},
	OpBlt:  {name: "blt", usesRa: true, usesRb: true, usesImm: true},
	OpBge:  {name: "bge", usesRa: true, usesRb: true, usesImm: true},
	OpJmp:  {name: "jmp", usesImm: true},
	OpSend: {name: "send", usesRa: true, usesRb: true},
	OpRecv: {name: "recv", usesRd: true, usesRb: true},
	OpSync: {name: "sync"},
	OpLane: {name: "lane", usesRd: true},
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return int(o) < int(opCount) && opTable[o].name != "" }

// IsBranch reports whether the op may change the program counter.
func (o Op) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp:
		return true
	default:
		return false
	}
}

// IsALU reports whether the op is an arithmetic/logic operation executed
// in the data processor (the class machine.Stats counts as ALUOps).
func (o Op) IsALU() bool {
	switch o {
	case OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpSlt, OpSeq, OpMin, OpMax, OpAddi, OpMuli:
		return true
	default:
		return false
	}
}

// IsMemory reports whether the op traverses the DP-DM switch.
func (o Op) IsMemory() bool { return o == OpLd || o == OpSt }

// WritesRd reports whether the op writes its Rd field. Rd is always a
// destination when an op uses it, so this doubles as the def-set oracle for
// dataflow analyses.
func (o Op) WritesRd() bool { return o.Valid() && opTable[o].usesRd }

// ReadsRa reports whether the op reads Ra as a source (or address base).
func (o Op) ReadsRa() bool { return o.Valid() && opTable[o].usesRa }

// ReadsRb reports whether the op reads Rb as a source (store data, second
// operand, or peer index).
func (o Op) ReadsRb() bool { return o.Valid() && opTable[o].usesRb }

// UsesImm reports whether the op consumes its immediate field.
func (o Op) UsesImm() bool { return o.Valid() && opTable[o].usesImm }

// IsComm reports whether the op traverses the DP-DP network.
func (o Op) IsComm() bool { return o == OpSend || o == OpRecv }

// Instruction is one decoded instruction.
type Instruction struct {
	Op  Op
	Rd  uint8 // destination register
	Ra  uint8 // first source register / address base
	Rb  uint8 // second source register / store data / peer index
	Imm int32 // immediate / branch displacement / address offset
}

// Validate checks register indices and op validity.
func (ins Instruction) Validate() error {
	if !ins.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", uint8(ins.Op))
	}
	info := opTable[ins.Op]
	if info.usesRd && ins.Rd >= NumRegs {
		return fmt.Errorf("isa: %s: destination register r%d out of range", info.name, ins.Rd)
	}
	if info.usesRa && ins.Ra >= NumRegs {
		return fmt.Errorf("isa: %s: source register r%d out of range", info.name, ins.Ra)
	}
	if info.usesRb && ins.Rb >= NumRegs {
		return fmt.Errorf("isa: %s: source register r%d out of range", info.name, ins.Rb)
	}
	return nil
}

// String disassembles the instruction.
func (ins Instruction) String() string {
	if !ins.Op.Valid() {
		return fmt.Sprintf(".word %#x", EncodeRaw(ins))
	}
	info := opTable[ins.Op]
	switch {
	case ins.Op == OpLd:
		return fmt.Sprintf("ld r%d, [r%d%+d]", ins.Rd, ins.Ra, ins.Imm)
	case ins.Op == OpSt:
		return fmt.Sprintf("st r%d, [r%d%+d]", ins.Rb, ins.Ra, ins.Imm)
	case ins.Op == OpJmp:
		return fmt.Sprintf("jmp %+d", ins.Imm)
	case ins.Op.IsBranch():
		return fmt.Sprintf("%s r%d, r%d, %+d", info.name, ins.Ra, ins.Rb, ins.Imm)
	case ins.Op == OpSend:
		return fmt.Sprintf("send r%d, r%d", ins.Ra, ins.Rb)
	case ins.Op == OpRecv:
		return fmt.Sprintf("recv r%d, r%d", ins.Rd, ins.Rb)
	case info.usesRd && info.usesRa && info.usesRb:
		return fmt.Sprintf("%s r%d, r%d, r%d", info.name, ins.Rd, ins.Ra, ins.Rb)
	case info.usesRd && info.usesRa && info.usesImm:
		return fmt.Sprintf("%s r%d, r%d, %d", info.name, ins.Rd, ins.Ra, ins.Imm)
	case info.usesRd && info.usesRa:
		return fmt.Sprintf("%s r%d, r%d", info.name, ins.Rd, ins.Ra)
	case info.usesRd && info.usesImm:
		return fmt.Sprintf("%s r%d, %d", info.name, ins.Rd, ins.Imm)
	case info.usesRd:
		return fmt.Sprintf("%s r%d", info.name, ins.Rd)
	default:
		return info.name
	}
}

// Program is a sequence of instructions, the contents of one instruction
// memory.
type Program []Instruction

// Key encodes the program's content exactly, eight bytes per instruction
// (every field in full, unvalidated), so two programs share a key only when
// they are the same instructions. The staging memos key on it.
func (p Program) Key() string {
	b := make([]byte, 0, 8*len(p))
	for _, ins := range p {
		imm := uint32(ins.Imm)
		b = append(b, byte(ins.Op), ins.Rd, ins.Ra, ins.Rb,
			byte(imm), byte(imm>>8), byte(imm>>16), byte(imm>>24))
	}
	return string(b)
}

// Validate checks every instruction and that branch targets stay inside the
// program.
func (p Program) Validate() error {
	for pc, ins := range p {
		if err := ins.Validate(); err != nil {
			return fmt.Errorf("isa: at %d: %w", pc, err)
		}
		if ins.Op.IsBranch() {
			target := pc + 1 + int(ins.Imm)
			if target < 0 || target > len(p) {
				return fmt.Errorf("isa: at %d: branch target %d outside program of length %d", pc, target, len(p))
			}
		}
	}
	return nil
}

// Encode packs the instruction into a 64-bit word:
// bits 0..7 opcode, 8..11 rd, 12..15 ra, 16..19 rb, 32..63 immediate.
func Encode(ins Instruction) (uint64, error) {
	if err := ins.Validate(); err != nil {
		return 0, err
	}
	return EncodeRaw(ins), nil
}

// EncodeRaw packs without validation (for error-message rendering).
func EncodeRaw(ins Instruction) uint64 {
	return uint64(ins.Op) |
		uint64(ins.Rd&0xF)<<8 |
		uint64(ins.Ra&0xF)<<12 |
		uint64(ins.Rb&0xF)<<16 |
		uint64(uint32(ins.Imm))<<32
}

// Decode unpacks a word encoded by Encode.
func Decode(w uint64) (Instruction, error) {
	ins := Instruction{
		Op:  Op(w & 0xFF),
		Rd:  uint8(w >> 8 & 0xF),
		Ra:  uint8(w >> 12 & 0xF),
		Rb:  uint8(w >> 16 & 0xF),
		Imm: int32(uint32(w >> 32)),
	}
	if err := ins.Validate(); err != nil {
		return Instruction{}, err
	}
	return ins, nil
}

// EncodeProgram encodes a whole program into instruction-memory words.
func EncodeProgram(p Program) ([]uint64, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	words := make([]uint64, len(p))
	for i, ins := range p {
		words[i] = EncodeRaw(ins)
	}
	return words, nil
}

// DecodeProgram decodes instruction-memory words back into a program.
func DecodeProgram(words []uint64) (Program, error) {
	p := make(Program, len(words))
	for i, w := range words {
		ins, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("isa: word %d: %w", i, err)
		}
		p[i] = ins
	}
	return p, nil
}
