package isa

// This file is the pre-decode pass: it lowers a Program into a cached
// []DecodedOp once, so the cycle loops of the machine-class simulators
// dispatch on an already-widened, already-classified struct instead of
// re-deriving operand widths, branch targets and op classes from the
// Instruction on every executed cycle. machine.Compile lowers it further
// into threaded code, and the simulators' schedulers read its class flags.

// Decoded-op class flags, precomputed once per instruction at lowering
// time. They mirror Op.IsALU/IsBranch/IsMemory/IsComm so the per-cycle
// dispatch is one bit test instead of a switch.
const (
	// DecALU marks an op that counts as an ALU operation in machine.Stats.
	DecALU uint8 = 1 << iota
	// DecBranch marks an op that may change the program counter.
	DecBranch
	// DecMem marks an op that traverses the DP-DM switch.
	DecMem
	// DecComm marks an op that traverses the DP-DP network.
	DecComm
)

// DecodedOp is one pre-decoded instruction: the Instruction fields plus
// everything the hot step loop would otherwise recompute every cycle — the
// immediate widened to a machine Word, the absolute branch target, and the
// op-class flags.
type DecodedOp struct {
	// Op, Rd, Ra, Rb mirror the Instruction fields.
	Op         Op
	Rd, Ra, Rb uint8
	// Flags holds the Dec* op-class bits.
	Flags uint8
	// Imm is the immediate widened to a machine word once, so ALU and
	// memory ops skip the per-cycle int32 conversion.
	Imm Word
	// Target is the absolute taken-branch target (pc + 1 + Imm),
	// precomputed for branch ops; 0 otherwise.
	Target int32
}

// IsALU reports whether the op counts as an ALU operation in run stats.
func (d *DecodedOp) IsALU() bool { return d.Flags&DecALU != 0 }

// IsBranch reports whether the op may change the program counter.
func (d *DecodedOp) IsBranch() bool { return d.Flags&DecBranch != 0 }

// IsMemory reports whether the op traverses the DP-DM switch.
func (d *DecodedOp) IsMemory() bool { return d.Flags&DecMem != 0 }

// IsComm reports whether the op traverses the DP-DP network.
func (d *DecodedOp) IsComm() bool { return d.Flags&DecComm != 0 }

// Instruction reconstructs the original instruction (for disassembly and
// debug callbacks; the hot path never needs it).
func (d *DecodedOp) Instruction() Instruction {
	return Instruction{Op: d.Op, Rd: d.Rd, Ra: d.Ra, Rb: d.Rb, Imm: int32(d.Imm)}
}

// DecodedProgram is the lowered form of one instruction memory, produced by
// Predecode and cached by the simulators for the lifetime of a machine.
type DecodedProgram []DecodedOp

// DecodeOp lowers one instruction at the given program counter.
func DecodeOp(pc int, ins Instruction) DecodedOp {
	d := DecodedOp{
		Op:  ins.Op,
		Rd:  ins.Rd,
		Ra:  ins.Ra,
		Rb:  ins.Rb,
		Imm: Word(ins.Imm),
	}
	if ins.Op.IsALU() {
		d.Flags |= DecALU
	}
	if ins.Op.IsBranch() {
		d.Flags |= DecBranch
		d.Target = int32(pc) + 1 + ins.Imm
	}
	if ins.Op.IsMemory() {
		d.Flags |= DecMem
	}
	if ins.Op.IsComm() {
		d.Flags |= DecComm
	}
	return d
}

// Predecode lowers a whole program. The caller is expected to have
// validated the program (branch targets inside, registers in range); the
// simulators all do so at construction, which is also where they cache the
// result so every executed cycle reuses it.
func Predecode(p Program) DecodedProgram {
	dec := make(DecodedProgram, len(p))
	for pc, ins := range p {
		dec[pc] = DecodeOp(pc, ins)
	}
	return dec
}
