package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecode_RoundTripAllOps(t *testing.T) {
	for op := Op(0); op < opCount; op++ {
		if !op.Valid() {
			continue
		}
		ins := Instruction{Op: op, Rd: 3, Ra: 7, Rb: 15, Imm: -12345}
		w, err := Encode(ins)
		if err != nil {
			t.Errorf("Encode(%s): %v", op, err)
			continue
		}
		back, err := Decode(w)
		if err != nil {
			t.Errorf("Decode(%s): %v", op, err)
			continue
		}
		if back != ins {
			t.Errorf("round trip %s: got %+v, want %+v", op, back, ins)
		}
	}
}

func TestEncodeDecode_Property(t *testing.T) {
	f := func(opSel uint8, rd, ra, rb uint8, imm int32) bool {
		op := Op(opSel % uint8(opCount))
		if !op.Valid() {
			return true
		}
		ins := Instruction{Op: op, Rd: rd % NumRegs, Ra: ra % NumRegs, Rb: rb % NumRegs, Imm: imm}
		w, err := Encode(ins)
		if err != nil {
			return false
		}
		back, err := Decode(w)
		return err == nil && back == ins
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecode_RejectsBadWords(t *testing.T) {
	if _, err := Decode(uint64(opCount)); err == nil {
		t.Error("invalid opcode decoded")
	}
	if _, err := Decode(0xFF); err == nil {
		t.Error("opcode 255 decoded")
	}
}

func TestValidate_RejectsBadRegisters(t *testing.T) {
	bad := Instruction{Op: OpAdd, Rd: 16}
	if err := bad.Validate(); err == nil {
		t.Error("rd=16 accepted")
	}
	bad = Instruction{Op: OpAdd, Ra: 200}
	if err := bad.Validate(); err == nil {
		t.Error("ra=200 accepted")
	}
	bad = Instruction{Op: OpAdd, Rb: 16}
	if err := bad.Validate(); err == nil {
		t.Error("rb=16 accepted")
	}
	// st does not use Rd, so a large Rd value is simply unused — but our
	// encoding masks to 4 bits, so Validate only checks used fields.
	ok := Instruction{Op: OpSt, Ra: 1, Rb: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid st rejected: %v", err)
	}
}

func TestProgramValidate_BranchBounds(t *testing.T) {
	good := Program{
		{Op: OpLdi, Rd: 1, Imm: 5},
		{Op: OpBeq, Ra: 1, Rb: 1, Imm: -2}, // back to 0
		{Op: OpHalt},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
	bad := Program{{Op: OpJmp, Imm: 5}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range jump accepted")
	}
	bad = Program{{Op: OpJmp, Imm: -2}}
	if err := bad.Validate(); err == nil {
		t.Error("before-start jump accepted")
	}
	// A branch to exactly len(p) (falling off the end) is permitted: it
	// halts the processor like running past the last instruction.
	edge := Program{{Op: OpJmp, Imm: 0}}
	if err := edge.Validate(); err != nil {
		t.Errorf("fall-through jump rejected: %v", err)
	}
}

const sampleProgram = `
; sum the integers 1..5 into r2
        ldi  r1, 5        ; counter
        ldi  r2, 0        ; accumulator
        ldi  r3, 0        ; zero
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r3, loop
        st   r2, [r3+0]
        halt
`

func TestAssemble_Sample(t *testing.T) {
	p, err := Assemble(sampleProgram)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(p) != 8 {
		t.Fatalf("program has %d instructions, want 8", len(p))
	}
	if p[5].Op != OpBne || p[5].Imm != -3 {
		t.Errorf("branch assembled as %+v, want bne with displacement -3", p[5])
	}
	if p[6].Op != OpSt || p[6].Rb != 2 || p[6].Ra != 3 || p[6].Imm != 0 {
		t.Errorf("store assembled as %+v", p[6])
	}
}

func TestAssemble_AllSyntaxForms(t *testing.T) {
	src := `
start:
  nop
  ldi r1, 0x10
  mov r2, r1
  add r3, r1, r2
  addi r4, r3, -7
  muli r5, r4, 3
  ld r6, [r1+4]
  ld r7, [r1]
  st r6, [r1-4]
  beq r1, r2, start
  bne r1, r2, +1
  blt r1, r2, -3
  bge r1, r2, end
  jmp end
  send r1, r2
  recv r3, r2
  sync
  lane r8
end:
  halt
`
	p, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p[1].Imm != 16 {
		t.Errorf("hex immediate parsed as %d", p[1].Imm)
	}
	if p[7].Imm != 0 {
		t.Errorf("[r1] offset = %d, want 0", p[7].Imm)
	}
	if p[8].Imm != -4 {
		t.Errorf("[r1-4] offset = %d, want -4", p[8].Imm)
	}
	// Round-trip through the disassembler and a re-assembly.
	text := Disassemble(p)
	if !strings.Contains(text, "ld r6, [r1+4]") || !strings.Contains(text, "st r6, [r1-4]") {
		t.Errorf("disassembly missing memory forms:\n%s", text)
	}
}

func TestAssemble_DisassembleReassembleFixpoint(t *testing.T) {
	p := MustAssemble(sampleProgram)
	text := Disassemble(p)
	// Strip the "pc: " prefixes to get assemblable text.
	var clean []string
	for _, line := range strings.Split(text, "\n") {
		if i := strings.Index(line, ":  "); i >= 0 {
			line = line[i+3:]
		}
		clean = append(clean, line)
	}
	p2, err := Assemble(strings.Join(clean, "\n"))
	if err != nil {
		t.Fatalf("reassembly: %v", err)
	}
	if len(p2) != len(p) {
		t.Fatalf("reassembly length %d, want %d", len(p2), len(p))
	}
	for i := range p {
		if p[i] != p2[i] {
			t.Errorf("instruction %d changed: %+v -> %+v", i, p[i], p2[i])
		}
	}
}

func TestAssemble_Errors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":   "frobnicate r1",
		"bad register":       "ldi r99, 1",
		"bad register name":  "mov rx, r1",
		"too few operands":   "add r1, r2",
		"too many operands":  "nop r1",
		"bad immediate":      "ldi r1, abc!",
		"undefined label":    "jmp nowhere",
		"duplicate label":    "a:\na:\nnop",
		"bad label":          "9lives: nop",
		"bad memory operand": "ld r1, r2",
		"bad memory base":    "ld r1, [x+1]",
		"bad branch target":  "beq r1, r2, 1.5",
		"bad jump target":    "jmp 1.5",
	}
	for name, src := range cases {
		if p, err := Assemble(src); err == nil {
			t.Errorf("%s: assembled %v, want error", name, p)
		}
	}
}

func TestEncodeProgram_RoundTrip(t *testing.T) {
	p := MustAssemble(sampleProgram)
	words, err := EncodeProgram(p)
	if err != nil {
		t.Fatalf("EncodeProgram: %v", err)
	}
	back, err := DecodeProgram(words)
	if err != nil {
		t.Fatalf("DecodeProgram: %v", err)
	}
	for i := range p {
		if p[i] != back[i] {
			t.Errorf("instruction %d: %+v -> %+v", i, p[i], back[i])
		}
	}
	words[0] = 0xFF
	if _, err := DecodeProgram(words); err == nil {
		t.Error("corrupted word decoded")
	}
	badProg := Program{{Op: OpJmp, Imm: 100}}
	if _, err := EncodeProgram(badProg); err == nil {
		t.Error("invalid program encoded")
	}
}

func TestOpPredicates(t *testing.T) {
	if !OpBeq.IsBranch() || !OpJmp.IsBranch() || OpAdd.IsBranch() {
		t.Error("IsBranch wrong")
	}
	if !OpLd.IsMemory() || !OpSt.IsMemory() || OpAdd.IsMemory() {
		t.Error("IsMemory wrong")
	}
	if !OpSend.IsComm() || !OpRecv.IsComm() || OpSync.IsComm() {
		t.Error("IsComm wrong")
	}
	if OpNop.String() != "nop" || OpHalt.String() != "halt" {
		t.Error("op names wrong")
	}
	if Op(200).Valid() {
		t.Error("op 200 valid")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Error("invalid op string")
	}
}

func TestInstructionString_InvalidOp(t *testing.T) {
	s := Instruction{Op: Op(200)}.String()
	if !strings.HasPrefix(s, ".word") {
		t.Errorf("invalid instruction prints %q", s)
	}
}

func TestMustAssemble_Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bogus r1")
}

// TestProgramKey: the key is eight bytes per instruction, equal for equal
// content whatever slice holds it, and different when any field of any
// instruction differs, out-of-range registers included.
func TestProgramKey(t *testing.T) {
	p := Program{{Op: OpAddi, Rd: 1, Ra: 2, Imm: -3}, {Op: OpSt, Ra: 4, Rb: 5, Imm: 1 << 20}, {Op: OpHalt}}
	if k := p.Key(); len(k) != 8*len(p) || k != append(Program(nil), p...).Key() {
		t.Fatalf("key of %d bytes, or unequal for an equal copy", len(k))
	}
	if (Program{}).Key() != "" {
		t.Error("the empty program has a non-empty key")
	}
	for _, change := range []func(*Instruction){
		func(i *Instruction) { i.Op = OpMuli },
		func(i *Instruction) { i.Rd = 17 },
		func(i *Instruction) { i.Ra = 3 },
		func(i *Instruction) { i.Rb = 9 },
		func(i *Instruction) { i.Imm = -4 },
		func(i *Instruction) { i.Imm ^= -1 << 31 },
	} {
		q := append(Program(nil), p...)
		change(&q[0])
		if q.Key() == p.Key() {
			t.Errorf("changing %+v to %+v kept the key", p[0], q[0])
		}
	}
	if p[:2].Key() == p.Key() {
		t.Error("a prefix shares the program's key")
	}
}
