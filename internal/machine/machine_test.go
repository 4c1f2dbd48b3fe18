package machine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestMemory(t *testing.T) {
	m, err := NewMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Store(3, 42); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load(3)
	if err != nil || v != 42 {
		t.Errorf("Load(3) = (%d, %v)", v, err)
	}
	if _, err := m.Load(-1); err == nil {
		t.Error("negative load accepted")
	}
	if _, err := m.Load(8); err == nil {
		t.Error("out-of-range load accepted")
	}
	if err := m.Store(8, 1); err == nil {
		t.Error("out-of-range store accepted")
	}
	if err := m.CopyIn(6, []isa.Word{1, 2, 3}); err == nil {
		t.Error("overflowing CopyIn accepted")
	}
	if err := m.CopyIn(5, []isa.Word{1, 2, 3}); err != nil {
		t.Errorf("CopyIn: %v", err)
	}
	out, err := m.CopyOut(5, 3)
	if err != nil || out[0] != 1 || out[2] != 3 {
		t.Errorf("CopyOut = (%v, %v)", out, err)
	}
	if _, err := m.CopyOut(7, 2); err == nil {
		t.Error("overflowing CopyOut accepted")
	}
	if _, err := m.CopyOut(0, -1); err == nil {
		t.Error("negative CopyOut accepted")
	}
	if _, err := NewMemory(-1); err == nil {
		t.Error("negative memory size accepted")
	}
}

// step is a helper that runs one instruction on fresh state.
func step(t *testing.T, regsIn Regs, ins isa.Instruction, env Env) (Regs, Outcome) {
	t.Helper()
	regs := regsIn
	out, err := Step(&regs, 10, ins, env)
	if err != nil {
		t.Fatalf("Step(%v): %v", ins, err)
	}
	return regs, out
}

func TestStep_ALUSemantics(t *testing.T) {
	var base Regs
	base[1], base[2] = 7, 3
	cases := []struct {
		op   isa.Op
		want isa.Word
	}{
		{isa.OpAdd, 10}, {isa.OpSub, 4}, {isa.OpMul, 21}, {isa.OpDiv, 2},
		{isa.OpRem, 1}, {isa.OpAnd, 3}, {isa.OpOr, 7}, {isa.OpXor, 4},
		{isa.OpShl, 56}, {isa.OpShr, 0}, {isa.OpSlt, 0}, {isa.OpSeq, 0},
		{isa.OpMin, 3}, {isa.OpMax, 7},
	}
	for _, tc := range cases {
		regs, out := step(t, base, isa.Instruction{Op: tc.op, Rd: 5, Ra: 1, Rb: 2}, Env{})
		if regs[5] != tc.want {
			t.Errorf("%v: r5 = %d, want %d", tc.op, regs[5], tc.want)
		}
		if out.NextPC != 11 || out.Halted || out.Blocked {
			t.Errorf("%v: outcome %+v", tc.op, out)
		}
	}
	regs, _ := step(t, base, isa.Instruction{Op: isa.OpSlt, Rd: 5, Ra: 2, Rb: 1}, Env{})
	if regs[5] != 1 {
		t.Error("slt with a<b should set 1")
	}
	regs, _ = step(t, base, isa.Instruction{Op: isa.OpAddi, Rd: 5, Ra: 1, Imm: -2}, Env{})
	if regs[5] != 5 {
		t.Errorf("addi = %d", regs[5])
	}
	regs, _ = step(t, base, isa.Instruction{Op: isa.OpMuli, Rd: 5, Ra: 1, Imm: 4}, Env{})
	if regs[5] != 28 {
		t.Errorf("muli = %d", regs[5])
	}
	regs, _ = step(t, base, isa.Instruction{Op: isa.OpLdi, Rd: 5, Imm: -9}, Env{})
	if regs[5] != -9 {
		t.Errorf("ldi = %d", regs[5])
	}
	regs, _ = step(t, base, isa.Instruction{Op: isa.OpMov, Rd: 5, Ra: 1}, Env{})
	if regs[5] != 7 {
		t.Errorf("mov = %d", regs[5])
	}
}

func TestStep_DivideByZero(t *testing.T) {
	var regs Regs
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpDiv, Rd: 1, Ra: 2, Rb: 3}, Env{}); err == nil {
		t.Error("div by zero accepted")
	}
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpRem, Rd: 1, Ra: 2, Rb: 3}, Env{}); err == nil {
		t.Error("rem by zero accepted")
	}
}

func TestStep_Branches(t *testing.T) {
	var base Regs
	base[1], base[2] = 5, 5
	cases := []struct {
		op    isa.Op
		ra    isa.Word
		taken bool
	}{
		{isa.OpBeq, 5, true}, {isa.OpBeq, 4, false},
		{isa.OpBne, 5, false}, {isa.OpBne, 4, true},
		{isa.OpBlt, 4, true}, {isa.OpBlt, 5, false},
		{isa.OpBge, 5, true}, {isa.OpBge, 4, false},
	}
	for _, tc := range cases {
		regs := base
		regs[1] = tc.ra
		out, err := Step(&regs, 10, isa.Instruction{Op: tc.op, Ra: 1, Rb: 2, Imm: 5}, Env{})
		if err != nil {
			t.Fatal(err)
		}
		wantPC := 11
		if tc.taken {
			wantPC = 16
		}
		if out.NextPC != wantPC {
			t.Errorf("%v ra=%d: pc %d, want %d", tc.op, tc.ra, out.NextPC, wantPC)
		}
	}
	var regs Regs
	out, err := Step(&regs, 10, isa.Instruction{Op: isa.OpJmp, Imm: -3}, Env{})
	if err != nil || out.NextPC != 8 {
		t.Errorf("jmp: (%+v, %v)", out, err)
	}
}

func TestStep_HaltNopLane(t *testing.T) {
	var regs Regs
	out, err := Step(&regs, 0, isa.Instruction{Op: isa.OpHalt}, Env{})
	if err != nil || !out.Halted {
		t.Errorf("halt: (%+v, %v)", out, err)
	}
	out, err = Step(&regs, 0, isa.Instruction{Op: isa.OpNop}, Env{})
	if err != nil || out.Halted || out.NextPC != 1 {
		t.Errorf("nop: (%+v, %v)", out, err)
	}
	_, err = Step(&regs, 0, isa.Instruction{Op: isa.OpLane, Rd: 4}, Env{Lane: 9})
	if err != nil || regs[4] != 9 {
		t.Errorf("lane: r4=%d err=%v", regs[4], err)
	}
}

func TestStep_MemoryOps(t *testing.T) {
	mem, _ := NewMemory(16)
	env := Env{Load: mem.Load, Store: mem.Store}
	var regs Regs
	regs[1], regs[2] = 4, 99
	out, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSt, Ra: 1, Rb: 2, Imm: 2}, env)
	if err != nil || out.NextPC != 1 {
		t.Fatalf("st: (%+v, %v)", out, err)
	}
	if mem[6] != 99 {
		t.Errorf("mem[6] = %d", mem[6])
	}
	out, err = Step(&regs, 0, isa.Instruction{Op: isa.OpLd, Rd: 3, Ra: 1, Imm: 2}, env)
	if err != nil || out.NextPC != 1 || regs[3] != 99 {
		t.Errorf("ld: r3=%d (%+v, %v)", regs[3], out, err)
	}
	// No DP-DM path configured.
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpLd, Rd: 3, Ra: 1}, Env{}); err == nil {
		t.Error("load without DP-DM path accepted")
	}
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSt, Ra: 1, Rb: 2}, Env{}); err == nil {
		t.Error("store without DP-DM path accepted")
	}
	// Memory errors propagate.
	regs[1] = 1000
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpLd, Rd: 3, Ra: 1}, env); err == nil {
		t.Error("out-of-range load accepted")
	}
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSt, Ra: 1, Rb: 2}, env); err == nil {
		t.Error("out-of-range store accepted")
	}
}

func TestStep_CommOps(t *testing.T) {
	var sentPeer int
	var sentVal isa.Word
	env := Env{
		SendTo: func(peer int, val isa.Word) error {
			sentPeer, sentVal = peer, val
			return nil
		},
		RecvFrom: func(peer int) (isa.Word, error) {
			if peer == 7 {
				return 0, ErrWouldBlock
			}
			return isa.Word(100 + peer), nil
		},
	}
	var regs Regs
	regs[1], regs[2] = 55, 3
	out, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSend, Ra: 1, Rb: 2}, env)
	if err != nil || out.Blocked || sentPeer != 3 || sentVal != 55 {
		t.Errorf("send: peer=%d val=%d (%+v, %v)", sentPeer, sentVal, out, err)
	}
	out, err = Step(&regs, 5, isa.Instruction{Op: isa.OpRecv, Rd: 4, Rb: 2}, env)
	if err != nil || out.Blocked || out.NextPC != 6 || regs[4] != 103 {
		t.Errorf("recv: r4=%d (%+v, %v)", regs[4], out, err)
	}
	// Blocking recv keeps the pc.
	regs[2] = 7
	out, err = Step(&regs, 5, isa.Instruction{Op: isa.OpRecv, Rd: 4, Rb: 2}, env)
	if err != nil || !out.Blocked || out.NextPC != 5 {
		t.Errorf("blocked recv: (%+v, %v)", out, err)
	}
	// Missing network.
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSend, Ra: 1, Rb: 2}, Env{}); err == nil ||
		!strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("send without network: %v", err)
	}
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpRecv, Rd: 1, Rb: 2}, Env{}); err == nil {
		t.Error("recv without network accepted")
	}
}

func TestStep_Sync(t *testing.T) {
	var regs Regs
	block := true
	env := Env{Barrier: func() error {
		if block {
			return ErrWouldBlock
		}
		return nil
	}}
	out, err := Step(&regs, 3, isa.Instruction{Op: isa.OpSync}, env)
	if err != nil || !out.Blocked || out.NextPC != 3 {
		t.Errorf("blocked sync: (%+v, %v)", out, err)
	}
	block = false
	out, err = Step(&regs, 3, isa.Instruction{Op: isa.OpSync}, env)
	if err != nil || out.Blocked || out.NextPC != 4 {
		t.Errorf("released sync: (%+v, %v)", out, err)
	}
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.OpSync}, Env{}); err == nil {
		t.Error("sync without barrier support accepted")
	}
	boom := errors.New("boom")
	_, err = Step(&regs, 0, isa.Instruction{Op: isa.OpSync}, Env{Barrier: func() error { return boom }})
	if !errors.Is(err, boom) {
		t.Errorf("barrier error not propagated: %v", err)
	}
}

func TestStep_InvalidOp(t *testing.T) {
	var regs Regs
	if _, err := Step(&regs, 0, isa.Instruction{Op: isa.Op(99)}, Env{}); err == nil {
		t.Error("invalid opcode accepted")
	}
}

func TestStats(t *testing.T) {
	a := Stats{Cycles: 10, Instructions: 5, ALUOps: 2, Messages: 1}
	b := Stats{Cycles: 7, Instructions: 3, MemReads: 2, Barriers: 1, NetConflictCycles: 4}
	a.Add(b)
	if a.Cycles != 10 { // max, not sum
		t.Errorf("Cycles = %d", a.Cycles)
	}
	if a.Instructions != 8 || a.MemReads != 2 || a.Barriers != 1 || a.NetConflictCycles != 4 {
		t.Errorf("Add = %+v", a)
	}
	if a.IPC() != 0.8 {
		t.Errorf("IPC = %g", a.IPC())
	}
	if (Stats{}).IPC() != 0 {
		t.Error("idle IPC nonzero")
	}
}

func TestIsALU(t *testing.T) {
	if !IsALU(isa.OpAdd) || !IsALU(isa.OpMuli) || IsALU(isa.OpLd) || IsALU(isa.OpJmp) || IsALU(isa.OpNop) {
		t.Error("IsALU misclassifies")
	}
}

// TestStep_Property: ALU ops never halt or block and always advance the PC
// by one.
func TestStep_Property(t *testing.T) {
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSeq, isa.OpMin, isa.OpMax, isa.OpAddi, isa.OpMuli}
	f := func(sel uint8, rd, ra, rb uint8, a, b isa.Word, pcRaw uint16) bool {
		op := ops[int(sel)%len(ops)]
		var regs Regs
		regs[ra%isa.NumRegs], regs[rb%isa.NumRegs] = a, b
		pc := int(pcRaw)
		out, err := Step(&regs, pc, isa.Instruction{
			Op: op, Rd: rd % isa.NumRegs, Ra: ra % isa.NumRegs, Rb: rb % isa.NumRegs, Imm: 3,
		}, Env{})
		if err != nil {
			return false
		}
		return out.NextPC == pc+1 && !out.Halted && !out.Blocked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPools checks the zeroing and reuse contract of the bank and register
// pools.
func TestPools(t *testing.T) {
	m, err := GetMemory(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 100 {
		t.Fatalf("len %d", len(m))
	}
	for i := range m {
		m[i] = 7
	}
	PutMemory(m)
	m2, err := GetMemory(90)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2) != 90 {
		t.Fatalf("len %d", len(m2))
	}
	for i, v := range m2 {
		if v != 0 {
			t.Fatalf("pooled bank not zeroed at %d: %d", i, v)
		}
	}

	if _, err := GetMemory(-1); err == nil {
		t.Fatal("negative size: expected error")
	}
	if m0, err := GetMemory(0); err != nil || len(m0) != 0 {
		t.Fatalf("zero-size bank: %v len %d", err, len(m0))
	}

	r := GetRegs(8)
	if len(r) != 8 {
		t.Fatalf("regs len %d", len(r))
	}
	r[3][2] = 99
	PutRegs(r)
	r2 := GetRegs(5)
	if len(r2) != 5 {
		t.Fatalf("regs len %d", len(r2))
	}
	for i := range r2 {
		if r2[i] != (Regs{}) {
			t.Fatalf("pooled regs not zeroed at %d", i)
		}
	}

	// Odd capacities are dropped, not mis-filed.
	PutMemory(make(Memory, 3, 3))
	PutRegs(make([]Regs, 3, 3))
}

// TestErrWouldBlockIsComparable pins that ErrWouldBlock round-trips through
// errors.Is, the test every stalling caller relies on.
func TestErrWouldBlockIsComparable(t *testing.T) {
	if !errors.Is(ErrWouldBlock, ErrWouldBlock) {
		t.Fatal("ErrWouldBlock identity")
	}
}

// TestOutcomeRegisterSized pins Outcome to at most four fields. Every op of
// every chain returns an Outcome. The Go compiler keeps a struct of up to
// four fields in registers; a fifth field makes it a memory object, which
// each op builds with byte stores and its caller reads back with one
// 16-byte load. That load cannot be served from the store buffer, so it
// waits for the stores to drain: a store-forwarding stall per executed op.
// Whether an op used the DP-DM switch or the DP-DP network is known from
// its decoded form, so that belongs on isa.DecodedOp, not here.
func TestOutcomeRegisterSized(t *testing.T) {
	if n := reflect.TypeOf(Outcome{}).NumField(); n > 4 {
		t.Fatalf("Outcome has %d fields; at most 4 keep it in registers", n)
	}
}
