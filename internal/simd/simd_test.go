package simd

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/taxonomy"
)

func mustConfig(t *testing.T, sub, lanes, bank int) Config {
	t.Helper()
	c, err := taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.InstructionFlow, Proc: taxonomy.ArrayProcessor, Sub: sub})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Lanes: lanes, BankWords: bank, Class: c}
}

// TestForSubtype: New accepts exactly Table I's four IAP rows. Every other
// row, the zero Class and an IAP row with a tampered link are rejected
// with an error naming the class.
func TestForSubtype(t *testing.T) {
	build := func(c taxonomy.Class) error {
		m, err := New(Config{Lanes: 2, BankWords: 16, Class: c}, vecAddProg)
		if err == nil {
			m.Release()
		}
		return err
	}
	accepted := 0
	for _, row := range taxonomy.Table() {
		err := build(row)
		if row.Implementable && row.Name.Machine == taxonomy.InstructionFlow && row.Name.Proc == taxonomy.ArrayProcessor {
			if err != nil {
				t.Errorf("%s: %v", row, err)
			}
			accepted++
		} else if err == nil || !strings.Contains(err.Error(), row.String()) {
			t.Errorf("row %d (%s) = %v, want an error naming the class", row.Index, row, err)
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d Table I rows, want 4", accepted)
	}
	tampered := mustConfig(t, 2, 2, 16).Class
	tampered.Links[taxonomy.SiteDPDM] = taxonomy.LinkNone
	for _, c := range []taxonomy.Class{{}, tampered} {
		if err := build(c); err == nil || !strings.Contains(err.Error(), c.String()) {
			t.Errorf("%s (index %d) = %v, want an error naming the class", c, c.Index, err)
		}
	}
}

// TestForSubtypeIsTableI: the machine built from each IAP row has a DP-DM
// crossbar and a DP-DP network exactly where Table I's row has a crossbar.
func TestForSubtypeIsTableI(t *testing.T) {
	for sub := 1; sub <= 4; sub++ {
		cfg := mustConfig(t, sub, 4, 64)
		m, err := New(cfg, vecAddProg)
		if err != nil {
			t.Fatal(err)
		}
		c := cfg.Class
		if got, want := m.MemNet() != nil, c.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar; got != want {
			t.Errorf("%s: DP-DM crossbar %v, Table I DP-DM %v", c, got, c.Links[taxonomy.SiteDPDM])
		}
		if got, want := m.Env(0).SendTo != nil, c.Links[taxonomy.SiteDPDP] == taxonomy.LinkCrossbar; got != want {
			t.Errorf("%s: DP-DP network %v, Table I DP-DP %v", c, got, c.Links[taxonomy.SiteDPDP])
		}
		m.Release()
	}
}

// vecAddProg adds element i of two lane-local vectors on every lane:
// bank layout: [0]=a, [1]=b, result -> [2].
var vecAddProg = isa.MustAssemble(`
        ld   r1, [r0+0]
        ld   r2, [r0+1]
        add  r3, r1, r2
        st   r3, [r0+2]
        halt
`)

func TestIAP1_LanewiseVectorAdd(t *testing.T) {
	m, err := New(mustConfig(t, 1, 8, 16), vecAddProg)
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 8; lane++ {
		if err := m.LoadBank(lane, 0, []isa.Word{isa.Word(lane), isa.Word(10 * lane)}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 8; lane++ {
		out, err := m.ReadBank(lane, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := isa.Word(11 * lane); out[0] != want {
			t.Errorf("lane %d result %d, want %d", lane, out[0], want)
		}
	}
	// 5 broadcast instructions x 8 lanes, except halt which is scalar.
	if stats.Instructions != 4*8+1 {
		t.Errorf("instructions = %d, want 33", stats.Instructions)
	}
	if stats.ALUOps != 8 {
		t.Errorf("ALU ops = %d, want 8", stats.ALUOps)
	}
	// Lockstep: cycles ~ per-instruction, not per-lane-instruction. Memory
	// ops cost 2 cycles (issue + direct DP-DM hop).
	if stats.Cycles >= stats.Instructions {
		t.Errorf("cycles = %d, not lockstep (instructions = %d)", stats.Cycles, stats.Instructions)
	}
}

// shiftProg rotates a value one lane to the right: lane i sends its value
// to lane (i+1) mod n, receives from (i-1+n) mod n.
func shiftProg(lanes int) isa.Program {
	return isa.MustAssemble(`
        lane r1              ; r1 = my lane
        ld   r2, [r0+0]      ; my value
        ldi  r5, ` + intToString(lanes) + `
        addi r3, r1, 1       ; dest = lane+1
        rem  r3, r3, r5
        send r2, r3
        addi r4, r1, ` + intToString(lanes-1) + ` ; src = lane-1+n
        rem  r4, r4, r5
        recv r6, r4
        st   r6, [r0+1]
        halt
`)
}

func intToString(v int) string {
	if v == 0 {
		return "0"
	}
	var digits []byte
	for v > 0 {
		digits = append([]byte{byte('0' + v%10)}, digits...)
		v /= 10
	}
	return string(digits)
}

func TestIAP2_LaneShiftExchange(t *testing.T) {
	const lanes = 8
	m, err := New(mustConfig(t, 2, lanes, 16), shiftProg(lanes))
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		if err := m.LoadBank(lane, 0, []isa.Word{isa.Word(100 + lane)}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		out, err := m.ReadBank(lane, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := isa.Word(100 + (lane-1+lanes)%lanes)
		if out[0] != want {
			t.Errorf("lane %d received %d, want %d", lane, out[0], want)
		}
	}
	if stats.Messages != 2*lanes { // one send + one recv per lane
		t.Errorf("messages = %d, want %d", stats.Messages, 2*lanes)
	}
}

func TestIAP1_CannotExchange(t *testing.T) {
	// The same exchange kernel must fail on IAP-I: "DP-DP: none".
	const lanes = 4
	m, err := New(mustConfig(t, 1, lanes, 16), shiftProg(lanes))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("exchange on IAP-I: %v, want DP-DP error", err)
	}
}

// gatherProg reads via global addressing: every lane loads the word at
// global address (lane count - 1 - lane)*bank + 0 and stores it locally at
// offset 1 of its own bank, i.e. a reversal across banks.
func gatherProg(lanes, bank int) isa.Program {
	return isa.MustAssemble(`
        lane r1
        ldi  r2, ` + intToString(lanes-1) + `
        sub  r3, r2, r1          ; mirror lane
        muli r3, r3, ` + intToString(bank) + `
        ld   r4, [r3+0]          ; global load from mirror bank
        muli r5, r1, ` + intToString(bank) + `
        addi r5, r5, 1
        st   r4, [r5+0]          ; global store into own bank offset 1
        halt
`)
}

func TestIAP3_GlobalGather(t *testing.T) {
	const lanes, bank = 8, 16
	m, err := New(mustConfig(t, 3, lanes, bank), gatherProg(lanes, bank))
	if err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		if err := m.LoadBank(lane, 0, []isa.Word{isa.Word(lane * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		out, err := m.ReadBank(lane, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := isa.Word((lanes - 1 - lane) * 7)
		if out[0] != want {
			t.Errorf("lane %d gathered %d, want %d", lane, out[0], want)
		}
	}
}

func TestIAP1_CannotGather(t *testing.T) {
	const lanes, bank = 8, 16
	m, err := New(mustConfig(t, 1, lanes, bank), gatherProg(lanes, bank))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "direct") {
		t.Errorf("global gather on IAP-I: %v, want direct-addressing error", err)
	}
}

func TestIAP3_HotBankContention(t *testing.T) {
	// Every lane loads global address 0: the memory crossbar serializes on
	// bank 0's port and the run must record conflict cycles.
	const lanes, bank = 8, 16
	prog := isa.MustAssemble(`
        ld   r1, [r0+0]     ; all lanes hit bank 0 word 0
        halt
`)
	m, err := New(mustConfig(t, 3, lanes, bank), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NetConflictCycles == 0 {
		t.Error("hot-bank traffic recorded no conflicts")
	}
	// Compare with conflict-free lanewise access on the same sub-type.
	prog2 := isa.MustAssemble(`
        lane r1
        muli r2, r1, ` + intToString(bank) + `
        ld   r3, [r2+0]     ; each lane hits its own bank
        halt
`)
	m2, err := New(mustConfig(t, 3, lanes, bank), prog2)
	if err != nil {
		t.Fatal(err)
	}
	stats2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.NetConflictCycles != 0 {
		t.Errorf("permutation access conflicted: %+v", stats2)
	}
}

func TestControlFlow_UsesLaneZero(t *testing.T) {
	// Loop bound lives in lane 0's registers; all lanes follow it.
	prog := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 5
loop:   addi r1, r1, 1
        ld   r3, [r0+0]
        addi r3, r3, 1
        st   r3, [r0+0]
        bne  r1, r2, loop
        halt
`)
	m, err := New(mustConfig(t, 1, 4, 8), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 4; lane++ {
		out, err := m.ReadBank(lane, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != 5 {
			t.Errorf("lane %d counter = %d, want 5", lane, out[0])
		}
	}
}

func TestRecvWithoutSendFails(t *testing.T) {
	prog := isa.MustAssemble(`
        recv r1, r0
        halt
`)
	m, err := New(mustConfig(t, 2, 4, 8), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "lockstep") {
		t.Errorf("unmatched recv: %v", err)
	}
}

func TestSendToBadLane(t *testing.T) {
	prog := isa.MustAssemble(`
        ldi  r2, 99
        send r1, r2
        halt
`)
	m, err := New(mustConfig(t, 2, 4, 8), prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("send to lane 99 accepted")
	}
	prog2 := isa.MustAssemble(`
        ldi  r2, -1
        recv r1, r2
        halt
`)
	m2, err := New(mustConfig(t, 2, 4, 8), prog2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil {
		t.Error("recv from lane -1 accepted")
	}
}

func TestDeadline(t *testing.T) {
	cfg := mustConfig(t, 1, 2, 8)
	cfg.MaxCycles = 100
	m, err := New(cfg, isa.MustAssemble("loop: jmp loop"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("infinite loop: %v", err)
	}
}

func TestSyncIsNoOpInLockstep(t *testing.T) {
	m, err := New(mustConfig(t, 1, 2, 8), isa.MustAssemble("sync\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Barriers != 1 {
		t.Errorf("barriers = %d", stats.Barriers)
	}
}

func TestFallOffEnd(t *testing.T) {
	m, err := New(mustConfig(t, 1, 2, 8), isa.MustAssemble("nop"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Errorf("fall-off run: %v", err)
	}
}

func TestNew_Rejects(t *testing.T) {
	good := mustConfig(t, 1, 4, 8)
	if _, err := New(good, nil); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := New(good, isa.Program{{Op: isa.OpJmp, Imm: 9}}); err == nil {
		t.Error("invalid program accepted")
	}
	bad := good
	bad.Lanes = 1
	if _, err := New(bad, vecAddProg); err == nil {
		t.Error("1-lane array accepted")
	}
	bad = good
	bad.BankWords = 0
	if _, err := New(bad, vecAddProg); err == nil {
		t.Error("0-word banks accepted")
	}
}

func TestLaneAccessors_Reject(t *testing.T) {
	m, err := New(mustConfig(t, 1, 4, 8), vecAddProg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lanes() != 4 {
		t.Errorf("Lanes() = %d", m.Lanes())
	}
	if err := m.LoadBank(9, 0, nil); err == nil {
		t.Error("LoadBank(9) accepted")
	}
	if _, err := m.ReadBank(-1, 0, 1); err == nil {
		t.Error("ReadBank(-1) accepted")
	}
	if err := m.LoadBank(0, 7, []isa.Word{1, 2}); err == nil {
		t.Error("overflowing LoadBank accepted")
	}
}
