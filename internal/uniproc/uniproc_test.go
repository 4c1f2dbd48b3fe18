package uniproc

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

func TestRun_SumLoop(t *testing.T) {
	prog := isa.MustAssemble(`
        ldi  r1, 10       ; counter
        ldi  r2, 0        ; accumulator
        ldi  r3, 0
loop:   add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r3, loop
        st   r2, [r3+100]
        halt
`)
	m, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Memory().Load(100)
	if err != nil || v != 55 {
		t.Errorf("sum = (%d, %v), want 55", v, err)
	}
	if stats.Instructions != 3+3*10+2 {
		t.Errorf("instructions = %d, want 35", stats.Instructions)
	}
	if stats.ALUOps != 2*10 { // add + addi per iteration
		t.Errorf("ALU ops = %d, want 20", stats.ALUOps)
	}
	if stats.MemWrites != 1 || stats.MemReads != 0 {
		t.Errorf("mem traffic = %d writes %d reads", stats.MemWrites, stats.MemReads)
	}
	if stats.Cycles != stats.Instructions+1 { // one extra cycle for the store
		t.Errorf("cycles = %d, want %d", stats.Cycles, stats.Instructions+1)
	}
}

func TestRunWithInput_MemCopy(t *testing.T) {
	// Copy 8 words from address 0.. to 64.. .
	prog := isa.MustAssemble(`
        ldi  r1, 0        ; index
        ldi  r2, 8        ; limit
loop:   beq  r1, r2, done
        ld   r3, [r1+0]
        st   r3, [r1+64]
        addi r1, r1, 1
        jmp  loop
done:   halt
`)
	m, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	in := []isa.Word{5, 4, 3, 2, 1, 0, -1, -2}
	out, stats, err := m.RunWithInput(in, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("out[%d] = %d, want %d", i, out[i], in[i])
		}
	}
	if stats.MemReads != 8 || stats.MemWrites != 8 {
		t.Errorf("mem traffic = %d/%d", stats.MemReads, stats.MemWrites)
	}
}

func TestRun_FallOffEndHalts(t *testing.T) {
	m, err := New(DefaultConfig(), isa.Program{{Op: isa.OpNop}})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil || stats.Instructions != 1 {
		t.Errorf("fall-off run = (%+v, %v)", stats, err)
	}
}

func TestRun_InfiniteLoopHitsDeadline(t *testing.T) {
	prog := isa.MustAssemble("loop: jmp loop")
	m, err := New(Config{MemWords: 16, MaxCycles: 1000}, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("infinite loop error = %v, want ErrDeadline", err)
	}
}

func TestRun_GuestErrors(t *testing.T) {
	// A uni-processor has no DP-DP network: SEND must fail, demonstrating
	// the taxonomy's "DP-DP: none" operationally.
	m, err := New(DefaultConfig(), isa.MustAssemble("send r1, r2\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("send on IUP: %v, want DP-DP error", err)
	}
	// Out-of-range memory access.
	m, err = New(Config{MemWords: 4}, isa.MustAssemble("ldi r1, 100\nld r2, [r1+0]\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("wild load accepted")
	}
	// Division by zero.
	m, err = New(DefaultConfig(), isa.MustAssemble("div r1, r2, r3\nhalt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestNew_Rejects(t *testing.T) {
	if _, err := New(Config{MemWords: 0}, isa.Program{{Op: isa.OpHalt}}); err == nil {
		t.Error("zero memory accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("empty program accepted")
	}
	if _, err := New(DefaultConfig(), isa.Program{{Op: isa.OpJmp, Imm: 99}}); err == nil {
		t.Error("invalid program accepted")
	}
}

func TestRunWithInput_Errors(t *testing.T) {
	m, err := New(Config{MemWords: 4}, isa.Program{{Op: isa.OpHalt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunWithInput(make([]isa.Word, 10), 0, 1); err == nil {
		t.Error("oversized input accepted")
	}
	if _, _, err := m.RunWithInput(nil, 0, 100); err == nil {
		t.Error("oversized output read accepted")
	}
}

func TestProgramAccessor(t *testing.T) {
	prog := isa.Program{{Op: isa.OpHalt}}
	m, err := New(DefaultConfig(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Program()) != 1 || m.Program()[0].Op != isa.OpHalt {
		t.Error("Program() accessor wrong")
	}
}

// TestRun_FoldsIntoTally: a run traced into an obs.Tally takes the fused
// block path and folds its events once; its Stats, error text and the
// Tally's count and totals must equal the op-by-op reference traced into a
// Tally. The programs finish, fault mid-block and run out of budget at
// every cycle of a loop.
func TestRun_FoldsIntoTally(t *testing.T) {
	loop := isa.MustAssemble(`
        ldi  r1, 6
        ldi  r2, 0
loop:   ld   r3, [r1+4]
        add  r3, r3, r1
        st   r3, [r1+4]
        addi r1, r1, -1
        bne  r1, r2, loop
        halt`)
	fault := isa.MustAssemble(`
        ldi r1, 3
        st  r1, [r0+1]
        ldi r2, 0
        div r3, r1, r2
        halt`)
	run := func(prog isa.Program, budget int64, interp bool) (machine.Stats, obs.Tally, error) {
		var tally obs.Tally
		m, err := New(Config{MemWords: 16, MaxCycles: budget, Tracer: &tally, Interp: interp}, prog)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		stats, err := m.Run()
		return stats, tally, err
	}
	check := func(name string, prog isa.Program, budget int64) {
		t.Helper()
		stats, tally, err := run(prog, budget, false)
		refStats, refTally, refErr := run(prog, budget, true)
		if fmt.Sprint(err) != fmt.Sprint(refErr) || stats != refStats {
			t.Errorf("%s: %+v, %v; interp says %+v, %v", name, stats, err, refStats, refErr)
		}
		if tally.Len() != refTally.Len() || tally.Totals() != refTally.Totals() || tally.Len() == 0 {
			t.Errorf("%s: tally %d events, %+v; interp %d, %+v", name, tally.Len(), tally.Totals(), refTally.Len(), refTally.Totals())
		}
	}
	check("fault", fault, 0)
	full, _, _ := run(loop, 0, false)
	for budget := int64(1); budget <= full.Cycles; budget++ {
		check(fmt.Sprintf("budget %d", budget), loop, budget)
	}
}
