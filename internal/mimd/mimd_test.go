package mimd

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

func mustConfig(t *testing.T, sub, cores, bank int) Config {
	t.Helper()
	c, err := taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.InstructionFlow, Proc: taxonomy.MultiProcessor, Sub: sub})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Cores: cores, BankWords: bank, Class: c}
}

// TestForSubtypeIsTableI: the machine built from each IMP row wires that
// row's switches: a DP-DM crossbar, a DP-DP network and re-pointable
// program images exactly where Table I's row has a crossbar.
func TestForSubtypeIsTableI(t *testing.T) {
	for sub := 1; sub <= 16; sub++ {
		cfg := mustConfig(t, sub, 2, 16)
		m, err := New(cfg, []isa.Program{privateProg(1), privateProg(2)})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg.Class
		got := [...]bool{m.Assign(0, 1) == nil, m.MemNet() != nil, m.Env(0).SendTo != nil}
		want := [...]bool{c.Links[taxonomy.SiteIPIM] == taxonomy.LinkCrossbar,
			c.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar, c.Links[taxonomy.SiteDPDP] == taxonomy.LinkCrossbar}
		if got != want {
			t.Errorf("%s: IP-IM, DP-DM, DP-DP crossbars %v, Table I has %v %v %v", c, got,
				c.Links[taxonomy.SiteIPIM], c.Links[taxonomy.SiteDPDM], c.Links[taxonomy.SiteDPDP])
		}
		m.Release()
	}
}

// TestForSubtype_ClassRoundTrip: New accepts exactly Table I's sixteen IMP
// rows. Every other row, the zero Class and an IMP row with a tampered
// link are rejected with an error naming the class.
func TestForSubtype_ClassRoundTrip(t *testing.T) {
	build := func(c taxonomy.Class) error {
		m, err := New(Config{Cores: 2, BankWords: 16, Class: c}, []isa.Program{privateProg(1), privateProg(2)})
		if err == nil {
			m.Release()
		}
		return err
	}
	accepted := 0
	for _, row := range taxonomy.Table() {
		err := build(row)
		if row.Implementable && row.Name.Machine == taxonomy.InstructionFlow && row.Name.Proc == taxonomy.MultiProcessor {
			if err != nil {
				t.Errorf("%s: %v", row, err)
			}
			accepted++
		} else if err == nil || !strings.Contains(err.Error(), row.String()) {
			t.Errorf("row %d (%s) = %v, want an error naming the class", row.Index, row, err)
		}
	}
	if accepted != 16 {
		t.Errorf("accepted %d Table I rows, want 16", accepted)
	}
	tampered := mustConfig(t, 2, 2, 16).Class
	tampered.Links[taxonomy.SiteDPDM] = taxonomy.LinkNone
	for _, c := range []taxonomy.Class{{}, tampered} {
		if err := build(c); err == nil || !strings.Contains(err.Error(), c.String()) {
			t.Errorf("%s (index %d) = %v, want an error naming the class", c, c.Index, err)
		}
	}
}

// privateProg computes (core-specific constant)^2 into local bank word 0.
func privateProg(k int) isa.Program {
	return isa.MustAssemble(fmt.Sprintf(`
        ldi r1, %d
        mul r2, r1, r1
        st  r2, [r0+0]
        halt
`, k))
}

func TestIMP1_IndependentPrograms(t *testing.T) {
	// IMP-I: separate Von Neumann machines, each with its own image.
	cfg := mustConfig(t, 1, 4, 16)
	progs := []isa.Program{privateProg(2), privateProg(3), privateProg(4), privateProg(5)}
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for core, want := range []isa.Word{4, 9, 16, 25} {
		out, err := m.ReadBank(core, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != want {
			t.Errorf("core %d result %d, want %d", core, out[0], want)
		}
	}
	if stats.Instructions != 16 {
		t.Errorf("instructions = %d, want 16", stats.Instructions)
	}
	// MIMD overlap: 4 cores x 4 instructions complete in far fewer than 16
	// serial cycles.
	if stats.Cycles > 8 {
		t.Errorf("cycles = %d, cores did not run in parallel", stats.Cycles)
	}
}

func TestIMP1_RequiresOneImagePerCore(t *testing.T) {
	cfg := mustConfig(t, 1, 4, 16)
	if _, err := New(cfg, []isa.Program{privateProg(1)}); err == nil {
		t.Error("IMP-I accepted a single shared image (IP-IM is direct)")
	}
}

func TestIPIMCrossbar_SharedImageSPMD(t *testing.T) {
	// IMP-V has the IP-IM crossbar: all cores can point at image 0, giving
	// SPMD from one image — the paper's "IMP can act as an array processor".
	cfg := mustConfig(t, 5, 4, 16)
	spmd := isa.MustAssemble(`
        lane r1
        muli r2, r1, 10
        st   r2, [r0+0]
        halt
`)
	m, err := New(cfg, []isa.Program{spmd})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		out, err := m.ReadBank(core, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != isa.Word(core*10) {
			t.Errorf("core %d = %d, want %d", core, out[0], core*10)
		}
	}
}

func TestAssign(t *testing.T) {
	cfg := mustConfig(t, 5, 2, 16) // IP-IM crossbar
	images := []isa.Program{privateProg(2), privateProg(7)}
	m, err := New(cfg, images)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Assign(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Assign(1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		out, _ := m.ReadBank(core, 0, 1)
		if out[0] != 49 {
			t.Errorf("core %d = %d, want 49", core, out[0])
		}
	}
	if err := m.Assign(0, 9); err == nil {
		t.Error("bad image accepted")
	}
	if err := m.Assign(9, 0); err == nil {
		t.Error("bad core accepted")
	}
	direct, err := New(mustConfig(t, 1, 2, 16), []isa.Program{privateProg(1), privateProg(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := direct.Assign(0, 1); err == nil {
		t.Error("Assign allowed on direct IP-IM")
	}
}

func TestDPDMCrossbar_SharedMemory(t *testing.T) {
	// IMP-III: global address space. Core 0 writes, core 1 polls and reads.
	cfg := mustConfig(t, 3, 2, 16)
	writer := isa.MustAssemble(`
        ldi r1, 123
        st  r1, [r0+5]       ; global address 5 (bank 0)
        ldi r2, 1
        st  r2, [r0+6]       ; flag
        halt
`)
	reader := isa.MustAssemble(`
        ldi r3, 1
poll:   ld  r1, [r0+6]
        bne r1, r3, poll
        ld  r2, [r0+5]
        st  r2, [r0+16]      ; global address 16 = bank 1 word 0
        halt
`)
	m, err := New(cfg, []isa.Program{writer, reader})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadBank(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 123 {
		t.Errorf("shared-memory handoff = %d, want 123", out[0])
	}
}

func TestIMP1_NoSharedMemory(t *testing.T) {
	// On IMP-I the reader cannot even address core 0's bank.
	cfg := mustConfig(t, 1, 2, 16)
	farLoad := isa.MustAssemble(`
        ldi r1, 16
        ld  r2, [r1+0]       ; address 16 is outside the 16-word local bank
        halt
`)
	m, err := New(cfg, []isa.Program{farLoad, isa.MustAssemble("halt")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "direct") {
		t.Errorf("far load on IMP-I: %v", err)
	}
}

func TestDPDPCrossbar_MessagePassing(t *testing.T) {
	// IMP-II: message ring over 4 cores; each core sends its id+100 right
	// and stores what it receives from the left.
	const cores = 4
	cfg := mustConfig(t, 2, cores, 16)
	progs := make([]isa.Program, cores)
	for i := range progs {
		progs[i] = isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d          ; value
        ldi  r2, %d          ; right neighbour
        send r1, r2
        ldi  r3, %d          ; left neighbour
        recv r4, r3
        st   r4, [r0+0]
        halt
`, 100+i, (i+1)%cores, (i-1+cores)%cores))
	}
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for core := 0; core < cores; core++ {
		out, _ := m.ReadBank(core, 0, 1)
		want := isa.Word(100 + (core-1+cores)%cores)
		if out[0] != want {
			t.Errorf("core %d received %d, want %d", core, out[0], want)
		}
	}
	if stats.Messages != 2*cores {
		t.Errorf("messages = %d, want %d", stats.Messages, 2*cores)
	}
}

func TestIMP1_CannotMessage(t *testing.T) {
	cfg := mustConfig(t, 1, 2, 16)
	sender := isa.MustAssemble("ldi r2, 1\nsend r1, r2\nhalt")
	m, err := New(cfg, []isa.Program{sender, isa.MustAssemble("halt")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "DP-DP") {
		t.Errorf("send on IMP-I: %v", err)
	}
}

func TestBarrier(t *testing.T) {
	// Two cores: core 0 works a while, core 1 arrives at the barrier first;
	// after the barrier core 1 reads what core 0 wrote before it.
	cfg := mustConfig(t, 3, 2, 16) // shared memory for the handoff
	worker := isa.MustAssemble(`
        ldi r1, 50
        ldi r2, 0
        ldi r3, 1
spin:   sub r1, r1, r3
        bne r1, r2, spin
        ldi r4, 77
        st  r4, [r0+3]
        sync
        halt
`)
	waiter := isa.MustAssemble(`
        sync
        ld  r1, [r0+3]
        st  r1, [r0+16]      ; bank 1 word 0
        halt
`)
	m, err := New(cfg, []isa.Program{worker, waiter})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, _ := m.ReadBank(1, 0, 1)
	if out[0] != 77 {
		t.Errorf("post-barrier read = %d, want 77", out[0])
	}
	if stats.Barriers != 1 {
		t.Errorf("barriers = %d, want 1", stats.Barriers)
	}
}

func TestBarrier_SurvivesHaltedCore(t *testing.T) {
	// One core halts; the remaining cores' barrier still releases among
	// the live cores. In the second and third cases a core runs a long
	// private loop first, so it runs ahead of the barrier, or halts far
	// ahead of the other core's SYNC; the barrier must release at the
	// cycle the op-by-op reference releases it.
	spin := func(n int, tail string) isa.Program {
		return isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d
        ldi  r2, 0
loop:   addi r1, r1, -1
        st   r1, [r0+1]
        bne  r1, r2, loop
        %s`, n, tail))
	}
	cases := []struct {
		name  string
		progs []isa.Program
	}{
		{"immediate", []isa.Program{
			isa.MustAssemble("halt"),
			isa.MustAssemble("sync\nhalt"),
			isa.MustAssemble("sync\nhalt"),
		}},
		{"halts after a long run", []isa.Program{
			spin(300, "halt"),
			isa.MustAssemble("sync\nhalt"),
			isa.MustAssemble("sync\nhalt"),
		}},
		{"halts far ahead of a sync", []isa.Program{
			isa.MustAssemble("halt"),
			spin(300, "sync\nhalt"),
			isa.MustAssemble("sync\nhalt"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats, err := diffAgainstInterp(t, mustConfig(t, 1, 3, 16), tc.progs)
			if err != nil {
				t.Errorf("barrier with a halted core: %v", err)
			}
			if stats.Barriers != 1 {
				t.Errorf("barriers = %d, want 1", stats.Barriers)
			}
		})
	}
}

// diffAgainstInterp runs progs on cfg six ways: untraced compiled code
// (where cores run ahead through private blocks, and under a DP-DM
// crossbar open optimistic windows), compiled code traced into an
// obs.Tally (where they run ahead too, folding their events), both again
// with every window rolled back, compiled code traced into an obs.Trace
// (which steps every op) and the machine.StepOps reference traced into a
// Tally. All must agree on the error text, the Stats and the CoreStats,
// and each compiled run's Tally must hold the reference's event count and
// totals. It returns the reference's Stats and error.
func diffAgainstInterp(t *testing.T, cfg Config, progs []isa.Program) (machine.Stats, error) {
	t.Helper()
	run := func(interp, rollback bool, tr obs.Tracer) (machine.Stats, []CoreStats, error) {
		c := cfg
		c.Interp, c.Tracer = interp, tr
		m, err := New(c, progs)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Release()
		if rollback {
			m.RollBackWindows()
		}
		stats, err := m.Run()
		return stats, m.CoreStats(), err
	}
	var refTally, tally, rollbackTally obs.Tally
	refStats, refCores, refErr := run(true, false, &refTally)
	for _, v := range []struct {
		name     string
		rollback bool
		tr       obs.Tracer
	}{
		{"compiled", false, nil}, {"tally", false, &tally},
		{"rollback", true, nil}, {"tally rollback", true, &rollbackTally},
		{"traced", false, obs.NewTrace()},
	} {
		stats, cores, err := run(false, v.rollback, v.tr)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Errorf("%s: error %v, interp says %v", v.name, err, refErr)
		}
		if stats != refStats {
			t.Errorf("%s: stats %+v, interp says %+v", v.name, stats, refStats)
		}
		if !slices.Equal(cores, refCores) {
			t.Errorf("%s: core stats %+v, interp says %+v", v.name, cores, refCores)
		}
	}
	for _, tl := range []*obs.Tally{&tally, &rollbackTally} {
		if tl.Len() != refTally.Len() || tl.Totals() != refTally.Totals() {
			t.Errorf("tally: %d events, totals %+v; interp says %d, %+v",
				tl.Len(), tl.Totals(), refTally.Len(), refTally.Totals())
		}
	}
	return refStats, refErr
}

// TestRunAhead_EarlierFaultOnHigherCore: core 0 runs ahead through a long
// private loop at its first slot; core 1 faults at cycle 3. The fault
// must be core 1's, with Stats and CoreStats counting only what core 0
// retired up to that slot, even when core 0 itself faults later inside its
// fused run. In the last case the lower core faults inside its fused run
// while the higher core has run ahead past that slot.
func TestRunAhead_EarlierFaultOnHigherCore(t *testing.T) {
	long := func(tail string) isa.Program {
		return isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, 200
        ldi  r2, 0
loop:   addi r1, r1, -1
        ld   r3, [r0+2]
        add  r3, r3, r1
        st   r3, [r0+2]
        bne  r1, r2, loop
        %s
        jmp  out
out:    halt`, tail))
	}
	fault := isa.MustAssemble(`
        ldi r1, 5
        ldi r2, 0
        nop
        div r3, r1, r2
        halt`)
	late := isa.MustAssemble(`
        ldi r1, 40
        ldi r2, 0
loop:   addi r1, r1, -1
        bne  r1, r2, loop
        ldi  r4, 99
        ld   r3, [r4+0]
        jmp  out
out:    halt`)
	cases := []struct {
		name  string
		progs []isa.Program
		want  string
	}{
		{"core 0 finishes", []isa.Program{long(""), fault}, "mimd: core 1 pc 3: machine: division by zero at pc 3"},
		{"core 0 faults later", []isa.Program{long("ldi r4, 99\nld r5, [r4+0]"), fault}, "mimd: core 1 pc 3"},
		{"lower core faults first", []isa.Program{late, long("")}, "mimd: core 0 pc 5: mimd: core 0 address 99 outside its bank"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := diffAgainstInterp(t, mustConfig(t, 1, 2, 16), tc.progs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunAhead_BudgetSweep sets MaxCycles to every cycle of a matmul run
// whose inner loop is one fused private block, so the budget expires at
// every offset inside a run-ahead, and requires the deadline's Stats,
// CoreStats and Tally of the op-by-op reference at each. It sweeps a
// direct DP-DM class, where the whole loop runs ahead, and a DP-DM
// crossbar class, where both cores' accesses meet in bank 0: there the
// cores run the loop in optimistic windows, committed and, in
// diffAgainstInterp's rollback runs, rolled back, so the budget also
// expires inside a window and at every cycle of a rolled-back round.
func TestRunAhead_BudgetSweep(t *testing.T) {
	// Core-local C = A x B with A at 0 (rows x 3), B at 12 (3 x 2), C at 20.
	matmul := func(rows int) isa.Program {
		return isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, 0
        ldi  r2, %d
rowl:   beq  r1, r2, done
        ldi  r3, 0
        ldi  r4, 2
coll:   beq  r3, r4, rowe
        ldi  r8, 0
        ldi  r5, 0
        ldi  r6, 3
kl:     beq  r5, r6, ke
        muli r9, r1, 3
        add  r9, r9, r5
        ld   r10, [r9+0]
        muli r11, r5, 2
        add  r11, r11, r3
        ld   r12, [r11+12]
        mul  r13, r10, r12
        add  r8, r8, r13
        addi r5, r5, 1
        jmp  kl
ke:     muli r9, r1, 2
        add  r9, r9, r3
        st   r8, [r9+20]
        addi r3, r3, 1
        jmp  coll
rowe:   addi r1, r1, 1
        jmp  rowl
done:   halt`, rows))
	}
	progs := []isa.Program{matmul(4), matmul(3)}
	for _, sub := range []int{1, 3} {
		cfg := mustConfig(t, sub, 2, 32)
		t.Run(cfg.Class.String(), func(t *testing.T) {
			full, err := diffAgainstInterp(t, cfg, progs)
			if err != nil {
				t.Fatal(err)
			}
			for budget := int64(1); budget <= full.Cycles; budget++ {
				cfg.MaxCycles = budget
				stats, err := diffAgainstInterp(t, cfg, progs)
				if budget < full.Cycles && !errors.Is(err, machine.ErrDeadline) {
					t.Fatalf("budget %d of %d: %v, want the deadline", budget, full.Cycles, err)
				}
				if t.Failed() {
					t.Fatalf("budget %d of %d diverged (stats %+v)", budget, full.Cycles, stats)
				}
			}
		})
	}
}

// TestRunAhead_RecvDeadlock: both cores run ahead through private loops of
// different lengths, then wait on each other's RECV. The deadlock must be
// found at the reference's cycle, with its Stats and CoreStats.
func TestRunAhead_RecvDeadlock(t *testing.T) {
	loopThenRecv := func(n, peer int) isa.Program {
		return isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d
        ldi  r2, 0
loop:   addi r1, r1, -1
        st   r1, [r0+0]
        bne  r1, r2, loop
        ldi  r3, %d
        recv r4, r3
        halt`, n, peer))
	}
	_, err := diffAgainstInterp(t, mustConfig(t, 2, 2, 16), []isa.Program{loopThenRecv(100, 1), loopThenRecv(30, 0)})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("mutual recv after run-ahead: %v, want deadlock", err)
	}
}

func TestDeadlock_RecvWithoutSend(t *testing.T) {
	cfg := mustConfig(t, 2, 2, 16)
	m, err := New(cfg, []isa.Program{
		isa.MustAssemble("ldi r2, 1\nrecv r1, r2\nhalt"),
		isa.MustAssemble("ldi r2, 0\nrecv r1, r2\nhalt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("mutual recv: %v, want deadlock", err)
	}
}

func TestDeadline(t *testing.T) {
	cfg := mustConfig(t, 1, 2, 16)
	cfg.MaxCycles = 200
	m, err := New(cfg, []isa.Program{
		isa.MustAssemble("loop: jmp loop"),
		isa.MustAssemble("halt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !errors.Is(err, machine.ErrDeadline) {
		t.Errorf("livelock: %v", err)
	}
}

func TestHotBankContention(t *testing.T) {
	// All cores hammer bank 0 through the shared-memory crossbar.
	const cores = 8
	cfg := mustConfig(t, 3, cores, 16)
	progs := make([]isa.Program, cores)
	for i := range progs {
		progs[i] = isa.MustAssemble(`
        ld r1, [r0+0]
        ld r1, [r0+0]
        ld r1, [r0+0]
        halt
`)
	}
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.NetConflictCycles == 0 {
		t.Error("hot bank recorded no conflicts")
	}
	if stats.MemReads != 3*cores {
		t.Errorf("reads = %d", stats.MemReads)
	}
}

func TestGuestErrors(t *testing.T) {
	cfg := mustConfig(t, 2, 2, 16)
	m, err := New(cfg, []isa.Program{
		isa.MustAssemble("ldi r2, 9\nsend r1, r2\nhalt"), // core 9 does not exist
		isa.MustAssemble("halt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil {
		t.Error("send to core 9 accepted")
	}
	m2, err := New(cfg, []isa.Program{
		isa.MustAssemble("ldi r2, -2\nrecv r1, r2\nhalt"),
		isa.MustAssemble("halt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(); err == nil {
		t.Error("recv from core -2 accepted")
	}
}

func TestNew_Rejects(t *testing.T) {
	good := mustConfig(t, 1, 2, 16)
	if _, err := New(good, nil); err == nil {
		t.Error("no images accepted")
	}
	if _, err := New(good, []isa.Program{nil, nil}); err == nil {
		t.Error("empty images accepted")
	}
	if _, err := New(good, []isa.Program{{{Op: isa.OpJmp, Imm: 7}}, privateProg(1)}); err == nil {
		t.Error("invalid image accepted")
	}
	bad := good
	bad.Cores = 1
	if _, err := New(bad, []isa.Program{privateProg(1)}); err == nil {
		t.Error("1-core multiprocessor accepted")
	}
	bad = good
	bad.BankWords = 0
	if _, err := New(bad, []isa.Program{privateProg(1), privateProg(2)}); err == nil {
		t.Error("0-word banks accepted")
	}
}

func TestCoreStats_LoadBalance(t *testing.T) {
	// Core 0 runs a long loop, core 1 a single halt: the per-core stats
	// expose the imbalance the aggregate numbers hide.
	cfg := mustConfig(t, 1, 2, 16)
	busy := isa.MustAssemble(`
        ldi r1, 20
        ldi r2, 0
loop:   addi r1, r1, -1
        bne r1, r2, loop
        halt
`)
	m, err := New(cfg, []isa.Program{busy, isa.MustAssemble("halt")})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	per := m.CoreStats()
	if len(per) != 2 {
		t.Fatalf("%d core stats", len(per))
	}
	if per[0].Instructions <= per[1].Instructions {
		t.Errorf("busy core %d instructions, idle core %d", per[0].Instructions, per[1].Instructions)
	}
	if per[0].Instructions+per[1].Instructions != stats.Instructions {
		t.Errorf("per-core sum %d != aggregate %d",
			per[0].Instructions+per[1].Instructions, stats.Instructions)
	}
	if per[0].FinishedAt <= per[1].FinishedAt {
		t.Errorf("busy core finished at %d, idle at %d", per[0].FinishedAt, per[1].FinishedAt)
	}
	if per[0].FinishedAt != stats.Cycles {
		t.Errorf("last core finished at %d, makespan %d", per[0].FinishedAt, stats.Cycles)
	}
	// The accessor returns a copy.
	per[0].Instructions = -1
	if m.CoreStats()[0].Instructions == -1 {
		t.Error("CoreStats returned shared state")
	}
}

func TestBankAccessors_Reject(t *testing.T) {
	m, err := New(mustConfig(t, 1, 2, 8), []isa.Program{privateProg(1), privateProg(2)})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 2 {
		t.Errorf("Cores() = %d", m.Cores())
	}
	if err := m.LoadBank(5, 0, nil); err == nil {
		t.Error("LoadBank(5) accepted")
	}
	if _, err := m.ReadBank(-1, 0, 1); err == nil {
		t.Error("ReadBank(-1) accepted")
	}
}

// TestNew_SharesEqualPrograms: equal programs are one staged program,
// whether they are one slice or separate ones and whichever machine runs
// them: the cores running them share one image, its decoded form and
// compiled code are machine.Stage's entry, and a different program gets an
// image of its own. The StepOps reference stages nothing.
func TestNew_SharesEqualPrograms(t *testing.T) {
	prog := privateProg(3)
	progs := []isa.Program{prog, prog, privateProg(3), privateProg(4)}
	m, err := New(mustConfig(t, 1, 4, 16), progs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if m.images[0] != m.images[1] || m.images[0] != m.images[2] {
		t.Error("cores running equal programs got separate images")
	}
	if m.images[3] == m.images[0] {
		t.Error("a different program shares an image")
	}
	want, err := machine.Stage(privateProg(3), machine.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if img := m.images[0]; img.comp != want || &img.dec[0] != &want.Decoded()[0] {
		t.Error("the image is not the staged program")
	}
	other, err := New(mustConfig(t, 1, 4, 16), []isa.Program{privateProg(3), privateProg(3), privateProg(3), privateProg(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Release()
	if other.images[0].comp != want {
		t.Error("a second machine running an equal program staged its own copy")
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for core, v := range []isa.Word{9, 9, 9, 16} {
		if out, _ := m.ReadBank(core, 0, 1); out[0] != v {
			t.Errorf("core %d = %d, want %d", core, out[0], v)
		}
	}

	cfg := mustConfig(t, 1, 4, 16)
	cfg.Interp = true
	ref, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	for i, img := range ref.images {
		if img.comp != nil || &img.dec[0] == &want.Decoded()[0] {
			t.Errorf("reference image %d took the staged program", i)
		}
	}
}
