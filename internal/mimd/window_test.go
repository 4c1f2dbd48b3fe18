package mimd

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// seedBanks fills the first half of every bank with words that tell
// bank and offset apart.
func seedBanks(t *testing.T, m *Machine, cfg Config) {
	t.Helper()
	for core := range cfg.Cores {
		vals := make([]isa.Word, cfg.BankWords/2)
		for i := range vals {
			vals[i] = isa.Word(1000*core + i)
		}
		if err := m.LoadBank(core, 0, vals); err != nil {
			t.Fatal(err)
		}
	}
}

// windowRun runs progs on cfg's seeded banks, compiled and untraced
// (optimistic rounds), optionally with every round rolled back, and
// returns the Stats, every bank and the machine's round counts.
func windowRun(t *testing.T, cfg Config, progs []isa.Program, rollback bool) (machine.Stats, [][]isa.Word, int, int) {
	t.Helper()
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	seedBanks(t, m, cfg)
	if rollback {
		m.RollBackWindows()
	}
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var banks [][]isa.Word
	for core := range cfg.Cores {
		b, err := m.ReadBank(core, 0, cfg.BankWords)
		if err != nil {
			t.Fatal(err)
		}
		banks = append(banks, b)
	}
	if m.win == nil {
		t.Fatal("a compiled untraced crossbar machine runs no rounds")
	}
	return stats, banks, m.win.commits, m.win.rollbacks
}

// interpRun runs progs on cfg's seeded banks on the StepOps reference and
// returns its Stats and banks.
func interpRun(t *testing.T, cfg Config, progs []isa.Program) (machine.Stats, [][]isa.Word) {
	t.Helper()
	cfg.Interp = true
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	seedBanks(t, m, cfg)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var banks [][]isa.Word
	for core := range cfg.Cores {
		b, err := m.ReadBank(core, 0, cfg.BankWords)
		if err != nil {
			t.Fatal(err)
		}
		banks = append(banks, b)
	}
	return stats, banks
}

// diffWindows requires the optimistic run of progs, committed and rolled
// back, to leave the reference's Stats and banks, and returns the
// committed run's round counts.
func diffWindows(t *testing.T, cfg Config, progs []isa.Program) (commits, rollbacks int) {
	t.Helper()
	diffAgainstInterp(t, cfg, progs)
	want, wantBanks := interpRun(t, cfg, progs)
	for _, rollback := range []bool{false, true} {
		stats, banks, c, r := windowRun(t, cfg, progs, rollback)
		if stats != want {
			t.Errorf("rollback=%v: stats %+v, interp says %+v", rollback, stats, want)
		}
		for i := range banks {
			if !slices.Equal(banks[i], wantBanks[i]) {
				t.Errorf("rollback=%v: bank %d = %v, interp says %v", rollback, i, banks[i], wantBanks[i])
			}
		}
		if rollback && c != 0 {
			t.Errorf("RollBackWindows run committed %d rounds", c)
		}
		if !rollback {
			commits, rollbacks = c, r
		}
	}
	return commits, rollbacks
}

// ownBankSum: each core sums the n words at the start of its own bank,
// addressed globally from its lane, and stores the running sums after
// them. No two cores touch one bank.
func ownBankSum(bank, n int) isa.Program {
	return isa.MustAssemble(fmt.Sprintf(`
        lane r15
        muli r15, r15, %d
        ldi  r1, 0
        ldi  r2, %d
        ldi  r3, 0
loop:   add  r4, r15, r1
        ld   r5, [r4+0]
        add  r3, r3, r5
        st   r3, [r4+%d]
        addi r1, r1, 1
        bne  r1, r2, loop
        halt`, bank, n, n))
}

// TestWindow_CommitsPrivateWork: cores that each work in their own bank
// of a DP-DM crossbar run their loops in committed windows, with no
// rollback, and end as the reference does.
func TestWindow_CommitsPrivateWork(t *testing.T) {
	const bank, n = 128, 60
	cfg := mustConfig(t, 3, 4, bank)
	progs := make([]isa.Program, cfg.Cores)
	for i := range progs {
		progs[i] = ownBankSum(bank, n)
	}
	commits, rollbacks := diffWindows(t, cfg, progs)
	if commits == 0 || rollbacks != 0 {
		t.Errorf("private loops: %d commits, %d rollbacks; want commits and no rollback", commits, rollbacks)
	}
}

// TestWindow_SameCycleBankRollsBack: two cores run the same loop of loads
// from bank 0, so their first loads issue in the same cycle on the same
// crossbar port. The round must roll back, and the conflict cycles (and
// everything else) must be the op-by-op run's.
func TestWindow_SameCycleBankRollsBack(t *testing.T) {
	cfg := mustConfig(t, 3, 2, 64)
	hammer := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 80
loop:   ld   r3, [r0+7]
        add  r4, r4, r3
        addi r1, r1, 1
        bne  r1, r2, loop
        lane r5
        muli r5, r5, 64
        st   r4, [r5+1]
        halt`)
	progs := []isa.Program{hammer, hammer}
	_, rollbacks := diffWindows(t, cfg, progs)
	if rollbacks == 0 {
		t.Error("two cores loading bank 0 in the same cycle: no round rolled back")
	}
	stats, _ := interpRun(t, cfg, progs)
	if stats.NetConflictCycles == 0 {
		t.Error("the reference run lost no cycle to the shared port; the test shape is wrong")
	}
}

// TestWindow_SharedWordRollsBack: core 0 stores into a word that core 1
// loads, both in five-cycle loops two cycles apart, so no two accesses
// meet at the crossbar port; only the word rule sees that core 1's loads
// depend on when core 0's stores land. Rounds must roll back, and core
// 1's sum of what it read must be the reference's.
func TestWindow_SharedWordRollsBack(t *testing.T) {
	cfg := mustConfig(t, 3, 2, 64)
	writer := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 60
loop:   addi r1, r1, 1
        st   r1, [r0+70]     ; bank 1, word 6
        add  r9, r9, r1
        bne  r1, r2, loop
        halt`)
	reader := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 60
        nop
        nop
loop:   addi r1, r1, 1
        ld   r3, [r0+70]
        add  r4, r4, r3
        bne  r1, r2, loop
        st   r4, [r0+65]
        halt`)
	progs := []isa.Program{writer, reader}
	_, rollbacks := diffWindows(t, cfg, progs)
	if rollbacks == 0 {
		t.Error("a word written by one core and read by the other: no round rolled back")
	}
	if stats, _ := interpRun(t, cfg, progs); stats.NetConflictCycles != 0 {
		t.Errorf("the reference run lost %d cycles at a port; the test shape is wrong", stats.NetConflictCycles)
	}
}

// TestWindow_StopAtSendIsFinal: on IMP-IV (DP-DM and DP-DP crossbars)
// core 0 loads from its own bank, sends, and then loads from core 1's
// bank, while core 1 loads from its own bank throughout, at the same
// phase of the same five-cycle loop. The first round's window of core 0
// stops at the SEND, long before core 1's reaches the horizon. Had the
// round committed core 1's loads past that stop, the crossbar would take
// them ahead of core 0's later loads of earlier cycles and give bank 1's
// port to the wrong core; the round must retry up to the stop instead,
// and the run must be the reference's, conflict cycles included.
func TestWindow_StopAtSendIsFinal(t *testing.T) {
	cfg := mustConfig(t, 4, 2, 64)
	sender := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 20
own:    addi r1, r1, 1
        ld   r3, [r0+2]      ; bank 0, its own
        add  r4, r4, r3
        bne  r1, r2, own
        ldi  r5, 1
        send r5, r5
        ldi  r1, 0
        ldi  r2, 50
loop:   addi r1, r1, 1
        ld   r3, [r0+70]     ; bank 1, in step with core 1's loads
        add  r4, r4, r3
        bne  r1, r2, loop
        st   r4, [r0+1]
        halt`)
	receiver := isa.MustAssemble(`
        ldi  r1, 0
        ldi  r2, 60
loop:   addi r1, r1, 1
        ld   r3, [r0+71]     ; bank 1, its own
        add  r4, r4, r3
        bne  r1, r2, loop
        ldi  r5, 0
        recv r6, r5
        st   r4, [r0+66]
        halt`)
	progs := []isa.Program{sender, receiver}
	commits, _ := diffWindows(t, cfg, progs)
	if commits == 0 {
		t.Error("no round committed")
	}
	if stats, _ := interpRun(t, cfg, progs); stats.NetConflictCycles == 0 {
		t.Error("the reference run lost no cycle at bank 1's port; the test shape is wrong")
	}
}

// TestWindow_ValidateIsCrossbarReplay pins validate against its
// definition: the round's accesses taken through interconnect.Crossbar in
// (cycle, core) order, each arriving the cycle after it issued, with no
// word one core wrote touched by another; and a committed round leaves
// the crossbar as that replay does. Random rounds over random crossbar
// histories, most of them clean, some with a shared port or word.
func TestWindow_ValidateIsCrossbarReplay(t *testing.T) {
	const cores, bank = 4, 8
	cfg := mustConfig(t, 3, cores, bank)
	progs := make([]isa.Program, cores)
	for i := range progs {
		progs[i] = isa.MustAssemble("halt")
	}
	rng := rand.New(rand.NewSource(1))
	var verdicts [2]int
	for trial := range 3000 {
		m, err := New(cfg, progs)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := interconnect.NewCrossbar(cores)
		// A history before the round, some of it contended.
		now := int64(10 + rng.Intn(5))
		for range rng.Intn(6) {
			at, src, dst := now-int64(1+rng.Intn(4)), rng.Intn(cores), rng.Intn(cores)
			m.Crossbar().Transfer(at, src, dst)
			ref.Transfer(at, src, dst)
		}
		// Short rounds with few stores meet the list of writes, long ones
		// with many the stamps.
		horizon := now + 40 + int64(rng.Intn(160))
		sparse, stores := 4+rng.Intn(40), 2+rng.Intn(8)
		for core := range cores {
			wc := &m.win.cores[core]
			wc.log.Loads, wc.log.Stores = wc.log.Loads[:0], wc.log.Stores[:0]
			for at := now + int64(rng.Intn(3)); at < horizon; at += int64(1 + rng.Intn(sparse)) {
				a := machine.Access{Cycle: at, Addr: isa.Word(rng.Intn(cores * bank))}
				if rng.Intn(stores) == 0 {
					wc.log.Stores = append(wc.log.Stores, a)
				} else {
					wc.log.Loads = append(wc.log.Loads, a)
				}
			}
		}
		got := m.validate(now, horizon)
		want := replayInOrder(ref, m.win.cores, bank)
		if got != want {
			t.Fatalf("trial %d: validate says %v, the in-order replay %v", trial, got, want)
		}
		verdicts[boolIndex(got)]++
		if got {
			m.commit(&machine.Stats{})
			for dst := range cores {
				if m.Crossbar().FreeAt(dst) != ref.FreeAt(dst) {
					t.Fatalf("trial %d: port %d free at %d after commit, %d after replay",
						trial, dst, m.Crossbar().FreeAt(dst), ref.FreeAt(dst))
				}
			}
			if m.Crossbar().Stats() != ref.Stats() {
				t.Fatalf("trial %d: crossbar %+v after commit, %+v after replay", trial, m.Crossbar().Stats(), ref.Stats())
			}
		}
		m.Release()
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Errorf("verdicts (reject, commit) = %v: the trials miss a side", verdicts)
	}
}

// replayInOrder is validate's definition: it takes the cores' logged
// accesses through xb in (cycle, core) order and reports whether each
// arrived the cycle after it issued and no word one core wrote was
// touched by another.
func replayInOrder(xb *interconnect.Crossbar, cores []winCore, bank int) bool {
	type slot struct {
		at    int64
		core  int
		a     machine.Access
		write bool
	}
	var all []slot
	for core := range cores {
		for _, a := range cores[core].log.Loads {
			all = append(all, slot{a.Cycle, core, a, false})
		}
		for _, a := range cores[core].log.Stores {
			all = append(all, slot{a.Cycle, core, a, true})
		}
	}
	slices.SortStableFunc(all, func(x, y slot) int {
		if x.at != y.at {
			return int(x.at - y.at)
		}
		return x.core - y.core
	})
	ok := true
	for _, s := range all {
		if arrival, _ := xb.Transfer(s.at, s.core, int(s.a.Addr)/bank); arrival != s.at+1 {
			ok = false
		}
	}
	touched := map[isa.Word]map[int]bool{}
	written := map[isa.Word]bool{}
	for _, s := range all {
		if touched[s.a.Addr] == nil {
			touched[s.a.Addr] = map[int]bool{}
		}
		touched[s.a.Addr][s.core] = true
		written[s.a.Addr] = written[s.a.Addr] || s.write
	}
	for addr, by := range touched {
		if len(by) > 1 && written[addr] {
			ok = false
		}
	}
	return ok
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestWindow_TallyFolds: a Tally-traced crossbar run folds its committed
// windows and holds the count and totals of the op-by-op emission.
func TestWindow_TallyFolds(t *testing.T) {
	const bank, n = 64, 30
	cfg := mustConfig(t, 3, 2, bank)
	progs := []isa.Program{ownBankSum(bank, n), ownBankSum(bank, n)}
	var folded, emitted obs.Tally
	cfg.Tracer = &folded
	m, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Release()
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.win.commits == 0 {
		t.Fatal("the Tally-traced run committed no round")
	}
	cfg.Tracer = hiddenTally{&emitted}
	ref, err := New(cfg, progs)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if folded.Len() != emitted.Len() || folded.Totals() != emitted.Totals() {
		t.Errorf("folded %d events, %+v; emitted %d, %+v", folded.Len(), folded.Totals(), emitted.Len(), emitted.Totals())
	}
}

// hiddenTally forwards every event to a Tally without being an
// *obs.Tally, so the machine steps every op and emits in slot order.
type hiddenTally struct{ t *obs.Tally }

func (h hiddenTally) Emit(e obs.Event) { h.t.Emit(e) }

// TestWindow_FaultAfterLoopExit: cores 0 and 1 load word 0 in loops
// whose bodies run long stretches of ALU work, so a core's window stops in
// front of its next load past the round's horizon, and a later round opens
// before that load issues: the core's window there runs nothing and the
// next one resumes its trail from the same load, then leaves the loop.
// Core 2 divides by zero at cycles swept across those windows, so the run
// takes back window work past the fault from trails that span them. Error
// text, Stats, CoreStats and Tally must be the op-by-op run's, committed
// and rolled back (diffAgainstInterp).
func TestWindow_FaultAfterLoopExit(t *testing.T) {
	loop := func(iters, alu int) isa.Program {
		return isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d
        ldi  r2, 0
loop:   addi r1, r1, -1
        ld   r3, [r0+0]
%s        add  r4, r4, r3
        bne  r1, r2, loop
        ld   r5, [r0+13]
        st   r5, [r0+24]
        ld   r5, [r0+38]
        addi r7, r9, 1
        addi r6, r8, 1
        st   r4, [r0+5]
        halt`, iters, strings.Repeat("        addi r6, r6, 1\n", alu)))
	}
	cfg := mustConfig(t, 3, 3, 16)
	for iters := 60; iters <= 220; iters++ {
		progs := []isa.Program{loop(2, 52), loop(4, 96), isa.MustAssemble(fmt.Sprintf(`
        ldi  r1, %d
        ldi  r2, 0
loop:   addi r1, r1, -1
        bne  r1, r2, loop
        div  r3, r1, r2
        halt`, iters))}
		if _, err := diffAgainstInterp(t, cfg, progs); err == nil {
			t.Fatalf("core 2 after %d iterations: the run did not fault", iters)
		}
		if t.Failed() {
			t.Fatalf("core 2 faults after %d iterations", iters)
		}
	}
}
