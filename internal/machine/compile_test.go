package machine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/isa"
)

// refRun executes prog with uni-processor semantics through raw Step: one
// cycle per instruction, memLat extra per memory op, branchPenalty extra
// per taken branch, the budget checked before every issue. It is the
// reference the compiled fast path must match cycle for cycle; faults are
// wrapped as "pc %d: ..." and deadlines returned as bare ErrDeadline, the
// shapes compiledRun normalizes to.
func refRun(prog isa.Program, mem Memory, memLat, branchPenalty, budget int64) (Regs, Stats, error) {
	var regs Regs
	var stats Stats
	env := Env{Load: mem.Load, Store: mem.Store}
	if memLat == 0 {
		memLat = 1
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(prog) {
			return regs, stats, nil
		}
		if stats.Cycles >= budget {
			return regs, stats, ErrDeadline
		}
		ins := prog[pc]
		out, err := Step(&regs, pc, ins, env)
		if err != nil {
			return regs, stats, fmt.Errorf("pc %d: %w", pc, err)
		}
		stats.Cycles++
		stats.Instructions++
		if ins.Op.IsALU() {
			stats.ALUOps++
		}
		if ins.Op.IsMemory() {
			stats.Cycles += memLat
			if ins.Op == isa.OpLd {
				stats.MemReads++
			} else {
				stats.MemWrites++
			}
		}
		if ins.Op.IsBranch() && out.NextPC != pc+1 {
			stats.Cycles += branchPenalty
		}
		pc = out.NextPC
		if out.Halted {
			return regs, stats, nil
		}
	}
}

// compiledRun executes prog through the fused block fast path and
// normalizes its (failPC, err) convention to refRun's error shapes.
func compiledRun(prog isa.Program, mem Memory, memLat, branchPenalty, budget int64) (Regs, Stats, error) {
	p := Compile(isa.Predecode(prog), CompileOptions{MemLatency: memLat, BranchPenalty: branchPenalty})
	c := CPU{Mem: mem}
	failPC, err := p.Run(&c, budget)
	if err != nil && !errors.Is(err, ErrDeadline) {
		err = fmt.Errorf("pc %d: %w", failPC, err)
	}
	return c.Regs, c.Stats, err
}

// opsRun executes prog through the threaded per-op chain with the same
// loop-level accounting: the path traced runs and the other simulators
// dispatch through.
func opsRun(prog isa.Program, mem Memory, memLat, branchPenalty, budget int64) (Regs, Stats, error) {
	p := Compile(isa.Predecode(prog), CompileOptions{MemLatency: memLat, BranchPenalty: branchPenalty})
	ops := p.Ops()
	var regs Regs
	var stats Stats
	env := Env{Load: mem.Load, Store: mem.Store}
	if memLat == 0 {
		memLat = 1
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(prog) {
			return regs, stats, nil
		}
		if stats.Cycles >= budget {
			return regs, stats, ErrDeadline
		}
		out, err := ops[pc](&regs, &env)
		if err != nil {
			return regs, stats, fmt.Errorf("pc %d: %w", pc, err)
		}
		stats.Cycles++
		stats.Instructions++
		op := prog[pc].Op
		if op.IsALU() {
			stats.ALUOps++
		}
		if op.IsMemory() {
			stats.Cycles += memLat
			if op == isa.OpLd {
				stats.MemReads++
			} else {
				stats.MemWrites++
			}
		}
		if op.IsBranch() && out.NextPC != pc+1 {
			stats.Cycles += branchPenalty
		}
		pc = out.NextPC
		if out.Halted {
			return regs, stats, nil
		}
	}
}

// diffRuns compares two complete runs: error shape and text, Stats
// byte-for-byte, register files and memories word-for-word.
func diffRuns(t *testing.T, label string, regsA, regsB Regs, statsA, statsB Stats, memA, memB Memory, errA, errB error) {
	t.Helper()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("%s: err %v vs %v", label, errA, errB)
	}
	if errA != nil && errA.Error() != errB.Error() {
		t.Fatalf("%s: error text %q vs %q", label, errA, errB)
	}
	if statsA != statsB {
		t.Fatalf("%s: stats %+v vs %+v", label, statsA, statsB)
	}
	if regsA != regsB {
		t.Fatalf("%s: registers diverged\n%v\n%v", label, regsA, regsB)
	}
	for i := range memA {
		if memA[i] != memB[i] {
			t.Fatalf("%s: memory diverged at %d: %d vs %d", label, i, memA[i], memB[i])
		}
	}
}

// stepEnv builds a small test environment over one private bank, with an
// always-full mailbox and a non-blocking barrier so every opcode is
// executable.
func stepEnv(mem Memory, sent *[]isa.Word) Env {
	return Env{
		Lane:  3,
		Load:  mem.Load,
		Store: mem.Store,
		SendTo: func(peer int, val isa.Word) error {
			*sent = append(*sent, val)
			return nil
		},
		RecvFrom: func(peer int) (isa.Word, error) { return isa.Word(peer + 100), nil },
		Barrier:  func() error { return nil },
	}
}

// TestCompiledOpMatchesStep drives randomized instructions through Step and
// the compiled per-op closure side by side: the threaded chain is Step
// specialized per instruction, so outcomes, registers, memories and error
// text must be identical. This is the semantic-equivalence pin for every
// simulator's compiled dispatch, spatial groups included.
func TestCompiledOpMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []isa.Op{
		isa.OpNop, isa.OpHalt, isa.OpLdi, isa.OpMov, isa.OpAdd, isa.OpSub,
		isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSeq, isa.OpMin, isa.OpMax,
		isa.OpAddi, isa.OpMuli, isa.OpLd, isa.OpSt, isa.OpBeq, isa.OpBne,
		isa.OpBlt, isa.OpBge, isa.OpJmp, isa.OpSend, isa.OpRecv, isa.OpSync,
		isa.OpLane,
	}
	const bank = 32
	for trial := 0; trial < 5000; trial++ {
		ins := isa.Instruction{
			Op:  ops[rng.Intn(len(ops))],
			Rd:  uint8(rng.Intn(isa.NumRegs)),
			Ra:  uint8(rng.Intn(isa.NumRegs)),
			Rb:  uint8(rng.Intn(isa.NumRegs)),
			Imm: int32(rng.Intn(2*bank) - bank/2),
		}
		pc := rng.Intn(64)

		var regsA, regsB Regs
		for i := range regsA {
			v := isa.Word(rng.Intn(41) - 20)
			regsA[i], regsB[i] = v, v
		}
		memA := make(Memory, bank)
		memB := make(Memory, bank)
		for i := range memA {
			v := isa.Word(rng.Intn(100))
			memA[i], memB[i] = v, v
		}
		var sentA, sentB []isa.Word

		envA := stepEnv(memA, &sentA)
		envB := stepEnv(memB, &sentB)
		outA, errA := Step(&regsA, pc, ins, envA)
		d := isa.DecodeOp(pc, ins)
		fn := compileOp(pc, &d)
		outB, errB := fn(&regsB, &envB)

		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d %v: Step err %v, compiled err %v", trial, ins, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("trial %d %v: error text %q vs %q", trial, ins, errA, errB)
			}
			continue
		}
		if outA != outB {
			t.Fatalf("trial %d %v: outcome %+v vs %+v", trial, ins, outA, outB)
		}
		if regsA != regsB {
			t.Fatalf("trial %d %v: register files diverged\n%v\n%v", trial, ins, regsA, regsB)
		}
		for i := range memA {
			if memA[i] != memB[i] {
				t.Fatalf("trial %d %v: memory diverged at %d: %d vs %d", trial, ins, i, memA[i], memB[i])
			}
		}
		if len(sentA) != len(sentB) {
			t.Fatalf("trial %d %v: sends diverged", trial, ins)
		}
	}
}

// TestCompiledOpBlocked checks the stall path: a blocked RECV or SYNC keeps
// the PC and reports Blocked, exactly like Step.
func TestCompiledOpBlocked(t *testing.T) {
	env := Env{
		RecvFrom: func(peer int) (isa.Word, error) { return 0, ErrWouldBlock },
		Barrier:  func() error { return ErrWouldBlock },
	}
	for _, ins := range []isa.Instruction{{Op: isa.OpRecv, Rd: 1, Rb: 2}, {Op: isa.OpSync}} {
		var regs Regs
		d := isa.DecodeOp(7, ins)
		out, err := compileOp(7, &d)(&regs, &env)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Blocked || out.NextPC != 7 {
			t.Fatalf("blocked %v: %+v", ins.Op, out)
		}
		if want, _ := Step(&regs, 7, ins, env); out != want {
			t.Fatalf("blocked %v: compiled %+v, Step %+v", ins.Op, out, want)
		}
	}
}

// TestCompiledOpMissingSites checks the connection-site errors surface with
// no callbacks configured, with Step's text.
func TestCompiledOpMissingSites(t *testing.T) {
	for _, op := range []isa.Op{isa.OpLd, isa.OpSt, isa.OpSend, isa.OpRecv, isa.OpSync} {
		var regs Regs
		env := Env{}
		ins := isa.Instruction{Op: op}
		d := isa.DecodeOp(0, ins)
		_, err := compileOp(0, &d)(&regs, &env)
		if err == nil {
			t.Errorf("%v with no environment: expected error", op)
			continue
		}
		if _, want := Step(&regs, 0, ins, env); want == nil || err.Error() != want.Error() {
			t.Errorf("%v with no environment: compiled %q, Step %v", op, err, want)
		}
	}
}

// TestCompiledOpUnimplemented checks the fallback closure for an opcode
// outside the ISA.
func TestCompiledOpUnimplemented(t *testing.T) {
	var regs Regs
	env := Env{}
	d := isa.DecodedOp{Op: isa.Op(200)}
	if _, err := compileOp(0, &d)(&regs, &env); err == nil {
		t.Fatal("invalid opcode: expected error")
	}
}

// randCompileProgram generates a random valid program mixing ALU ops,
// loads/stores (mostly in-bank, sometimes wild), DIV/REM (fault bait) and
// branches in both directions, with the shapes the block builder fuses:
// ALU pairs over three registers, so their operands alias, and jmps
// retargeted at conditional branches, the loop headers jump threading
// runs as the jmp block's terminator. Unlike the conformance generator it
// allows backward branches: non-termination is the budget check's job,
// and the deadline path must match across backends too.
func randCompileProgram(rng *rand.Rand, n, bank int) isa.Program {
	prog := make(isa.Program, 0, n+1)
	for pc := 0; pc < n; pc++ {
		var ins isa.Instruction
		reg := func() uint8 { return uint8(rng.Intn(isa.NumRegs)) }
		switch pick := rng.Intn(100); {
		case pick < 22:
			alu := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr, isa.OpXor,
				isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSeq, isa.OpMin, isa.OpMax}
			ins = isa.Instruction{Op: alu[rng.Intn(len(alu))], Rd: reg(), Ra: reg(), Rb: reg()}
		case pick < 30 && pc+1 < n:
			few := func() uint8 { return uint8(rng.Intn(3)) }
			first := []isa.Op{isa.OpMul, isa.OpMuli, isa.OpAdd}[rng.Intn(3)]
			prog = append(prog, isa.Instruction{Op: first, Rd: few(), Ra: few(), Rb: few(), Imm: int32(rng.Intn(9) - 4)})
			pc++
			ins = isa.Instruction{Op: isa.OpAdd, Rd: few(), Ra: few(), Rb: few()}
		case pick < 40:
			ins = isa.Instruction{Op: isa.OpLdi, Rd: reg(), Imm: int32(rng.Intn(2*bank) - bank/2)}
		case pick < 45:
			ins = isa.Instruction{Op: isa.OpAddi, Rd: reg(), Ra: reg(), Imm: int32(rng.Intn(9) - 4)}
		case pick < 50:
			ins = isa.Instruction{Op: isa.OpMuli, Rd: reg(), Ra: reg(), Imm: int32(rng.Intn(9) - 4)}
		case pick < 65:
			ins = isa.Instruction{Op: isa.OpLd, Rd: reg(), Ra: reg(), Imm: int32(rng.Intn(bank))}
		case pick < 80:
			ins = isa.Instruction{Op: isa.OpSt, Rb: reg(), Ra: reg(), Imm: int32(rng.Intn(bank))}
		case pick < 84:
			op := []isa.Op{isa.OpDiv, isa.OpRem}[rng.Intn(2)]
			ins = isa.Instruction{Op: op, Rd: reg(), Ra: reg(), Rb: reg()}
		case pick < 96:
			br := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp}
			op := br[rng.Intn(len(br))]
			target := rng.Intn(n + 2) // anywhere in [0, n+1]: forward, backward, self
			ins = isa.Instruction{Op: op, Imm: int32(target - (pc + 1))}
			if op != isa.OpJmp {
				ins.Ra, ins.Rb = reg(), reg()
			}
		default:
			ins = isa.Instruction{Op: isa.OpNop}
		}
		prog = append(prog, ins)
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	var heads []int
	for pc, ins := range prog {
		if ins.Op.IsBranch() && ins.Op != isa.OpJmp {
			heads = append(heads, pc)
		}
	}
	for pc := range prog {
		if prog[pc].Op == isa.OpJmp && len(heads) > 0 && rng.Intn(2) == 0 {
			prog[pc].Imm = int32(heads[rng.Intn(len(heads))] - (pc + 1))
			if pc > 0 && prog[pc-1].Op == isa.OpAddi {
				prog[pc-1].Ra = prog[pc-1].Rd // the loop's induction increment
			}
		}
	}
	return prog
}

// TestCompileRunMatchesInterp is the in-package differential run: random
// programs (backward branches, guest faults and deadlines included) under
// varying memory latencies and branch penalties, executed by the raw-Step
// reference, the fused block path and the threaded per-op chain. Registers,
// memories, Stats and errors must agree byte for byte. The cross-simulator
// sweep lives in internal/conformance; this one pins the timing knobs the
// generated cross-class programs never vary.
func TestCompileRunMatchesInterp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const bank = 48
	for trial := 0; trial < 2000; trial++ {
		prog := randCompileProgram(rng, 2+rng.Intn(40), bank)
		if err := prog.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid program: %v", trial, err)
		}
		memLat := int64(rng.Intn(4))
		bp := int64(rng.Intn(3))
		budget := int64(200 + rng.Intn(800))
		img := make([]isa.Word, bank)
		for i := range img {
			img[i] = isa.Word(rng.Intn(201) - 100)
		}
		mk := func() Memory {
			m := make(Memory, bank)
			copy(m, img)
			return m
		}
		memRef, memBlk, memOps := mk(), mk(), mk()
		regsRef, statsRef, errRef := refRun(prog, memRef, memLat, bp, budget)
		regsBlk, statsBlk, errBlk := compiledRun(prog, memBlk, memLat, bp, budget)
		regsOps, statsOps, errOps := opsRun(prog, memOps, memLat, bp, budget)
		label := fmt.Sprintf("trial %d (memLat=%d bp=%d budget=%d)\n%s", trial, memLat, bp, budget, isa.Disassemble(prog))
		diffRuns(t, "block "+label, regsRef, regsBlk, statsRef, statsBlk, memRef, memBlk, errRef, errBlk)
		diffRuns(t, "ops "+label, regsRef, regsOps, statsRef, statsOps, memRef, memOps, errRef, errOps)
	}
}

// TestCompileBlockProperties checks the structural invariants of the block
// program on random inputs: every branch target begins a block, the blocks
// partition the program, and in every table each block's batched
// accounting equals the sum of its instructions' unfused costs, plus the
// static penalty of a closing jmp and, when that jmp targets a conditional
// branch alone in its CFG block whose successors are both in the program,
// the threaded header's branch (so superinstruction fusion and jump
// threading can never change Stats).
func TestCompileBlockProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	threaded := 0
	for trial := 0; trial < 500; trial++ {
		prog := randCompileProgram(rng, 1+rng.Intn(60), 32)
		memLat, bp := int64(rng.Intn(4)), int64(rng.Intn(3))
		p := Compile(isa.Predecode(prog), CompileOptions{MemLatency: memLat, BranchPenalty: bp})
		p.blocksFor(true)
		if memLat == 0 {
			memLat = 1
		}
		cfg := isa.BuildCFG(p.dec)

		// Branch targets begin blocks.
		for pc := range p.dec {
			d := &p.dec[pc]
			if !d.IsBranch() {
				continue
			}
			if tgt := int(d.Target); tgt >= 0 && tgt < p.n && p.whole.blockAt[tgt] < 0 {
				t.Fatalf("trial %d: branch at pc %d targets %d, which does not begin a block\n%s",
					trial, pc, tgt, isa.Disassemble(prog))
			}
		}

		// Blocks partition [0, n) in order.
		next := int32(0)
		for i, b := range p.whole.blocks {
			if b.start != next || b.end <= b.start {
				t.Fatalf("trial %d: block %d spans [%d,%d), want start %d", trial, i, b.start, b.end, next)
			}
			if p.whole.blockAt[b.start] != int32(i) {
				t.Fatalf("trial %d: blockAt[%d] = %d, want %d", trial, b.start, p.whole.blockAt[b.start], i)
			}
			next = b.end
		}
		if next != int32(p.n) {
			t.Fatalf("trial %d: blocks cover [0,%d), program has %d ops", trial, next, p.n)
		}

		// Fused accounting equals the per-op sum plus the threaded branch;
		// fused units cover the straight-line ops exactly once, in order.
		for _, tab := range []*blockTable{&p.whole, p.table(&p.cut, tableCut), p.table(&p.win, tableWin)} {
			for i, b := range tab.blocks {
				want := block{head: -1}
				for pc := b.start; pc < b.end; pc++ {
					d := &p.dec[pc]
					want.nInstr++
					want.cycles++
					if d.IsALU() {
						want.nALU++
					}
					switch d.Op {
					case isa.OpLd:
						want.nLoads++
						want.cycles += memLat
					case isa.OpSt:
						want.nStores++
						want.cycles += memLat
					}
				}
				if last := &p.dec[b.end-1]; last.Op == isa.OpJmp {
					h := int(last.Target)
					if h != int(b.end) {
						want.cycles += bp
					}
					if h < p.n {
						hb, hd := &cfg.Blocks[cfg.BlockAt[h]], &p.dec[h]
						if hb.Start == int32(h) && hb.End == int32(h+1) && hd.IsBranch() && hd.Op != isa.OpJmp &&
							int(hd.Target) < p.n && h+1 < p.n {
							want.head = int32(h)
							want.nInstr++
							want.cycles++
							threaded++
						}
					}
				}
				if b.nInstr != want.nInstr || b.nALU != want.nALU || b.nLoads != want.nLoads ||
					b.nStores != want.nStores || b.cycles != want.cycles || b.head != want.head {
					t.Fatalf("trial %d block %d: fused stats {%d %d %d %d %d head %d} != op sum {%d %d %d %d %d head %d}\n%s",
						trial, i, b.nInstr, b.nALU, b.nLoads, b.nStores, b.cycles, b.head,
						want.nInstr, want.nALU, want.nLoads, want.nStores, want.cycles, want.head, isa.Disassemble(prog))
				}
				if b.head >= 0 && tab.blockAt[b.head] < 0 {
					t.Fatalf("trial %d block %d: threaded header %d lost its own block", trial, i, b.head)
				}
				pc := b.start
				for _, u := range b.units {
					if u.pc != pc || u.nops < 1 {
						t.Fatalf("trial %d block %d: unit at pc %d (nops %d), want pc %d", trial, i, u.pc, u.nops, pc)
					}
					pc += u.nops
				}
				if pc > b.end {
					t.Fatalf("trial %d block %d: units overrun block end %d", trial, i, b.end)
				}
			}
		}
	}
	if threaded == 0 {
		t.Fatal("no block threaded a loop header: the generator lost its loop shapes")
	}
}

// TestCompileFusionEdgeCases pins the block builder's corners: branches
// into the middle of a would-be superinstruction, self-loops, zero-length
// programs, immediate sign extension at the int32 extremes, and faults
// inside fused units. Each case must both shape the blocks as stated and
// run byte-identically to the raw-Step reference.
func TestCompileFusionEdgeCases(t *testing.T) {
	const bank = 16
	cases := []struct {
		name  string
		prog  isa.Program
		check func(t *testing.T, p *CompiledProgram)
	}{
		{
			// ld/addi/st would fuse into a triple, but pc 2 (the addi) is a
			// branch target and so must begin its own block, splitting the
			// pattern.
			name: "branch into middle of triple",
			prog: isa.Program{
				{Op: isa.OpBeq, Ra: 0, Rb: 1, Imm: 1}, // -> pc 2, into the triple
				{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: 3},
				{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
				{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: 4},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if p.whole.blockAt[2] < 0 {
					t.Fatal("branch target pc 2 does not begin a block")
				}
				for _, b := range p.whole.blocks {
					for _, u := range b.units {
						if u.nops > 1 {
							t.Fatalf("block at %d fused %d ops across a leader", b.start, u.nops)
						}
					}
				}
			},
		},
		{
			// An unfusable-at-pc-1 triple: the whole pattern is present and
			// fuses into one three-op unit.
			name: "fused triple",
			prog: isa.Program{
				{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: 3},
				{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
				{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: 4},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				b := p.whole.blocks[0]
				if len(b.units) != 1 || b.units[0].nops != 3 {
					t.Fatalf("want one fused 3-op unit, got %d units", len(b.units))
				}
			},
		},
		{
			// The store of the triple faults: the load and ALU op retired,
			// the store did not — partial accounting must match the
			// interpreter exactly.
			name: "fault mid triple",
			prog: isa.Program{
				{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: 3},
				{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
				{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: bank + 7}, // out of bank
				{Op: isa.OpHalt},
			},
		},
		{
			name: "fault on triple load",
			prog: isa.Program{
				{Op: isa.OpLd, Rd: 2, Ra: 15, Imm: -1 - bank},
				{Op: isa.OpAddi, Rd: 2, Ra: 2, Imm: 5},
				{Op: isa.OpSt, Rb: 2, Ra: 15, Imm: 4},
				{Op: isa.OpHalt},
			},
		},
		{
			name: "division by zero mid block",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 1, Imm: 9},
				{Op: isa.OpDiv, Rd: 2, Ra: 1, Rb: 3}, // r3 = 0
				{Op: isa.OpLdi, Rd: 4, Imm: 1},
				{Op: isa.OpHalt},
			},
		},
		{
			// A one-instruction self-loop: the smallest possible block, a
			// budget check per iteration, and a deadline that must match the
			// interpreter's cycle count exactly.
			name: "self-loop jmp",
			prog: isa.Program{{Op: isa.OpJmp, Imm: -1}},
			check: func(t *testing.T, p *CompiledProgram) {
				if len(p.whole.blocks) != 1 || p.whole.blocks[0].end != 1 {
					t.Fatalf("self-loop: want one 1-op block, got %+v", p.whole.blocks)
				}
			},
		},
		{
			// jmp +0 falls through to pc+1: taken in form, but NextPC equals
			// pc+1 so the branch penalty must NOT apply.
			name: "jmp plus zero no penalty",
			prog: isa.Program{
				{Op: isa.OpJmp, Imm: 0},
				{Op: isa.OpHalt},
			},
		},
		{
			// Induction increment fused into the backward branch: the block
			// body is empty and the terminator does both.
			name: "fused induction loop",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 2, Imm: 10},
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpBlt, Ra: 1, Rb: 2, Imm: -2},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				b := p.whole.blocks[p.whole.blockAt[1]]
				if len(b.units) != 0 {
					t.Fatalf("induction pair not fused: %d units remain", len(b.units))
				}
			},
		},
		{
			// addi that is not an induction increment (Rd != Ra) must not
			// fuse into the branch.
			name: "non-induction addi before branch",
			prog: isa.Program{
				{Op: isa.OpAddi, Rd: 1, Ra: 2, Imm: 1},
				{Op: isa.OpBlt, Ra: 1, Rb: 3, Imm: -2},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[0]; len(b.units) != 1 {
					t.Fatalf("non-induction addi fused away: %d units", len(b.units))
				}
			},
		},
		{
			// Immediates at the int32 extremes: LDI loads them, ADDI/MULI
			// widen them, branches never see them. The widened Word
			// arithmetic must match Step's exactly.
			name: "max-imm sign extension",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 1, Imm: math.MaxInt32},
				{Op: isa.OpLdi, Rd: 2, Imm: math.MinInt32},
				{Op: isa.OpAddi, Rd: 3, Ra: 1, Imm: math.MaxInt32},
				{Op: isa.OpAddi, Rd: 4, Ra: 2, Imm: math.MinInt32},
				{Op: isa.OpMuli, Rd: 5, Ra: 1, Imm: math.MinInt32},
				{Op: isa.OpSt, Rb: 3, Ra: 15, Imm: 0},
				{Op: isa.OpHalt},
			},
		},
		{
			name: "trailing fallthrough without halt",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 1, Imm: 7},
				{Op: isa.OpSt, Rb: 1, Ra: 15, Imm: 2},
			},
		},
		{
			// mul+add, muli+add and add+add each fuse into one two-op unit
			// in every table, reading what the first op wrote, and never
			// take the store in with them.
			name: "alu pairs with aliased registers",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 1, Imm: 3},
				{Op: isa.OpLdi, Rd: 2, Imm: 5},
				{Op: isa.OpMul, Rd: 1, Ra: 1, Rb: 2},
				{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 2},
				{Op: isa.OpMuli, Rd: 3, Ra: 2, Imm: -4},
				{Op: isa.OpAdd, Rd: 3, Ra: 3, Rb: 3},
				{Op: isa.OpAdd, Rd: 4, Ra: 3, Rb: 1},
				{Op: isa.OpAdd, Rd: 4, Ra: 4, Rb: 4},
				{Op: isa.OpSt, Rb: 4, Ra: 15, Imm: 1},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				for _, tab := range []*blockTable{&p.whole, p.table(&p.cut, tableCut), p.table(&p.win, tableWin)} {
					var nops []int32
					for _, u := range tab.blocks[tab.blockAt[0]].units {
						nops = append(nops, u.nops)
					}
					if want := []int32{1, 1, 2, 2, 2}; !slices.Equal(nops[:min(len(nops), 5)], want) {
						t.Fatalf("units of ops %v, want the three pairs fused: %v first", nops, want)
					}
				}
			},
		},
		{
			// A pair never spans a leader: the add is a branch target.
			name: "alu pair split by a branch target",
			prog: isa.Program{
				{Op: isa.OpBeq, Ra: 0, Rb: 1, Imm: 1},
				{Op: isa.OpMul, Rd: 1, Ra: 2, Rb: 3},
				{Op: isa.OpAdd, Rd: 1, Ra: 1, Rb: 1},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if p.whole.blockAt[2] < 0 {
					t.Fatal("branch target pc 2 does not begin a block")
				}
			},
		},
		{
			// The divide after a pair faults: the pair retired both ops.
			name: "fault after alu pair",
			prog: isa.Program{
				{Op: isa.OpMuli, Rd: 1, Ra: 1, Imm: 7},
				{Op: isa.OpAdd, Rd: 2, Ra: 1, Rb: 1},
				{Op: isa.OpDiv, Rd: 2, Ra: 2, Rb: 3}, // r3 = 0
				{Op: isa.OpHalt},
			},
		},
		{
			// The loop's jmp (with its fused induction increment) runs the
			// header's bge as its own terminator, in every table; the
			// header keeps its block for the entry that falls into it.
			name: "threaded loop header",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 2, Imm: 4},
				{Op: isa.OpBge, Ra: 1, Rb: 2, Imm: 4}, // kl: -> done
				{Op: isa.OpAdd, Rd: 3, Ra: 3, Rb: 1},
				{Op: isa.OpSt, Rb: 3, Ra: 1, Imm: 8},
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpJmp, Imm: -5},              // -> kl
				{Op: isa.OpSt, Rb: 3, Ra: 15, Imm: 0}, // done
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				for _, tab := range []*blockTable{&p.whole, p.table(&p.cut, tableCut), p.table(&p.win, tableWin)} {
					if tab.blockAt[1] < 0 {
						t.Fatal("the header lost its own block")
					}
					at := 2 // the body's block; the cut table's closes at the store
					if tab == &p.cut {
						at = 4
					}
					if b := &tab.blocks[tab.blockAt[at]]; b.head != 1 || b.term.kind != termBge || b.term.pimm != 1 {
						t.Fatalf("the jmp block at %d: head %d, terminator %+v; want the bge at 1 with the increment", b.start, b.head, b.term)
					}
				}
			},
		},
		{
			// jmp +0 into a header: threaded, with no penalty for the jmp.
			name: "jmp plus zero into a header",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 2, Imm: 3},
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpJmp, Imm: 0},
				{Op: isa.OpBlt, Ra: 1, Rb: 2, Imm: -3},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[p.whole.blockAt[1]]; b.head != 3 || b.cycles != 3 {
					t.Fatalf("the jmp block: head %d, cycles %d; want the blt at 3 threaded and 3 cycles", b.head, b.cycles)
				}
			},
		},
		{
			// A header whose branch can leave the program (its target is
			// the end) is not threaded: the core must halt at its own slot.
			name: "header leaving the program not threaded",
			prog: isa.Program{
				{Op: isa.OpBeq, Ra: 1, Rb: 2, Imm: 2}, // -> 3, the end
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpJmp, Imm: -3},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[p.whole.blockAt[1]]; b.head != -1 {
					t.Fatalf("threaded a header that leaves the program: head %d", b.head)
				}
			},
		},
		{
			// A header that is the program's last op falls through out of
			// the program, so it is not threaded.
			name: "header at the end not threaded",
			prog: isa.Program{
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpJmp, Imm: 0},
				{Op: isa.OpBlt, Ra: 1, Rb: 2, Imm: -3},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[0]; b.head != -1 {
					t.Fatalf("threaded a header that falls out of the program: head %d", b.head)
				}
			},
		},
		{
			// A jmp to anything but a conditional branch keeps its target.
			name: "jmp to a non-branch not threaded",
			prog: isa.Program{
				{Op: isa.OpLdi, Rd: 2, Imm: 3},
				{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
				{Op: isa.OpBlt, Ra: 1, Rb: 2, Imm: 1},
				{Op: isa.OpHalt},
				{Op: isa.OpJmp, Imm: -4},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[p.whole.blockAt[4]]; b.head != -1 || b.term.tgt != 1 {
					t.Fatalf("jmp to an addi: head %d, target %d", b.head, b.term.tgt)
				}
			},
		},
		{
			// A threaded header taken to itself: the threaded block and the
			// header's own block run in turn until the deadline.
			name: "threaded header looping on itself",
			prog: isa.Program{
				{Op: isa.OpJmp, Imm: 0},
				{Op: isa.OpBeq, Ra: 0, Rb: 0, Imm: -1},
				{Op: isa.OpHalt},
			},
			check: func(t *testing.T, p *CompiledProgram) {
				if b := p.whole.blocks[0]; b.head != 1 {
					t.Fatalf("block 0: head %d, want the beq at 1", b.head)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.prog.Validate(); err != nil {
				t.Fatalf("invalid case program: %v", err)
			}
			for _, bp := range []int64{0, 3} {
				memRef := make(Memory, bank)
				memCmp := make(Memory, bank)
				for i := range memRef {
					memRef[i] = isa.Word(i * 3)
					memCmp[i] = isa.Word(i * 3)
				}
				budget := int64(100)
				regsRef, statsRef, errRef := refRun(tc.prog, memRef, 0, bp, budget)
				regsCmp, statsCmp, errCmp := compiledRun(tc.prog, memCmp, 0, bp, budget)
				diffRuns(t, fmt.Sprintf("%s (bp=%d)", tc.name, bp),
					regsRef, regsCmp, statsRef, statsCmp, memRef, memCmp, errRef, errCmp)
			}
			if tc.check != nil {
				p := Compile(isa.Predecode(tc.prog), CompileOptions{})
				p.blocksFor(true)
				tc.check(t, p)
			}
		})
	}
}

// TestCompileZeroLength pins the degenerate input: compiling an empty
// program must yield a chain whose Run halts immediately with zero Stats.
func TestCompileZeroLength(t *testing.T) {
	p := Compile(nil, CompileOptions{})
	if p.Len() != 0 || len(p.Ops()) != 0 || len(p.whole.blocks) != 0 {
		t.Fatalf("empty program compiled to %d ops, %d blocks", len(p.Ops()), len(p.whole.blocks))
	}
	c := CPU{Mem: make(Memory, 4)}
	failPC, err := p.Run(&c, 100)
	if err != nil || failPC != 0 {
		t.Fatalf("empty Run: failPC %d err %v", failPC, err)
	}
	if c.Stats != (Stats{}) {
		t.Fatalf("empty Run produced stats %+v", c.Stats)
	}
}

// TestRunAheadTrail checks a run-ahead's Trail against what the run
// retired: taking back from the first issue cycle returns all of it, from
// the stop cycle nothing, and a later cut never takes back more.
func TestRunAheadTrail(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		prog := randCompileProgram(rng, 1+rng.Intn(60), 32)
		p := Compile(isa.Predecode(prog), CompileOptions{MemLatency: int64(rng.Intn(3)), BranchPenalty: int64(rng.Intn(3))})
		c := CPU{Mem: make(Memory, 32)}
		var tr Trail
		const now = 10
		_, to := p.RunAhead(&c, 0, now, 1<<40, true, &tr)
		ran := c.Stats
		ran.Cycles = 0
		if got := p.After(&tr, now); got != ran {
			t.Fatalf("trial %d: After(start) = %+v, the run retired %+v\n%s", trial, got, ran, isa.Disassemble(prog))
		}
		if got := p.After(&tr, to); got != (Stats{}) {
			t.Fatalf("trial %d: After(stop) = %+v, want nothing\n%s", trial, got, isa.Disassemble(prog))
		}
		prev := ran
		for cut := int64(now); cut <= to; cut++ {
			got := p.After(&tr, cut)
			if got.Instructions > prev.Instructions || got.ALUOps > prev.ALUOps ||
				got.MemReads > prev.MemReads || got.MemWrites > prev.MemWrites {
				t.Fatalf("trial %d: After(%d) = %+v grew from %+v", trial, cut, got, prev)
			}
			prev = got
		}
	}
}

// issue is one instruction of an op-by-op run: the cycle it issued at and
// the work it retired.
type issue struct {
	at   int64
	work Stats
}

// issueLog steps prog op by op from pc 0 at cycle now, with the accounting
// of RunWindow, and returns each retired instruction; it stops at a fault,
// a HALT, a successor outside the program or after limit instructions.
func issueLog(prog isa.Program, mem Memory, memLat, branchPenalty, now int64, limit int) []issue {
	var regs Regs
	env := Env{Load: mem.Load, Store: mem.Store}
	var log []issue
	pc, at := 0, now
	for len(log) < limit && pc >= 0 && pc < len(prog) {
		ins := prog[pc]
		out, err := Step(&regs, pc, ins, env)
		if err != nil {
			break
		}
		in := issue{at: at, work: Stats{Instructions: 1}}
		at++
		if ins.Op.IsALU() {
			in.work.ALUOps = 1
		}
		if ins.Op.IsMemory() {
			at += memLat
			if ins.Op == isa.OpLd {
				in.work.MemReads = 1
			} else {
				in.work.MemWrites = 1
			}
		}
		if ins.Op.IsBranch() && out.NextPC != pc+1 {
			at += branchPenalty
		}
		log = append(log, in)
		pc = out.NextPC
		if out.Halted {
			break
		}
	}
	return log
}

// TestRunWindowTrailAcrossWindows resumes one window trail across many
// RunWindow calls with random horizons, some at or before the core's own
// issue cycle, so a window can stop in front of a load or store and the
// next can run nothing from there (a block that leads with a load or store
// issuing at the horizon) before a later one runs on, out of a loop too.
// After every call, After at every cut since the trail began must be the
// work the op-by-op run issued at or after that cut, and the call must
// stop at the cycle the op-by-op run issues its next instruction.
func TestRunWindowTrailAcrossWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 400; trial++ {
		prog := randCompileProgram(rng, 1+rng.Intn(40), 16)
		memLat, bp := int64(1+rng.Intn(3)), int64(rng.Intn(3))
		p := Compile(isa.Predecode(prog), CompileOptions{MemLatency: memLat, BranchPenalty: bp})
		const now = 5
		seed := make(Memory, 16)
		for i := range seed {
			seed[i] = isa.Word(rng.Intn(16))
		}
		const budget = now + 200
		ref := issueLog(prog, slices.Clone(seed), memLat, bp, now, budget)
		cum := make([]Stats, len(ref)+1)
		for k, in := range ref {
			cum[k+1] = Stats{
				Instructions: cum[k].Instructions + in.work.Instructions,
				ALUOps:       cum[k].ALUOps + in.work.ALUOps,
				MemReads:     cum[k].MemReads + in.work.MemReads,
				MemWrites:    cum[k].MemWrites + in.work.MemWrites,
			}
		}
		c := CPU{Mem: slices.Clone(seed)}
		var tr Trail
		var log WindowLog
		pc, at, retired := 0, int64(now), 0
		for call := 0; call < 60 && p.WindowAt(pc); call++ {
			if trial%2 == 1 {
				p.Prune(&tr, at)
			}
			horizon := at + int64(rng.Intn(14)) - 3
			next, to, faulted := p.RunWindow(&c, pc, at, horizon, budget, &tr, &log)
			// The window logs each load and store at the cycle the op-by-op
			// run issues it.
			for _, a := range slices.Concat(log.Loads, log.Stores) {
				k := slices.IndexFunc(ref[retired:], func(in issue) bool { return in.at == a.Cycle })
				if k < 0 || ref[retired+k].work.MemReads+ref[retired+k].work.MemWrites != 1 {
					t.Fatalf("trial %d call %d: the window logged an access at cycle %d, where the op-by-op run issues no load or store\n%s",
						trial, call, a.Cycle, isa.Disassemble(prog))
				}
			}
			log.Loads, log.Stores = log.Loads[:0], log.Stores[:0]
			retired += int(c.Stats.Instructions)
			pc, at = next, to
			if retired > len(ref) {
				t.Fatalf("trial %d call %d: windows retired %d instructions, the op-by-op run %d\n%s",
					trial, call, retired, len(ref), isa.Disassemble(prog))
			}
			if retired < len(ref) && ref[retired].at != at {
				t.Fatalf("trial %d call %d: window stopped at cycle %d, the op-by-op run issues instruction %d at %d\n%s",
					trial, call, at, retired, ref[retired].at, isa.Disassemble(prog))
			}
			for cut := tr.from; cut <= at; cut++ {
				k := sort.Search(retired, func(k int) bool { return ref[k].at >= cut })
				want := Stats{
					Instructions: cum[retired].Instructions - cum[k].Instructions,
					ALUOps:       cum[retired].ALUOps - cum[k].ALUOps,
					MemReads:     cum[retired].MemReads - cum[k].MemReads,
					MemWrites:    cum[retired].MemWrites - cum[k].MemWrites,
				}
				if got := p.After(&tr, cut); got != want {
					t.Fatalf("trial %d call %d (horizon %d): After(%d) = %+v, the op-by-op run issued %+v\n%s",
						trial, call, horizon, cut, got, want, isa.Disassemble(prog))
				}
			}
			if faulted {
				break
			}
		}
	}
}

// TestCompileBuildsBlocksOnFirstRun: Compile builds only the per-op chain;
// the first fused run builds the blocks, once, and one compiled program
// runs on several goroutines at once with the same results. The same holds
// for the table cut around loads and stores, which the first crossbar
// run-ahead builds, and for the window table, which the first window
// builds.
func TestCompileBuildsBlocksOnFirstRun(t *testing.T) {
	prog := isa.MustAssemble(`
        ldi  r1, 50
        ldi  r2, 0
loop:   addi r1, r1, -1
        st   r1, [r2+3]
        bne  r1, r2, loop
        halt`)
	p := Compile(isa.Predecode(prog), CompileOptions{})
	if p.whole.blocks != nil || p.whole.blockAt != nil || p.cut.blocks != nil || len(p.Ops()) != len(prog) {
		t.Fatalf("Compile built %d blocks before any fused run", len(p.whole.blocks)+len(p.cut.blocks))
	}
	type result struct {
		stats, ahead, win Stats
		pc, winPC         int
		at                int64
		err               error
	}
	const runs = 8
	results := make([]result, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			c := CPU{Mem: make(Memory, 8)}
			if i%2 == 0 {
				_, r.err = p.Run(&c, 1000)
			}
			r.stats = c.Stats
			var tr Trail
			c = CPU{Mem: make(Memory, 8)}
			r.pc, r.at = p.RunAhead(&c, 2, 0, 1000, false, &tr)
			r.ahead = c.Stats
			if i%2 == 1 {
				_, r.err = p.Run(&c, 1000)
			}
			c = CPU{Mem: make(Memory, 8)}
			var log WindowLog
			r.winPC, _, _ = p.RunWindow(&c, 0, 0, 1<<20, 1000, &Trail{}, &log)
			r.win = c.Stats
		}()
	}
	wg.Wait()
	for i := range runs {
		if results[i].err != nil || results[i].ahead != results[0].ahead || results[i].pc != results[0].pc ||
			results[i].at != results[0].at || i%2 == 0 && results[i].stats != results[0].stats ||
			results[i].win != results[0].win || results[i].winPC != results[0].winPC {
			t.Fatalf("run %d: %+v; run 0: %+v", i, results[i], results[0])
		}
	}
	if len(p.whole.blocks) == 0 {
		t.Fatal("no blocks after a fused run")
	}
	if len(p.cut.blocks) <= len(p.whole.blocks) {
		t.Fatalf("the crossbar table has %d blocks, the whole table %d: the store did not cut its block",
			len(p.cut.blocks), len(p.whole.blocks))
	}
	if results[0].winPC != 5 || results[0].win.MemWrites != 50 {
		t.Fatalf("a window from pc 0 stopped at %d after %+v, want the halt at 5 after 50 stores", results[0].winPC, results[0].win)
	}
	if results[0].pc != 3 || results[0].ahead.Instructions != 1 {
		t.Fatalf("crossbar run-ahead from the loop's addi stopped at %d after %+v, want the store at 3 after one op",
			results[0].pc, results[0].ahead)
	}
}

// privateProgram is randCompileProgram with every successor kept inside
// the program: branches that would leave it jump to 0, and the closing
// HALT becomes a jump back to 0, so every CFG block is private.
func privateProgram(rng *rand.Rand, n, bank int) isa.Program {
	prog := randCompileProgram(rng, n, bank)
	for pc := range prog {
		ins := &prog[pc]
		if ins.Op == isa.OpHalt {
			*ins = isa.Instruction{Op: isa.OpJmp}
		}
		if ins.Op.IsBranch() {
			if tgt := pc + 1 + int(ins.Imm); tgt < 0 || tgt >= len(prog) {
				ins.Imm = int32(-(pc + 1))
			}
		}
	}
	return prog
}

// TestRunsAheadCutAtMemoryOps: under a DP-DM crossbar (memLocal false) the
// block table is cut around every load and store. In programs whose CFG
// blocks are all private, RunsAhead is then false at every load and store
// and true exactly at the first op of each stretch between them: a CFG
// leader or the op after a load or store in the same CFG block. Direct
// DP-DM (memLocal true) keeps the whole blocks, so there it is true
// exactly at the CFG leaders. RunAhead from any pc that runs ahead
// retires no load or store and leaves memory untouched.
func TestRunsAheadCutAtMemoryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		prog := privateProgram(rng, 1+rng.Intn(40), 16)
		if err := prog.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		dec := isa.Predecode(prog)
		cfg := isa.BuildCFG(dec)
		p := Compile(dec, CompileOptions{})
		for pc := range dec {
			leader := cfg.Blocks[cfg.BlockAt[pc]].Start == int32(pc)
			afterMem := pc > 0 && dec[pc-1].IsMemory() && cfg.BlockAt[pc-1] == cfg.BlockAt[pc]
			want := !dec[pc].IsMemory() && (leader || afterMem)
			if got := p.RunsAhead(pc, false); got != want {
				t.Fatalf("trial %d: crossbar RunsAhead(%d) = %v, want %v (%v)\n%s",
					trial, pc, got, want, prog[pc].Op, isa.Disassemble(prog))
			}
			if got := p.RunsAhead(pc, true); got != leader {
				t.Fatalf("trial %d: direct RunsAhead(%d) = %v, want %v\n%s", trial, pc, got, leader, isa.Disassemble(prog))
			}
			if !want {
				continue
			}
			mem := make(Memory, 16)
			c := CPU{Mem: mem}
			for r := range c.Regs {
				c.Regs[r] = isa.Word(rng.Intn(16))
			}
			var tr Trail
			stop, _ := p.RunAhead(&c, pc, 0, 1<<20, false, &tr)
			if c.Stats.MemReads != 0 || c.Stats.MemWrites != 0 || slices.ContainsFunc(mem, func(w isa.Word) bool { return w != 0 }) {
				t.Fatalf("trial %d: crossbar RunAhead from %d ran a load or store (stats %+v)\n%s",
					trial, pc, c.Stats, isa.Disassemble(prog))
			}
			faulted := stop >= 0 && stop < len(dec) && (prog[stop].Op == isa.OpDiv || prog[stop].Op == isa.OpRem)
			if !faulted && stop >= 0 && stop < len(dec) && len(tr.blocks) < trailCap && p.RunsAhead(stop, false) {
				t.Fatalf("trial %d: crossbar RunAhead from %d stopped at %d, where it could go on\n%s",
					trial, pc, stop, isa.Disassemble(prog))
			}
		}
	}
}
