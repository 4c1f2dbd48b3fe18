package conformance

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mimd"
	"repro/internal/progcheck"
	"repro/internal/report"
	"repro/internal/simd"
	"repro/internal/taxonomy"
	"repro/internal/uniproc"
)

// This file is the property-based half of the subsystem: randomly generated
// ISA programs executed on three instruction-flow organisations — the
// uni-processor, a 2-lane IAP-I running the broadcast program on identical
// banks, and a 2-core IMP-I running private copies — must leave identical
// memories behind. That is the lockstep-equivalence property the taxonomy
// implies: the classes share one execution model (machine.Step) and differ
// only in their switch structure, so a program with no cross-processor
// traffic cannot tell them apart.

// GenConfig sizes the random programs.
type GenConfig struct {
	// BodyLen is the number of generated instructions between the prologue
	// and the register dump.
	BodyLen int
	// DataWords is the size of the addressable data region; every generated
	// load and store lands inside it.
	DataWords int
}

// DefaultGenConfig is the sizing the sweep and the CLI use.
func DefaultGenConfig() GenConfig { return GenConfig{BodyLen: 40, DataWords: 48} }

// dumpRegs is how many registers the generated epilogue stores to memory:
// r0..r13. r14 is the reserved address base (always zero) and r15 is never
// written, so dumping the first fourteen captures the whole live state.
const dumpRegs = 14

// baseReg is the reserved address-base register. The generator never
// selects it as a destination, so [r14+imm] addressing is always in bounds.
const baseReg = 14

// MemWords returns the bank size a generated program addresses: the data
// region plus the register-dump window.
func (g GenConfig) MemWords() int { return g.DataWords + dumpRegs }

// validate checks the generator sizing.
func (g GenConfig) validate() error {
	if g.BodyLen < 1 {
		return fmt.Errorf("conformance: generator body must be >= 1 instruction, got %d", g.BodyLen)
	}
	if g.DataWords < 1 {
		return fmt.Errorf("conformance: generator data region must be >= 1 word, got %d", g.DataWords)
	}
	return nil
}

// RandomProgram generates a terminating random program: a prologue zeroing
// the address base, BodyLen instructions drawn from the deterministic ALU,
// memory and forward-branch subset of the ISA, an epilogue dumping r0..r13
// into the bank's dump window, and a final HALT.
//
// Termination is by construction: every branch is forward, so the PC is
// strictly monotonic across loops-free code. Determinism likewise: DIV/REM
// (guest faults on zero), SEND/RECV/SYNC (need a DP-DP switch) and LANE
// (differs per processor) are excluded, so the program's behaviour depends
// only on its initial memory image.
func RandomProgram(rng *rand.Rand, cfg GenConfig) (isa.Program, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prog := isa.Program{{Op: isa.OpLdi, Rd: baseReg, Imm: 0}}
	bodyEnd := 1 + cfg.BodyLen // pc of the first dump instruction

	reg := func() uint8 { return uint8(rng.Intn(dumpRegs)) }
	srcReg := func() uint8 { return uint8(rng.Intn(baseReg + 1)) } // may read the base reg

	aluOps := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSlt, isa.OpSeq, isa.OpMin, isa.OpMax}
	branchOps := []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpJmp}

	for pc := 1; pc < bodyEnd; pc++ {
		var ins isa.Instruction
		switch pick := rng.Intn(100); {
		case pick < 40: // ALU register-register
			ins = isa.Instruction{Op: aluOps[rng.Intn(len(aluOps))], Rd: reg(), Ra: srcReg(), Rb: srcReg()}
		case pick < 55: // immediates
			switch rng.Intn(3) {
			case 0:
				ins = isa.Instruction{Op: isa.OpLdi, Rd: reg(), Imm: int32(rng.Intn(201) - 100)}
			case 1:
				ins = isa.Instruction{Op: isa.OpAddi, Rd: reg(), Ra: srcReg(), Imm: int32(rng.Intn(65) - 32)}
			default:
				ins = isa.Instruction{Op: isa.OpMuli, Rd: reg(), Ra: srcReg(), Imm: int32(rng.Intn(9) - 4)}
			}
		case pick < 70: // load
			ins = isa.Instruction{Op: isa.OpLd, Rd: reg(), Ra: baseReg, Imm: int32(rng.Intn(cfg.DataWords))}
		case pick < 85: // store
			ins = isa.Instruction{Op: isa.OpSt, Rb: reg(), Ra: baseReg, Imm: int32(rng.Intn(cfg.DataWords))}
		case pick < 95: // forward branch: target in (pc, bodyEnd]
			op := branchOps[rng.Intn(len(branchOps))]
			target := pc + 1 + rng.Intn(bodyEnd-pc)
			ins = isa.Instruction{Op: op, Imm: int32(target - (pc + 1))}
			if op != isa.OpJmp {
				ins.Ra, ins.Rb = srcReg(), srcReg()
			}
		default:
			ins = isa.Instruction{Op: isa.OpNop}
		}
		prog = append(prog, ins)
	}
	for r := 0; r < dumpRegs; r++ {
		prog = append(prog, isa.Instruction{Op: isa.OpSt, Rb: uint8(r), Ra: baseReg,
			Imm: int32(cfg.DataWords + r)})
	}
	prog = append(prog, isa.Instruction{Op: isa.OpHalt})
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("conformance: generated an invalid program: %w", err)
	}
	return prog, nil
}

// randomImage builds the initial data-region image the lockstep machines
// share.
func randomImage(rng *rand.Rand, cfg GenConfig) []isa.Word {
	img := make([]isa.Word, cfg.DataWords)
	for i := range img {
		img[i] = isa.Word(rng.Intn(101) - 50)
	}
	return img
}

// LockstepResult reports one generated program's differential run.
type LockstepResult struct {
	Seed int64  `json:"seed"`
	Pass bool   `json:"pass"`
	Err  string `json:"error,omitempty"`
	// Program holds the disassembly of the offending program on failure,
	// for reproduction.
	Program string `json:"program,omitempty"`
}

// lockstepProcs is the lane/core count of the parallel machines in the
// differential run. Two is the smallest count the simulators accept and
// every extra unit repeats identical work, so two is also the fastest.
const lockstepProcs = 2

// lockstepIAP and lockstepIMP are the classes of the parallel machines in
// the differential run: their direct DP-DM switches give every lane and
// core a bank of its own, loaded with the uni-processor's image.
var lockstepIAP, lockstepIMP = mustClass("IAP-I"), mustClass("IMP-I")

// mustClass looks up a Table I class the differential run names.
func mustClass(name string) taxonomy.Class {
	c, err := taxonomy.LookupString(name)
	if err != nil {
		panic(err)
	}
	return c
}

// LockstepCheck generates the program for one seed, runs it on the three
// machines and diffs the outcomes: every lane and core bank must equal the
// uni-processor's final memory word-for-word (the register dump makes
// register divergence a memory diff too), and the per-processor operation
// counts must agree with the uni-processor's.
func LockstepCheck(seed int64) LockstepResult {
	return lockstepCheck(seed, DefaultGenConfig())
}

func lockstepCheck(seed int64, cfg GenConfig) LockstepResult {
	r := LockstepResult{Seed: seed}
	fail := func(err error, prog isa.Program) LockstepResult {
		r.Err = err.Error()
		if prog != nil {
			r.Program = isa.Disassemble(prog)
		}
		return r
	}
	rng := rand.New(rand.NewSource(seed))
	prog, err := RandomProgram(rng, cfg)
	if err != nil {
		return fail(err, nil)
	}
	img := randomImage(rng, cfg)
	bank := cfg.MemWords()

	// Static gate: every generated program must be check-clean (generated
	// code reads zero-initialised registers, so Info findings are fine) and
	// provably bounded — the checker's verdicts are differentially pinned
	// against thousands of real executions here.
	rep := progcheck.Check(prog, progcheck.Target{MemWords: bank, Procs: 1})
	if !rep.Clean(report.SevWarn) {
		return fail(fmt.Errorf("progcheck: generated program is not check-clean:\n%s", rep.Text()), prog)
	}
	if !rep.Budget.Bounded {
		return fail(fmt.Errorf("progcheck: generated program not provably bounded: %s", rep.Budget.Reason), prog)
	}

	// Uni-processor: the reference execution.
	uni, err := uniproc.New(uniproc.Config{MemWords: bank}, prog)
	if err != nil {
		return fail(err, prog)
	}
	defer uni.Release()
	uniMem, uniStats, err := uni.RunWithInput(img, 0, bank)
	if err != nil {
		return fail(fmt.Errorf("uniproc: %w", err), prog)
	}
	if uniStats.Cycles > rep.Budget.MaxCycles {
		return fail(fmt.Errorf("progcheck: measured %d cycles exceed the static worst-case bound %d",
			uniStats.Cycles, rep.Budget.MaxCycles), prog)
	}

	// 2-lane IAP-I: the broadcast program over identical banks.
	arr, err := simd.New(simd.Config{Lanes: lockstepProcs, BankWords: bank, Class: lockstepIAP}, prog)
	if err != nil {
		return fail(err, prog)
	}
	defer arr.Release()
	for lane := 0; lane < lockstepProcs; lane++ {
		if err := arr.LoadBank(lane, 0, img); err != nil {
			return fail(err, prog)
		}
	}
	simdStats, err := arr.Run()
	if err != nil {
		return fail(fmt.Errorf("simd: %w", err), prog)
	}
	for lane := 0; lane < lockstepProcs; lane++ {
		laneMem, err := arr.ReadBank(lane, 0, bank)
		if err != nil {
			return fail(err, prog)
		}
		if err := diffMemory(fmt.Sprintf("IAP-I lane %d", lane), "uniproc", laneMem, uniMem); err != nil {
			return fail(err, prog)
		}
	}

	// 2-core IMP-I: private program copies over identical banks.
	images := make([]isa.Program, lockstepProcs)
	for i := range images {
		images[i] = prog
	}
	mp, err := mimd.New(mimd.Config{Cores: lockstepProcs, BankWords: bank, Class: lockstepIMP}, images)
	if err != nil {
		return fail(err, prog)
	}
	defer mp.Release()
	for core := 0; core < lockstepProcs; core++ {
		if err := mp.LoadBank(core, 0, img); err != nil {
			return fail(err, prog)
		}
	}
	mimdStats, err := mp.Run()
	if err != nil {
		return fail(fmt.Errorf("mimd: %w", err), prog)
	}
	for core := 0; core < lockstepProcs; core++ {
		coreMem, err := mp.ReadBank(core, 0, bank)
		if err != nil {
			return fail(err, prog)
		}
		if err := diffMemory(fmt.Sprintf("IMP-I core %d", core), "uniproc", coreMem, uniMem); err != nil {
			return fail(err, prog)
		}
	}

	if err := diffStats(uniStats, simdStats, mimdStats); err != nil {
		return fail(err, prog)
	}
	r.Pass = true
	return r
}

// diffMemory compares one machine's final bank against the reference run,
// named ref in the message: the uni-processor in the lockstep sweep, the
// interp run in the executor sweep.
func diffMemory(who, ref string, got, want []isa.Word) error {
	if len(got) != len(want) {
		return fmt.Errorf("conformance: %s bank has %d words, %s has %d", who, len(got), ref, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("conformance: %s diverged at word %d: %d, %s says %d", who, i, got[i], ref, want[i])
		}
	}
	return nil
}

// diffStats checks the per-processor operation accounting across the three
// machines. Data instructions retire once per lane/core, so the ALU and
// memory counters must be exactly lockstepProcs times the uni-processor's;
// the MIMD cores each execute the complete program, so their total
// instruction count doubles too (the IAP's scalar branches retire once in
// the shared instruction processor, so its total only falls in between).
func diffStats(uni, simdStats, mimdStats machine.Stats) error {
	type rel struct {
		name      string
		uni, got  int64
		wantTimes int64
	}
	rels := []rel{
		{"simd ALU ops", uni.ALUOps, simdStats.ALUOps, lockstepProcs},
		{"simd mem reads", uni.MemReads, simdStats.MemReads, lockstepProcs},
		{"simd mem writes", uni.MemWrites, simdStats.MemWrites, lockstepProcs},
		{"mimd ALU ops", uni.ALUOps, mimdStats.ALUOps, lockstepProcs},
		{"mimd mem reads", uni.MemReads, mimdStats.MemReads, lockstepProcs},
		{"mimd mem writes", uni.MemWrites, mimdStats.MemWrites, lockstepProcs},
		{"mimd instructions", uni.Instructions, mimdStats.Instructions, lockstepProcs},
	}
	for _, r := range rels {
		if r.got != r.uni*r.wantTimes {
			return fmt.Errorf("conformance: %s = %d, want %d x uniproc's %d", r.name, r.got, r.wantTimes, r.uni)
		}
	}
	if simdStats.Instructions < uni.Instructions || simdStats.Instructions > lockstepProcs*uni.Instructions {
		return fmt.Errorf("conformance: simd instructions = %d outside [%d, %d]",
			simdStats.Instructions, uni.Instructions, lockstepProcs*uni.Instructions)
	}
	return nil
}

// LockstepSweep runs count seeds starting at baseSeed and reports each
// result plus whether all of them held the lockstep-equivalence property.
func LockstepSweep(baseSeed int64, count int) ([]LockstepResult, bool) {
	return LockstepSweepParallel(context.Background(), baseSeed, count, 1)
}

// LockstepSweepParallel is LockstepSweep across the given number of
// workers (<= 0 means GOMAXPROCS). Each seed owns its rand.Rand and its
// machines, so seeds are independent; results land in seed order whatever
// the worker count.
func LockstepSweepParallel(ctx context.Context, baseSeed int64, count, workers int) ([]LockstepResult, bool) {
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = baseSeed + int64(i)
	}
	batch := exec.Map(ctx, workers, seeds, func(ctx context.Context, seed int64) (LockstepResult, error) {
		return LockstepCheck(seed), nil
	})
	results := make([]LockstepResult, count)
	allPass := true
	for i, r := range batch {
		if r.Err != nil {
			results[i] = LockstepResult{Seed: seeds[i], Err: r.Err.Error()}
		} else {
			results[i] = r.Value
		}
		allPass = allPass && results[i].Pass
	}
	return results, allPass
}
