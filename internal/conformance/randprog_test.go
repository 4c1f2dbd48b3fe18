package conformance

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

// TestLockstepSweep is the tentpole property test: fifty generated programs
// behave identically on the uni-processor, the 2-lane array processor and
// the 2-core multi-processor.
func TestLockstepSweep(t *testing.T) {
	results, allPass := LockstepSweep(1, 50)
	if !allPass {
		for _, r := range results {
			if !r.Pass {
				t.Errorf("seed %d: %s\nprogram:\n%s", r.Seed, r.Err, r.Program)
			}
		}
	}
}

func TestRandomProgramDeterministic(t *testing.T) {
	cfg := DefaultGenConfig()
	p1, err := RandomProgram(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := RandomProgram(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p2) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("same seed, different instruction at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestRandomProgramShape checks the structural guarantees the generator
// makes: validity, the exact length, a trailing HALT, forward-only
// branches, and memory operands inside the bank.
func TestRandomProgramShape(t *testing.T) {
	cfg := DefaultGenConfig()
	for seed := int64(0); seed < 25; seed++ {
		prog, err := RandomProgram(rand.New(rand.NewSource(seed)), cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantLen := 1 + cfg.BodyLen + dumpRegs + 1
		if len(prog) != wantLen {
			t.Fatalf("seed %d: program of %d instructions, want %d", seed, len(prog), wantLen)
		}
		if prog[len(prog)-1].Op != isa.OpHalt {
			t.Errorf("seed %d: program does not end in HALT", seed)
		}
		for pc, ins := range prog {
			if ins.Op.IsBranch() && ins.Imm < 0 {
				t.Errorf("seed %d: backward branch at pc %d: %v", seed, pc, ins)
			}
			if ins.Op.IsMemory() {
				if ins.Ra != baseReg {
					t.Errorf("seed %d: memory op at pc %d uses base r%d, want r%d", seed, pc, ins.Ra, baseReg)
				}
				if ins.Imm < 0 || int(ins.Imm) >= cfg.MemWords() {
					t.Errorf("seed %d: memory op at pc %d addresses %d outside bank of %d", seed, pc, ins.Imm, cfg.MemWords())
				}
			}
			if ins.Op == isa.OpSend || ins.Op == isa.OpRecv || ins.Op == isa.OpSync ||
				ins.Op == isa.OpDiv || ins.Op == isa.OpRem || ins.Op == isa.OpLane {
				t.Errorf("seed %d: non-deterministic or class-dependent op %v at pc %d", seed, ins.Op, pc)
			}
		}
	}
}

func TestGenConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  GenConfig
	}{
		{"zero body", GenConfig{BodyLen: 0, DataWords: 8}},
		{"zero data", GenConfig{BodyLen: 8, DataWords: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RandomProgram(rand.New(rand.NewSource(1)), tc.cfg); err == nil {
				t.Error("RandomProgram accepted an invalid config")
			}
		})
	}
}

// TestDiffMemoryDetectsDivergence exercises the detector half of the
// differ directly, and pins its messages, which name the reference they
// compare against: the uni-processor in the lockstep sweep, the interp run
// in the executor sweep.
func TestDiffMemoryDetectsDivergence(t *testing.T) {
	if err := diffMemory("x", "uniproc", []isa.Word{1, 2}, []isa.Word{1, 2}); err != nil {
		t.Errorf("identical memories diffed: %v", err)
	}
	for _, tc := range []struct {
		ref       string
		got, want []isa.Word
		msg       string
	}{
		{"uniproc", []isa.Word{1, 3}, []isa.Word{1, 2}, "conformance: x diverged at word 1: 3, uniproc says 2"},
		{"interp", []isa.Word{1, 3}, []isa.Word{1, 2}, "conformance: x diverged at word 1: 3, interp says 2"},
		{"interp", []isa.Word{1}, []isa.Word{1, 2}, "conformance: x bank has 1 words, interp has 2"},
	} {
		if err := diffMemory("x", tc.ref, tc.got, tc.want); err == nil || err.Error() != tc.msg {
			t.Errorf("diffMemory(%v, %v) against %s = %v, want %q", tc.got, tc.want, tc.ref, err, tc.msg)
		}
	}
}

func TestDiffStatsDetectsDivergence(t *testing.T) {
	uni := machine.Stats{Instructions: 10, ALUOps: 4, MemReads: 3, MemWrites: 2}
	good := machine.Stats{Instructions: 20, ALUOps: 8, MemReads: 6, MemWrites: 4}
	simdOK := machine.Stats{Instructions: 15, ALUOps: 8, MemReads: 6, MemWrites: 4}
	if err := diffStats(uni, simdOK, good); err != nil {
		t.Errorf("consistent stats diffed: %v", err)
	}
	badALU := simdOK
	badALU.ALUOps++
	if err := diffStats(uni, badALU, good); err == nil {
		t.Error("inconsistent simd ALU count passed")
	}
	badMimd := good
	badMimd.Instructions--
	if err := diffStats(uni, simdOK, badMimd); err == nil {
		t.Error("inconsistent mimd instruction count passed")
	}
	badSimdIns := simdOK
	badSimdIns.Instructions = 25 // above the lockstepProcs x uniproc ceiling
	if err := diffStats(uni, badSimdIns, good); err == nil {
		t.Error("simd instruction count above the ceiling passed")
	}
	badSimdIns.Instructions = 9 // below the uniproc floor
	if err := diffStats(uni, badSimdIns, good); err == nil {
		t.Error("simd instruction count below the floor passed")
	}
}

// TestLockstepCheckReportsProgram: a failing run must carry the program
// disassembly for reproduction. Forced by running a config whose dump
// window is valid but whose data region the reference machines disagree
// on — there is no such config, so instead corrupt via the seam: a bank
// too small for the dump would fail generation, which must not be
// reported as a lockstep failure. The observable contract tested here is
// simply that pass results carry no program text.
func TestLockstepResultShape(t *testing.T) {
	r := LockstepCheck(7)
	if !r.Pass {
		t.Fatalf("seed 7 failed: %s", r.Err)
	}
	if r.Program != "" || r.Err != "" {
		t.Errorf("passing result carries diagnostics: %+v", r)
	}
	if !strings.Contains(isa.Disassemble(mustProg(t, 7)), "halt") {
		t.Error("disassembly of generated program lacks halt")
	}
}

// TestLockstepCheckBadConfig: a config the generator rejects must surface
// as a failing result, not a panic, and must carry no program text (there
// is no program to reproduce with).
func TestLockstepCheckBadConfig(t *testing.T) {
	r := lockstepCheck(1, GenConfig{BodyLen: 0, DataWords: 8})
	if r.Pass {
		t.Fatal("invalid generator config passed")
	}
	if r.Err == "" || r.Program != "" {
		t.Errorf("bad-config result: %+v", r)
	}
}

func mustProg(t *testing.T, seed int64) isa.Program {
	t.Helper()
	p, err := RandomProgram(rand.New(rand.NewSource(seed)), DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
