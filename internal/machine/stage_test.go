package machine

import (
	"slices"
	"testing"

	"repro/internal/isa"
)

// stageProg is a small valid program, distinct per k.
func stageProg(k int32) isa.Program {
	return isa.Program{
		{Op: isa.OpLdi, Rd: 1, Imm: k},
		{Op: isa.OpAddi, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.OpHalt},
	}
}

// TestStageSharesByContent: equal instructions under equal options are
// one staged program, whichever slice holds them; other options or other
// instructions are entries of their own; the staged form is the program's
// own decode and compile.
func TestStageSharesByContent(t *testing.T) {
	a, err := Stage(stageProg(41), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Stage(slices.Clone(stageProg(41)), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal programs in separate slices were staged twice")
	}
	if c, _ := Stage(stageProg(41), CompileOptions{BranchPenalty: 2}); c == a {
		t.Error("other compile options share an entry")
	}
	if c, _ := Stage(stageProg(42), CompileOptions{}); c == a {
		t.Error("another program shares an entry")
	}
	if !slices.Equal(a.Decoded(), isa.Predecode(stageProg(41))) || a.Len() != 3 || len(a.Ops()) != 3 {
		t.Error("the staged program is not the program's decode and compile")
	}
	if n := StagedStats().Entries; n > stageMemoSize || staged.Max() != stageMemoSize {
		t.Errorf("memo holds %d entries, bound %d (want bound %d)", n, staged.Max(), stageMemoSize)
	}
}

// TestStageErrorsAreNotMemoized: an invalid program fails with its
// Validate error every time and leaves no entry.
func TestStageErrorsAreNotMemoized(t *testing.T) {
	bad := isa.Program{{Op: isa.OpBeq, Imm: 9}, {Op: isa.OpHalt}}
	want := bad.Validate()
	before := StagedStats()
	for range 2 {
		if p, err := Stage(bad, CompileOptions{}); p != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("Stage(invalid) = %v, %v; want nil, %v", p, err, want)
		}
	}
	after := StagedStats()
	if after.Misses-before.Misses != 2 || after.Entries > before.Entries {
		t.Errorf("two failed stagings: %d misses, entries %d -> %d; want 2 misses, no new entry",
			after.Misses-before.Misses, before.Entries, after.Entries)
	}
}

// TestLoadInterpStagesNothing: the StepOps reference never takes or adds
// a memo entry, and compiled Load is Stage.
func TestLoadInterpStagesNothing(t *testing.T) {
	prog := stageProg(43)
	before := StagedStats()
	ref, err := Load(prog, CompileOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if after := StagedStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Error("the reference looked up the compile memo")
	}
	if ref.Comp != nil || len(ref.Ops) != len(prog) || !slices.Equal(ref.Dec, isa.Predecode(prog)) {
		t.Error("the reference is not a fresh decode with its StepOps chain")
	}
	ld, err := Load(prog, CompileOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	staged, _ := Stage(prog, CompileOptions{})
	if ld.Comp != staged || &ld.Dec[0] != &staged.Decoded()[0] {
		t.Error("compiled Load is not the staged program")
	}
	if _, err := Load(isa.Program{{Op: isa.OpJmp, Imm: -5}}, CompileOptions{}, true); err == nil {
		t.Error("the reference loaded an invalid program")
	}
}

// TestVerifyStagedCatchesWrites: a write through a staged program's shared
// decoded form is reported, and the memo verifies clean otherwise.
func TestVerifyStagedCatchesWrites(t *testing.T) {
	p, err := Stage(stageProg(44), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStaged(); err != nil {
		t.Fatalf("clean memo: %v", err)
	}
	dec := p.Decoded()
	for _, write := range []func(d *isa.DecodedOp){
		func(d *isa.DecodedOp) { d.Imm++ },
		func(d *isa.DecodedOp) { d.Flags ^= isa.DecMem },
	} {
		saved := dec[1]
		write(&dec[1])
		err := VerifyStaged()
		dec[1] = saved
		if err == nil {
			t.Error("a write through a staged program went unnoticed")
		}
	}
}
