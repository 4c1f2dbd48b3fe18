package machine

import (
	"fmt"
	"slices"

	"repro/internal/isa"
	"repro/internal/memo"
)

// This file is the compile memo: the process-wide staging of guest
// programs. The same few hundred SPMD programs run on every class, cell and
// request, so each distinct (program, options) pair is validated,
// pre-decoded and compiled once and the simulators share the result.

// stageMemoSize bounds the compile memo. One pass over every servable cell
// at the served shapes stages a few hundred distinct programs (256 over
// the bench's serve-cold keys), and an entry costs a few kilobytes.
const stageMemoSize = 512

// stageKey identifies one staged program: its exact instructions
// (isa.Program.Key) and the options it was compiled under.
type stageKey struct {
	prog string
	opts CompileOptions
}

// staged is the process-wide compile memo.
var staged = memo.New[stageKey, *CompiledProgram](stageMemoSize)

// Stage returns prog validated, pre-decoded and compiled under opts. Every
// caller that stages the same instructions with the same options gets the
// same *CompiledProgram, whose per-op chain, fused blocks and decoded form
// (Decoded) are read-only and run-independent: all run state lives in the
// caller's Regs, Env, CPU and Trail. A program that fails validation
// returns the error of prog.Validate and is not memoized.
func Stage(prog isa.Program, opts CompileOptions) (*CompiledProgram, error) {
	return staged.Get(stageKey{prog: prog.Key(), opts: opts}, func() (*CompiledProgram, error) {
		if err := prog.Validate(); err != nil {
			return nil, err
		}
		return Compile(isa.Predecode(prog), opts), nil
	})
}

// Loaded is one program in the forms a simulator runs: the decoded ops
// its scheduler reads, the per-op chain it dispatches through and, for
// compiled code, the compiled program whose fused blocks it may run.
type Loaded struct {
	Dec  isa.DecodedProgram
	Ops  []OpFn
	Comp *CompiledProgram // nil for the StepOps reference
}

// Load validates prog and returns it ready to run. Compiled code comes
// from Stage and is shared; under interp the StepOps reference chain runs
// over a fresh decode and nothing comes from the memo, so the reference
// stays independent of what it is compared against.
func Load(prog isa.Program, opts CompileOptions, interp bool) (Loaded, error) {
	if interp {
		if err := prog.Validate(); err != nil {
			return Loaded{}, err
		}
		return Loaded{Dec: isa.Predecode(prog), Ops: StepOps(prog)}, nil
	}
	comp, err := Stage(prog, opts)
	if err != nil {
		return Loaded{}, err
	}
	return Loaded{Dec: comp.dec, Ops: comp.ops, Comp: comp}, nil
}

// Decoded returns the pre-decoded program p was compiled from. A staged
// program's decoded form is shared by every simulator running it: treat
// it as read-only.
func (p *CompiledProgram) Decoded() isa.DecodedProgram { return p.dec }

// StageStats describes the compile memo: its live entries and how many
// Stage calls found their program staged (Hits) or staged it (Misses).
type StageStats struct {
	Entries      int
	Hits, Misses int64
}

// StagedStats reports the compile memo's entries and lookups so far.
func StagedStats() StageStats {
	hits, misses := staged.Lookups()
	return StageStats{Entries: staged.Len(), Hits: hits, Misses: misses}
}

// VerifyStaged checks the compile memo's read-only contract: every entry's
// decoded program must still be the program its key encodes, decoded
// afresh. A simulator or caller that writes through a shared decoded
// program breaks it; VerifyStaged reports the first such entry.
func VerifyStaged() error {
	var err error
	staged.Each(func(k stageKey, p *CompiledProgram) bool {
		prog := make(isa.Program, len(p.dec))
		for pc := range p.dec {
			prog[pc] = p.dec[pc].Instruction()
		}
		switch {
		case prog.Key() != k.prog:
			err = fmt.Errorf("machine: a staged program of %d instructions no longer encodes to its key", len(prog))
		case !slices.Equal(isa.Predecode(prog), p.dec):
			err = fmt.Errorf("machine: a staged program of %d instructions no longer matches its fresh decode", len(prog))
		}
		return err == nil
	})
	return err
}
