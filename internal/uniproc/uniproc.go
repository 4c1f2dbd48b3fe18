// Package uniproc simulates the taxonomy's instruction-flow uni-processor
// (class IUP, Table I row 6): one instruction processor fetching from its
// own instruction memory, driving one data processor with one data memory,
// all through direct '-' switches. This is the Von Neumann baseline every
// flexibility argument in the paper is anchored to (flexibility 0: the
// organisation cannot be changed, although any algorithm can be expressed
// given enough instruction storage).
package uniproc

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// Config sizes the machine and its timing model.
type Config struct {
	// MemWords is the data-memory size in words.
	MemWords int
	// MaxCycles bounds the run; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
	// MemLatency is the extra cycles a load/store spends traversing the
	// DP-DM switch; 0 means the default single cycle.
	MemLatency int64
	// BranchPenalty is the extra cycles a taken branch costs (a simple
	// pipeline-refill model); 0 means taken branches are free beyond their
	// issue cycle.
	BranchPenalty int64
	// Trace, when non-nil, is called before each instruction executes with
	// the program counter, the instruction and a snapshot of the register
	// file. Use it for debugging guest programs; it does not affect timing.
	Trace func(pc int, ins isa.Instruction, regs machine.Regs)
	// Tracer, when non-nil, receives run events (instruction retirements,
	// memory traffic) on track 0. Nil disables tracing at zero cost; an
	// *obs.Tally takes the run's events folded (see Run).
	Tracer obs.Tracer
	// Interp runs the machine.StepOps reference chain instead of the
	// compiled code, for the differential sweeps that pin the two equal.
	Interp bool
}

// DefaultConfig returns a 64 KiW data memory and the default cycle budget.
func DefaultConfig() Config {
	return Config{MemWords: 1 << 16}
}

// Machine is one instruction-flow uni-processor instance.
type Machine struct {
	cfg  Config
	prog isa.Program
	dec  isa.DecodedProgram
	mem  machine.Memory
	// ops is the per-op chain the observed path dispatches through; comp
	// runs the fused blocks and is nil for the Interp reference.
	ops  []machine.OpFn
	comp *machine.CompiledProgram
}

// New builds a uni-processor loaded with the given program. The program's
// decoded ops and compiled code come from machine.Stage, shared with every
// machine running the same program, and the data bank comes from the
// shared pool; call Release when done with the machine to recycle it.
func New(cfg Config, prog isa.Program) (*Machine, error) {
	if cfg.MemWords <= 0 {
		return nil, fmt.Errorf("uniproc: data memory must have at least one word, got %d", cfg.MemWords)
	}
	if cfg.MemLatency < 0 || cfg.BranchPenalty < 0 {
		return nil, fmt.Errorf("uniproc: negative timing parameters")
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("uniproc: empty program")
	}
	ld, err := machine.Load(prog, machine.CompileOptions{
		MemLatency:    cfg.MemLatency,
		BranchPenalty: cfg.BranchPenalty,
	}, cfg.Interp)
	if err != nil {
		return nil, fmt.Errorf("uniproc: %w", err)
	}
	mem, err := machine.GetMemory(cfg.MemWords)
	if err != nil {
		return nil, err
	}
	return &Machine{cfg: cfg, prog: prog, dec: ld.Dec, mem: mem, ops: ld.Ops, comp: ld.Comp}, nil
}

// Release returns the machine's pooled buffers. The machine (including any
// Memory slice previously obtained from it) must not be used afterwards.
func (m *Machine) Release() {
	machine.PutMemory(m.mem)
	m.mem = nil
}

// Memory exposes the data memory for loading inputs and reading results.
func (m *Machine) Memory() machine.Memory { return m.mem }

// Program returns the loaded program.
func (m *Machine) Program() isa.Program { return m.prog }

// Run executes the program to HALT (or until it falls off the end) and
// returns the run statistics. Memory operations cost one extra cycle for
// the DP-DM traversal, matching the one-cycle direct-switch model of
// internal/interconnect.
//
// The compiled code runs fused basic blocks with batched accounting when
// nothing observes individual instructions, and its threaded per-op chain
// when a Trace callback or a Tracer that keeps events does. A Tracer that
// is an *obs.Tally only counts, so the fused run folds the events its
// Stats stand for into it once, at the end. Config.Interp steps every run
// through machine.Step. Results, Stats, traced events and the Tally's
// count and totals are identical across all of them.
func (m *Machine) Run() (machine.Stats, error) {
	var stats machine.Stats
	budget := m.cfg.MaxCycles
	if budget <= 0 {
		budget = machine.DefaultMaxCycles
	}
	tally, _ := m.cfg.Tracer.(*obs.Tally)
	if m.comp != nil && (m.cfg.Tracer == nil || tally != nil) && m.cfg.Trace == nil {
		cpu := machine.CPU{Mem: m.mem}
		failPC, err := m.comp.Run(&cpu, budget)
		if tally != nil {
			machine.FoldPrivate(tally, cpu.Stats, 1)
		}
		if err != nil {
			if errors.Is(err, machine.ErrDeadline) {
				return cpu.Stats, fmt.Errorf("uniproc: %w after %d cycles", machine.ErrDeadline, cpu.Stats.Cycles)
			}
			return cpu.Stats, fmt.Errorf("uniproc: pc %d: %w", failPC, err)
		}
		return cpu.Stats, nil
	}

	var regs machine.Regs
	tr := m.cfg.Tracer
	env := machine.Env{
		Lane:   0,
		Load:   m.mem.Load,
		Store:  m.mem.Store,
		Tracer: tr,
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(m.dec) {
			return stats, nil // fell off the program: implicit halt
		}
		if stats.Cycles >= budget {
			return stats, fmt.Errorf("uniproc: %w after %d cycles", machine.ErrDeadline, stats.Cycles)
		}
		d := &m.dec[pc]
		if m.cfg.Trace != nil {
			m.cfg.Trace(pc, d.Instruction(), regs)
		}
		issue := stats.Cycles
		env.Now = issue
		out, err := m.ops[pc](&regs, &env)
		if err != nil {
			return stats, fmt.Errorf("uniproc: pc %d: %w", pc, err)
		}
		stats.Cycles++
		stats.Instructions++
		isALU := d.IsALU()
		if isALU {
			stats.ALUOps++
		}
		if d.IsMemory() {
			memLat := m.cfg.MemLatency
			if memLat == 0 {
				memLat = 1 // default DP-DM direct-switch traversal
			}
			stats.Cycles += memLat
			if d.Op == isa.OpLd {
				stats.MemReads++
			} else {
				stats.MemWrites++
			}
		}
		if d.IsBranch() && out.NextPC != pc+1 {
			stats.Cycles += m.cfg.BranchPenalty
		}
		if tr != nil {
			flags := obs.FlagHasOp
			if isALU {
				flags |= obs.FlagALU
			}
			tr.Emit(obs.Event{Kind: obs.KindInstr, Flags: flags, Track: 0,
				Cycle: issue, Dur: stats.Cycles - issue, Arg: int64(d.Op)})
		}
		pc = out.NextPC
		if out.Halted {
			return stats, nil
		}
	}
}

// RunWithInput copies input into data memory at base 0, runs, and reads
// back n output words from outBase: the convenience entry the workload
// kernels use.
func (m *Machine) RunWithInput(input []isa.Word, outBase, n int) ([]isa.Word, machine.Stats, error) {
	if err := m.mem.CopyIn(0, input); err != nil {
		return nil, machine.Stats{}, fmt.Errorf("uniproc: %w", err)
	}
	stats, err := m.Run()
	if err != nil {
		return nil, stats, err
	}
	out, err := m.mem.CopyOut(outBase, n)
	if err != nil {
		return nil, stats, fmt.Errorf("uniproc: %w", err)
	}
	return out, stats, nil
}
