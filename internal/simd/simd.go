// Package simd simulates the taxonomy's instruction-flow array processors
// (classes IAP-I..IV, Table I rows 7-10): a single instruction processor
// broadcasting one instruction stream to n data-processor lanes in
// lockstep. The four sub-types differ exactly as the taxonomy says they do:
//
//	IAP-I   DP-DM direct, DP-DP none      — each lane sees only its own bank
//	IAP-II  DP-DM direct, DP-DP crossbar  — lanes exchange values directly
//	IAP-III DP-DM crossbar, DP-DP none    — lanes gather/scatter any bank
//	IAP-IV  DP-DM crossbar, DP-DP crossbar
//
// The operational consequences are what §III.B narrates: IAP-I cannot run a
// kernel that moves data between lanes at all, IAP-II does it through the
// lane network, IAP-III does it through the memory crossbar, and all pay
// contention cycles on their crossbars. Control flow is scalar and lives in
// the instruction processor, which evaluates branches on lane 0's register
// file (the control-lane convention of real array machines).
package simd

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

// Config describes one array-processor instance.
type Config struct {
	// Lanes is the number of data processors n.
	Lanes int
	// BankWords is the size of each lane's data-memory bank.
	BankWords int
	// Class is the IAP row of Table I the machine realizes. Its DP-DM
	// switch is direct (own bank only, local addressing) or a crossbar
	// (global addressing across all banks); its DP-DP lane network is
	// none or a crossbar.
	Class taxonomy.Class
	// MaxCycles bounds the run; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
	// Tracer, when non-nil, receives run events: one track per lane, plus
	// network stalls on the source lane's track. Nil disables tracing.
	Tracer obs.Tracer
	// Interp runs the machine.StepOps reference chain instead of the
	// compiled code, for the differential sweeps that pin the two equal.
	Interp bool
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Lanes < 2 {
		return fmt.Errorf("simd: an array processor needs n >= 2 lanes, got %d (use uniproc for 1)", c.Lanes)
	}
	if c.BankWords < 1 {
		return fmt.Errorf("simd: bank size must be >= 1 word, got %d", c.BankWords)
	}
	if err := c.Class.Require(taxonomy.InstructionFlow, taxonomy.ArrayProcessor); err != nil {
		return fmt.Errorf("simd: %w", err)
	}
	return nil
}

// Machine is one array-processor instance.
type Machine struct {
	cfg Config
	dec isa.DecodedProgram
	// Banks is the lanes' data side: banks, DP-DM crossbar, lane network
	// and mailboxes. Run sets its Now/Finish once per broadcast.
	*machine.Banks
	// regs comes from the register pool.
	regs []machine.Regs
	// ops is the per-op chain for per-lane and scalar dispatch; vec is the
	// compiled code's vectorized lane path (nil entries fall back to ops),
	// nil for the Interp reference.
	ops []machine.OpFn
	vec []vecFn
}

// New builds an array processor loaded with one broadcast program. The
// program's decoded ops and compiled code come from machine.Stage, and the
// banks and register files from the shared pools; call Release to recycle
// them.
func New(cfg Config, prog isa.Program) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(prog) == 0 {
		return nil, fmt.Errorf("simd: empty program")
	}
	ld, err := machine.Load(prog, machine.CompileOptions{}, cfg.Interp)
	if err != nil {
		return nil, fmt.Errorf("simd: %w", err)
	}
	banks, err := machine.NewBanks(machine.BankConfig{Pkg: "simd", Noun: "lane", Procs: cfg.Lanes,
		BankWords: cfg.BankWords, DPDM: cfg.Class.Links[taxonomy.SiteDPDM], DPDP: cfg.Class.Links[taxonomy.SiteDPDP],
		Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, dec: ld.Dec, ops: ld.Ops, regs: machine.GetRegs(cfg.Lanes)}
	m.Banks = banks
	if !cfg.Interp {
		m.vec = m.compileVec()
	}
	return m, nil
}

// Release returns the machine's pooled banks and register files. The
// machine must not be used afterwards.
func (m *Machine) Release() {
	m.Banks.Release()
	machine.PutRegs(m.regs)
	m.regs = nil
}

// Lanes returns the lane count.
func (m *Machine) Lanes() int { return m.cfg.Lanes }

// Run executes the broadcast program until the control lane halts. Lockstep
// semantics: every instruction issues on all lanes in the same cycle; the
// cycle counter advances by the worst lane's completion (memory/network
// contention included). Branch conditions read lane 0's registers.
func (m *Machine) Run() (machine.Stats, error) {
	var stats machine.Stats
	budget := m.cfg.MaxCycles
	if budget <= 0 {
		budget = machine.DefaultMaxCycles
	}
	pc := 0
	for {
		if pc < 0 || pc >= len(m.dec) {
			stats.NetConflictCycles += m.ConflictCycles()
			return stats, nil
		}
		if stats.Cycles >= budget {
			stats.NetConflictCycles += m.ConflictCycles()
			return stats, fmt.Errorf("simd: %w after %d cycles", machine.ErrDeadline, stats.Cycles)
		}
		d := &m.dec[pc]
		issue := stats.Cycles
		finish := issue + 1
		tr := m.cfg.Tracer

		switch {
		case d.IsBranch():
			// Scalar control: the IP evaluates the branch on lane 0.
			env := machine.Env{Lane: 0}
			out, err := m.ops[pc](&m.regs[0], &env)
			if err != nil {
				stats.NetConflictCycles += m.ConflictCycles()
				return stats, fmt.Errorf("simd: pc %d: %w", pc, err)
			}
			stats.Instructions++
			stats.Cycles = finish
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: 0,
					Cycle: issue, Dur: 1, Arg: int64(d.Op)})
			}
			pc = out.NextPC
			continue

		case d.Op == isa.OpHalt:
			stats.Instructions++
			stats.Cycles = finish
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: 0,
					Cycle: issue, Dur: 1, Arg: int64(d.Op)})
			}
			stats.NetConflictCycles += m.ConflictCycles()
			return stats, nil

		case d.Op == isa.OpSync:
			// Lockstep lanes are always synchronized; SYNC is a no-op cycle.
			stats.Instructions++
			stats.Barriers++
			stats.Cycles = finish
			if tr != nil {
				tr.Emit(obs.Event{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: 0,
					Cycle: issue, Dur: 1, Arg: int64(d.Op)})
				tr.Emit(obs.Event{Kind: obs.KindBarrier, Track: obs.TrackMachine, Cycle: finish})
			}
			pc++
			continue
		}

		// Data instruction: broadcast to every lane. The vectorized path
		// steps the op across all lanes over the register and bank slices;
		// ops it does not cover — and every traced run, whose per-lane
		// events are part of the executor-equivalence contract — use the
		// per-lane path through the prebuilt environments.
		m.Now, m.Finish = issue, finish
		isALU := d.IsALU()
		if m.vec != nil && tr == nil && m.vec[pc] != nil {
			if lane, err := m.vec[pc](m, &stats); err != nil {
				stats.NetConflictCycles += m.ConflictCycles()
				return stats, fmt.Errorf("simd: lane %d pc %d: %w", lane, pc, err)
			}
			stats.Cycles = m.Finish
			pc++
			continue
		}
		for lane := 0; lane < m.cfg.Lanes; lane++ {
			env := m.Env(lane)
			env.Now = issue
			out, err := m.ops[pc](&m.regs[lane], env)
			if err != nil {
				stats.NetConflictCycles += m.ConflictCycles()
				return stats, fmt.Errorf("simd: lane %d pc %d: %w", lane, pc, err)
			}
			if out.Blocked {
				stats.NetConflictCycles += m.ConflictCycles()
				return stats, fmt.Errorf("simd: lane %d pc %d: recv with no matching send (lockstep exchange mismatch)", lane, pc)
			}
			stats.Instructions++
			if isALU {
				stats.ALUOps++
			}
			if d.IsMemory() {
				if d.Op == isa.OpLd {
					stats.MemReads++
				} else {
					stats.MemWrites++
				}
			}
			if d.IsComm() {
				stats.Messages++
			}
		}
		finish = m.Finish
		if tr != nil {
			// Lockstep: every lane retires the same op, spanning the worst
			// lane's completion (memory and network contention included).
			flags := obs.FlagHasOp
			if isALU {
				flags |= obs.FlagALU
			}
			for lane := 0; lane < m.cfg.Lanes; lane++ {
				tr.Emit(obs.Event{Kind: obs.KindInstr, Flags: flags, Track: int32(lane),
					Cycle: issue, Dur: finish - issue, Arg: int64(d.Op)})
			}
		}
		stats.Cycles = finish
		pc++
	}
}
