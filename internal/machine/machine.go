// Package machine provides the shared execution substrate of the
// machine-class simulators: register files, bounds-checked data memories,
// the single-instruction step function that implements the ISA semantics,
// the statistics every simulator reports, and Banks, the DP-DM/DP-DP data
// side the sharded simulators share. The per-class packages
// (internal/uniproc, internal/simd, internal/mimd, internal/spatial,
// internal/dataflow, internal/fabric) wire these pieces together according
// to the block counts and switch kinds of their taxonomy class.
package machine

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
)

// Stats aggregates what one simulation run did.
type Stats struct {
	// Cycles is the simulated wall-clock of the run (makespan).
	Cycles int64
	// Instructions counts executed (retired) instructions across all
	// processors.
	Instructions int64
	// ALUOps counts arithmetic/logic operations.
	ALUOps int64
	// MemReads and MemWrites count DP-DM traffic.
	MemReads, MemWrites int64
	// Messages counts DP-DP (and IP-IP) network words.
	Messages int64
	// Barriers counts completed synchronizations.
	Barriers int64
	// NetConflictCycles sums the cycles lost to interconnect contention.
	NetConflictCycles int64
}

// Totals returns the counters a trace of the run must reproduce, the
// argument of obs.Trace.Check.
func (s Stats) Totals() obs.Totals {
	return obs.Totals{
		Instructions:      s.Instructions,
		ALUOps:            s.ALUOps,
		MemReads:          s.MemReads,
		MemWrites:         s.MemWrites,
		Messages:          s.Messages,
		Barriers:          s.Barriers,
		NetConflictCycles: s.NetConflictCycles,
	}
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Instructions += other.Instructions
	s.ALUOps += other.ALUOps
	s.MemReads += other.MemReads
	s.MemWrites += other.MemWrites
	s.Messages += other.Messages
	s.Barriers += other.Barriers
	s.NetConflictCycles += other.NetConflictCycles
	if other.Cycles > s.Cycles {
		s.Cycles = other.Cycles
	}
}

// IPC is instructions per cycle, 0 when no cycles elapsed.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// ErrDeadline is returned when a run exceeds its cycle budget, which almost
// always means the guest program loops forever or deadlocks on RECV/SYNC.
var ErrDeadline = errors.New("machine: cycle budget exhausted (livelock or deadlock in guest program)")

// DefaultMaxCycles bounds runs that do not choose their own budget.
const DefaultMaxCycles = 10_000_000

// Memory is a bounds-checked word-addressed data memory (one DM bank).
type Memory []isa.Word

// NewMemory allocates a zeroed bank of the given number of words.
func NewMemory(words int) (Memory, error) {
	if words < 0 {
		return nil, fmt.Errorf("machine: memory size %d is negative", words)
	}
	return make(Memory, words), nil
}

// Load reads the word at addr.
func (m Memory) Load(addr isa.Word) (isa.Word, error) {
	if addr < 0 || addr >= isa.Word(len(m)) {
		return 0, fmt.Errorf("machine: load address %d outside bank of %d words", addr, len(m))
	}
	return m[addr], nil
}

// Store writes the word at addr.
func (m Memory) Store(addr, val isa.Word) error {
	if addr < 0 || addr >= isa.Word(len(m)) {
		return fmt.Errorf("machine: store address %d outside bank of %d words", addr, len(m))
	}
	m[addr] = val
	return nil
}

// CopyIn writes vals into the bank starting at base. The bounds check is
// phrased as a subtraction so a huge base cannot overflow base+len(vals)
// into an accepted negative value.
func (m Memory) CopyIn(base int, vals []isa.Word) error {
	if base < 0 || base > len(m) || len(vals) > len(m)-base {
		return fmt.Errorf("machine: copy of %d words at %d outside bank of %d words", len(vals), base, len(m))
	}
	copy(m[base:], vals)
	return nil
}

// CopyOut reads n words starting at base. Like CopyIn, the bounds check
// avoids the base+n overflow.
func (m Memory) CopyOut(base, n int) ([]isa.Word, error) {
	if base < 0 || n < 0 || base > len(m) || n > len(m)-base {
		return nil, fmt.Errorf("machine: read of %d words at %d outside bank of %d words", n, base, len(m))
	}
	out := make([]isa.Word, n)
	copy(out, m[base:base+n])
	return out, nil
}

// Regs is one data processor's register file.
type Regs [isa.NumRegs]isa.Word

// Env supplies the machine-specific behaviour of the memory, network and
// synchronization operations to Step. Machines leave callbacks nil for
// connection sites their class does not have; executing the corresponding
// instruction is then a guest error, which is exactly how an architecture
// without a DP-DP switch "cannot" communicate.
type Env struct {
	// Lane is the value OpLane loads: the processor or lane index.
	Lane isa.Word
	// Load and Store implement the DP-DM site.
	Load  func(addr isa.Word) (isa.Word, error)
	Store func(addr, val isa.Word) error
	// SendTo and RecvFrom implement the DP-DP site. RecvFrom may return
	// ErrWouldBlock to stall the processor without consuming the cycle.
	SendTo   func(peer int, val isa.Word) error
	RecvFrom func(peer int) (isa.Word, error)
	// Barrier implements OpSync; it may return ErrWouldBlock to stall.
	Barrier func() error
	// Tracer, when non-nil, receives the fine-grained events only Step
	// sees: memory reads/writes with their addresses and network
	// sends/receives with their peers. Simulators emit instruction-retire,
	// barrier and stall events at their loop level, where cycle timing is
	// known. Leave nil to disable tracing; the hooks then cost a nil check
	// and nothing else.
	Tracer obs.Tracer
	// Now is the issue cycle Step stamps on emitted events.
	Now int64
	// Track is the processor/lane/core index stamped on emitted events.
	Track int32
}

// ErrWouldBlock signals that a RECV or SYNC cannot complete this cycle; the
// simulator keeps the PC on the instruction and retries later.
var ErrWouldBlock = errors.New("machine: operation would block")

// Outcome is the control-flow result of one executed instruction. Whether
// a completed instruction used the DP-DM switch or the DP-DP network is a
// property of its opcode (isa.DecodedOp.IsMemory and IsComm), so callers
// read it off the decoded op. Outcome keeps to at most four fields: Go
// keeps a struct of four or fewer fields in registers across a call, while
// a larger one is built in memory by byte stores and read back by one wide
// load, a store-forwarding stall on every op of every chain
// (TestOutcomeRegisterSized pins the limit).
type Outcome struct {
	// NextPC is the program counter after the instruction.
	NextPC int
	// Halted reports that the processor executed HALT.
	Halted bool
	// Blocked reports that the instruction could not complete (RECV/SYNC);
	// the PC did not advance and no work was done.
	Blocked bool
}

// Step executes one instruction against a register file and an environment,
// implementing the ISA semantics shared by all instruction-flow simulators.
func Step(regs *Regs, pc int, ins isa.Instruction, env Env) (Outcome, error) {
	out := Outcome{NextPC: pc + 1}
	switch ins.Op {
	case isa.OpNop:
	case isa.OpHalt:
		out.Halted = true
	case isa.OpLdi:
		regs[ins.Rd] = isa.Word(ins.Imm)
	case isa.OpMov:
		regs[ins.Rd] = regs[ins.Ra]
	case isa.OpAdd:
		regs[ins.Rd] = regs[ins.Ra] + regs[ins.Rb]
	case isa.OpSub:
		regs[ins.Rd] = regs[ins.Ra] - regs[ins.Rb]
	case isa.OpMul:
		regs[ins.Rd] = regs[ins.Ra] * regs[ins.Rb]
	case isa.OpDiv:
		if regs[ins.Rb] == 0 {
			return out, fmt.Errorf("machine: division by zero at pc %d", pc)
		}
		regs[ins.Rd] = regs[ins.Ra] / regs[ins.Rb]
	case isa.OpRem:
		if regs[ins.Rb] == 0 {
			return out, fmt.Errorf("machine: remainder by zero at pc %d", pc)
		}
		regs[ins.Rd] = regs[ins.Ra] % regs[ins.Rb]
	case isa.OpAnd:
		regs[ins.Rd] = regs[ins.Ra] & regs[ins.Rb]
	case isa.OpOr:
		regs[ins.Rd] = regs[ins.Ra] | regs[ins.Rb]
	case isa.OpXor:
		regs[ins.Rd] = regs[ins.Ra] ^ regs[ins.Rb]
	case isa.OpShl:
		regs[ins.Rd] = regs[ins.Ra] << uint(regs[ins.Rb]&63)
	case isa.OpShr:
		regs[ins.Rd] = regs[ins.Ra] >> uint(regs[ins.Rb]&63)
	case isa.OpSlt:
		regs[ins.Rd] = boolWord(regs[ins.Ra] < regs[ins.Rb])
	case isa.OpSeq:
		regs[ins.Rd] = boolWord(regs[ins.Ra] == regs[ins.Rb])
	case isa.OpMin:
		regs[ins.Rd] = minWord(regs[ins.Ra], regs[ins.Rb])
	case isa.OpMax:
		regs[ins.Rd] = maxWord(regs[ins.Ra], regs[ins.Rb])
	case isa.OpAddi:
		regs[ins.Rd] = regs[ins.Ra] + isa.Word(ins.Imm)
	case isa.OpMuli:
		regs[ins.Rd] = regs[ins.Ra] * isa.Word(ins.Imm)
	case isa.OpLd:
		if env.Load == nil {
			return out, fmt.Errorf("machine: no DP-DM path for load at pc %d", pc)
		}
		addr := regs[ins.Ra] + isa.Word(ins.Imm)
		v, err := env.Load(addr)
		if err != nil {
			return out, err
		}
		regs[ins.Rd] = v
		if env.Tracer != nil {
			env.Tracer.Emit(obs.Event{Kind: obs.KindMemRead, Track: env.Track, Cycle: env.Now, Arg: int64(addr)})
		}
	case isa.OpSt:
		if env.Store == nil {
			return out, fmt.Errorf("machine: no DP-DM path for store at pc %d", pc)
		}
		addr := regs[ins.Ra] + isa.Word(ins.Imm)
		if err := env.Store(addr, regs[ins.Rb]); err != nil {
			return out, err
		}
		if env.Tracer != nil {
			env.Tracer.Emit(obs.Event{Kind: obs.KindMemWrite, Track: env.Track, Cycle: env.Now, Arg: int64(addr)})
		}
	case isa.OpBeq:
		if regs[ins.Ra] == regs[ins.Rb] {
			out.NextPC = pc + 1 + int(ins.Imm)
		}
	case isa.OpBne:
		if regs[ins.Ra] != regs[ins.Rb] {
			out.NextPC = pc + 1 + int(ins.Imm)
		}
	case isa.OpBlt:
		if regs[ins.Ra] < regs[ins.Rb] {
			out.NextPC = pc + 1 + int(ins.Imm)
		}
	case isa.OpBge:
		if regs[ins.Ra] >= regs[ins.Rb] {
			out.NextPC = pc + 1 + int(ins.Imm)
		}
	case isa.OpJmp:
		out.NextPC = pc + 1 + int(ins.Imm)
	case isa.OpSend:
		if env.SendTo == nil {
			return out, fmt.Errorf("machine: no DP-DP network for send at pc %d (this class has DP-DP: none)", pc)
		}
		if err := env.SendTo(int(regs[ins.Rb]), regs[ins.Ra]); err != nil {
			return out, err
		}
		if env.Tracer != nil {
			env.Tracer.Emit(obs.Event{Kind: obs.KindSend, Track: env.Track, Cycle: env.Now, Arg: int64(regs[ins.Rb])})
		}
	case isa.OpRecv:
		if env.RecvFrom == nil {
			return out, fmt.Errorf("machine: no DP-DP network for recv at pc %d (this class has DP-DP: none)", pc)
		}
		peer := int(regs[ins.Rb])
		v, err := env.RecvFrom(peer)
		if errors.Is(err, ErrWouldBlock) {
			out.NextPC = pc
			out.Blocked = true
			return out, nil
		}
		if err != nil {
			return out, err
		}
		regs[ins.Rd] = v
		if env.Tracer != nil {
			env.Tracer.Emit(obs.Event{Kind: obs.KindRecv, Track: env.Track, Cycle: env.Now, Arg: int64(peer)})
		}
	case isa.OpSync:
		if env.Barrier == nil {
			return out, fmt.Errorf("machine: no barrier support at pc %d", pc)
		}
		if err := env.Barrier(); errors.Is(err, ErrWouldBlock) {
			out.NextPC = pc
			out.Blocked = true
			return out, nil
		} else if err != nil {
			return out, err
		}
	case isa.OpLane:
		regs[ins.Rd] = env.Lane
	default:
		return out, fmt.Errorf("machine: unimplemented opcode %v at pc %d", ins.Op, pc)
	}
	return out, nil
}

// StepOps is the reference chain for a program: one OpFn per pc that runs
// Step on the raw instruction. It dispatches exactly like a compiled chain
// (index by pc, follow Outcome.NextPC), so a simulator built on it runs
// the interpreter the differential sweeps compare the compiled code with.
func StepOps(prog isa.Program) []OpFn {
	ops := make([]OpFn, len(prog))
	for pc, ins := range prog {
		ops[pc] = func(regs *Regs, env *Env) (Outcome, error) {
			return Step(regs, pc, ins, *env)
		}
	}
	return ops
}

// IsALU reports whether the op counts as an ALU operation in Stats.
func IsALU(op isa.Op) bool { return op.IsALU() }

func boolWord(b bool) isa.Word {
	if b {
		return 1
	}
	return 0
}

func minWord(a, b isa.Word) isa.Word {
	if a < b {
		return a
	}
	return b
}

func maxWord(a, b isa.Word) isa.Word {
	if a > b {
		return a
	}
	return b
}
