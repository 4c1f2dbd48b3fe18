package machine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/obs"
)

// This file is the compiled backend: it lowers a pre-decoded program into
// threaded code — one closure per instruction, specialized at compile time
// to its operand registers, widened immediate and absolute branch target,
// so the executed path has no per-op switch at all — plus a basic-block
// program for the fused fast paths: straight-line runs are grouped into
// blocks, fused into superinstructions where a known pattern matches
// (load+ALU+store triples, mul/muli/add+add ALU pairs, induction-increment
// +branch pairs), and accounted in one batched Stats update per block
// instead of one per instruction. Each unit of a block is one specialised
// closure, so a block costs one indirect call per unit; its terminator is
// data that runBlock switches on. A block that closes with a jmp to a
// loop header (a conditional branch alone in its block) runs that branch
// as its own terminator, so a loop iteration is one block.
//
// Equivalence with Step is architectural, not best-effort: the
// differential sweeps in internal/conformance and the FuzzCompile oracle
// byte-compare memories, registers, Stats and traced event streams
// against the StepOps reference chain.

// OpFn is one unit of threaded code: Step specialized to a single decoded
// instruction. The program counter is captured at compile time, so callers
// index the chain by pc and follow Outcome.NextPC exactly as they would
// with Step.
type OpFn func(regs *Regs, env *Env) (Outcome, error)

// CompileOptions carries the timing parameters the block accounting bakes
// into its per-block cycle costs.
type CompileOptions struct {
	// MemLatency is the extra cycles a load/store spends on the DP-DM
	// switch; 0 means the default single cycle (matching uniproc.Config).
	MemLatency int64
	// BranchPenalty is the extra cycles a taken branch costs; 0 means
	// taken branches are free beyond their issue cycle.
	BranchPenalty int64
}

// CPU is the execution state of the fused block code: a register file, a
// directly addressed data bank and the value OpLane loads, with the run's
// Stats accumulated in place. The uni-processor runs one with Lane 0; a
// multi-processor core that runs ahead uses its own bank and its index.
type CPU struct {
	Regs  Regs
	Mem   Memory
	Stats Stats
	Lane  isa.Word
	// Log receives the loads and stores of a window (RunWindow), with
	// their issue cycles.
	Log WindowLog
}

// haltPC is the NextPC sentinel a terminator returns after HALT. Any
// negative pc ends the run (the interpreters treat an out-of-range pc as an
// implicit halt), so -1 is merely the conventional spelling.
const haltPC = -1

// microFn is one fused straight-line unit inside a block. It returns how
// many of its constituent instructions retired: all of them on success,
// fewer when a guest fault (bad address, division by zero, missing switch)
// stopped the unit mid-way. The count only matters on the error path, where
// the runner re-derives exact per-instruction accounting.
type microFn func(c *CPU) (int32, error)

// termKind is what a block's terminator does once the block's units ran.
type termKind uint8

const (
	// termGo continues at tgt: the fall-through successor, a jmp's target
	// or haltPC after HALT.
	termGo termKind = iota
	// termBeq..termBge continue at tgt when their condition on ra and rb
	// holds, paying pen, and at fall otherwise.
	termBeq
	termBne
	termBlt
	termBge
)

// term is a block's terminator, as data runBlock switches on: a fused
// induction increment (regs[prd] += pimm; pimm is 0 when there is none),
// then the successor pc.
type term struct {
	kind        termKind
	prd, ra, rb uint8
	pimm        isa.Word
	tgt, fall   int32
	pen         int64
}

// unit is one microFn plus the pc range it covers.
type unit struct {
	fn   microFn
	pc   int32
	nops int32
}

// block is one basic block: fused straight-line units, a terminator, and
// the batched Stats of every instruction in [start, end), plus the
// threaded loop header's, if any.
type block struct {
	start, end int32
	units      []unit
	term       term
	// head is the pc of the loop header the block's closing jmp targets
	// when the terminator runs that header's branch (jump threading), -1
	// otherwise. The header counts in the batched accounting below.
	head int32
	// Batched accounting applied once per successful block execution.
	nInstr, nALU, nLoads, nStores int64
	// cycles is the static cycle cost of the whole block (instruction
	// issues plus DP-DM latencies, a closing jmp's penalty and a threaded
	// header's issue; the dynamic taken-branch penalty of a conditional
	// terminator is the terminator's). It doubles as the budget-guard
	// margin: a block only runs fused when the cycle budget cannot expire
	// inside it.
	cycles int64
	// private marks a block no other processor can observe: no SEND, RECV,
	// SYNC or HALT, and every successor inside the program. Its loads and
	// stores are private too when the DP-DM switch is direct.
	private bool
	// lastMem is the issue offset of the block's last load or store within
	// the block, -1 if it has none.
	lastMem int64
}

// CompiledProgram is the lowered form of one program: the per-op threaded
// chain (used by every simulator and by runs traced in order, where
// per-instruction event emission is part of the contract) and the fused
// block program that uni-processor runs and the run-ahead of
// multi-processor cores execute when untraced or traced into an
// obs.Tally. The block program comes in three tables, each built on first
// use, once, so a program that only ever runs its chain never pays for
// them, and one compiled program may be shared by goroutines: whole holds
// the CFG's basic blocks; cut the same blocks cut around every load and
// store, for cores whose loads and stores cross a DP-DM crossbar; and win
// the whole blocks with logging loads and stores, plus a tail block from
// each load or store inside one, for the optimistic windows of those
// cores (RunWindow). ALU pairs fuse in every table, the load+ALU+store
// triple only in whole, and every table threads loop headers.
type CompiledProgram struct {
	ops             []OpFn
	whole, cut, win blockTable
	dec             isa.DecodedProgram
	n               int
	memLatency      int64
	branchPenalty   int64
}

// blockTable is one lowering of the program into fused blocks.
type blockTable struct {
	once    sync.Once
	blocks  []block
	blockAt []int32 // pc of a block leader -> its index in blocks, -1 elsewhere
}

// Ops returns the threaded per-op chain, indexed by pc.
func (p *CompiledProgram) Ops() []OpFn { return p.ops }

// Len returns the program length in instructions.
func (p *CompiledProgram) Len() int { return p.n }

// Compile lowers a pre-decoded program. The caller is expected to have
// validated the program, as with Predecode; compiling an empty program
// yields a chain whose Run halts immediately.
func Compile(dec isa.DecodedProgram, opts CompileOptions) *CompiledProgram {
	memLat := opts.MemLatency
	if memLat == 0 {
		memLat = 1 // default DP-DM direct-switch traversal
	}
	p := &CompiledProgram{
		dec:           dec,
		n:             len(dec),
		ops:           make([]OpFn, len(dec)),
		memLatency:    memLat,
		branchPenalty: opts.BranchPenalty,
	}
	for pc := range dec {
		p.ops[pc] = compileOp(pc, &dec[pc])
	}
	return p
}

// tableKind selects how buildBlocks lowers the CFG blocks.
type tableKind uint8

const (
	// tableWhole lowers each CFG block as it is.
	tableWhole tableKind = iota
	// tableCut cuts each CFG block before and after every load and store,
	// so each memory op is a block of its own.
	tableCut
	// tableWin lowers each CFG block as it is, with loads and stores that
	// log their accesses (CPU.Log) and no fused units, plus a tail block
	// from each load and store that does not lead its block to the block's
	// end, where a window that stopped at it resumes.
	tableWin
)

// blocksFor returns the block table a processor runs, built the first
// time it is asked for: the whole CFG blocks when loads and stores reach
// only the processor's own memory (memLocal), the blocks cut around every
// load and store otherwise.
func (p *CompiledProgram) blocksFor(memLocal bool) *blockTable {
	if memLocal {
		return p.table(&p.whole, tableWhole)
	}
	return p.table(&p.cut, tableCut)
}

// table returns t, built on first use as kind.
func (p *CompiledProgram) table(t *blockTable, kind tableKind) *blockTable {
	t.once.Do(func() { p.buildBlocks(t, kind) })
	return t
}

// buildBlocks lowers each basic block of the shared CFG (isa.BuildCFG owns
// the leader rules: pc 0, every branch target, every instruction after a
// branch or halt) into t as kind says. It asserts the fusion invariant:
// every fused unit stays inside one CFG block, and outside the whole table
// no unit holds a load or store with another op, so a superinstruction can
// never span a boundary the static checker or the crossbar scheduler
// reasons about.
func (p *CompiledProgram) buildBlocks(t *blockTable, kind tableKind) {
	if p.n == 0 {
		return
	}
	cfg := isa.BuildCFG(p.dec)
	t.blockAt = make([]int32, p.n)
	for pc := range t.blockAt {
		t.blockAt[pc] = -1
	}
	lower := func(start, end int) {
		if start < end {
			t.blockAt[start] = int32(len(t.blocks))
			t.blocks = append(t.blocks, p.lowerBlock(start, end, kind))
		}
	}
	for i := range cfg.Blocks {
		cb := &cfg.Blocks[i]
		start, end := int(cb.Start), int(cb.End)
		switch kind {
		case tableCut:
			for pc := start; pc < end; pc++ {
				if p.dec[pc].IsMemory() {
					lower(start, pc)
					lower(pc, pc+1)
					start = pc + 1
				}
			}
		case tableWin:
			for pc := start + 1; pc < end; pc++ {
				if p.dec[pc].IsMemory() {
					lower(pc, end)
				}
			}
		}
		lower(start, end)
	}
	for _, b := range t.blocks {
		for _, u := range b.units {
			lastPC := int(u.pc) + int(u.nops) - 1
			if cfg.BlockAt[u.pc] != cfg.BlockAt[lastPC] {
				panic(fmt.Sprintf("machine: fused unit [%d,%d] spans CFG blocks %d and %d",
					u.pc, lastPC, cfg.BlockAt[u.pc], cfg.BlockAt[lastPC]))
			}
			for pc := int(u.pc); kind != tableWhole && u.nops > 1 && pc <= lastPC; pc++ {
				if p.dec[pc].IsMemory() {
					panic(fmt.Sprintf("machine: fused unit [%d,%d] holds the load or store at %d", u.pc, lastPC, pc))
				}
			}
		}
	}
}

// lowerBlock lowers the ops in [start, end) into fused units plus a
// terminator, as kind says, and computes the block's batched accounting.
// In the window table loads and stores log their accesses.
func (p *CompiledProgram) lowerBlock(start, end int, kind tableKind) block {
	b := block{start: int32(start), end: int32(end), head: -1, private: true, lastMem: -1}
	for pc := start; pc < end; pc++ {
		d := &p.dec[pc]
		if d.IsComm() || d.Op == isa.OpSync || d.Op == isa.OpHalt {
			b.private = false
		}
		b.nInstr++
		if d.IsALU() {
			b.nALU++
		}
		if d.IsMemory() {
			b.lastMem = b.cycles
			b.cycles += p.memLatency
			if d.Op == isa.OpLd {
				b.nLoads++
			} else {
				b.nStores++
			}
		}
		b.cycles++
	}

	last := &p.dec[end-1]
	if last.IsBranch() && !p.inside(int(last.Target)) || last.Op != isa.OpJmp && !p.inside(end) {
		b.private = false // a successor leaves the program: the core halts
	}
	straight := end // ops [start, straight) become units
	b.term = term{tgt: int32(end)}
	if last.IsBranch() || last.Op == isa.OpHalt {
		straight = end - 1
		// Induction-increment fusion: fold a trailing `addi rX, rX, imm`
		// into a branch terminator so hot loop back-edges are one terminator.
		if last.IsBranch() && straight > start {
			if d := &p.dec[straight-1]; d.Op == isa.OpAddi && d.Rd == d.Ra {
				b.term.prd, b.term.pimm = d.Rd, d.Imm
				straight--
			}
		}
		switch h := int(last.Target); {
		case last.Op == isa.OpHalt:
			b.term.tgt = haltPC
		case last.Op != isa.OpJmp:
			p.condTerm(&b.term, end-1)
		case p.threads(h):
			// Jump threading: the jmp's static penalty and the header's
			// issue join the block, and the header's branch terminates it.
			b.head = int32(h)
			b.nInstr++
			b.cycles += p.penalty(end-1, h) + 1
			p.condTerm(&b.term, h)
		default:
			b.cycles += p.penalty(end-1, h) // a jmp is always taken
			b.term.tgt = last.Target
		}
	}

	var at int64 // issue offset of pc within the block
	for pc := start; pc < straight; {
		d := &p.dec[pc]
		fn, n := p.fuseAt(pc, straight, kind == tableWhole)
		switch {
		case fn != nil:
		case kind == tableWin && d.IsMemory():
			fn, n = p.genLogged(d, at), 1
		default:
			fn, n = p.genMicro(pc, d), 1
		}
		b.units = append(b.units, unit{fn: fn, pc: int32(pc), nops: n})
		for next := pc + int(n); pc < next; pc++ {
			at++
			if p.dec[pc].IsMemory() {
				at += p.memLatency
			}
		}
	}
	return b
}

// inside reports whether pc is an instruction of the program.
func (p *CompiledProgram) inside(pc int) bool { return pc >= 0 && pc < p.n }

// penalty returns the cycles the op at pc pays for continuing at next:
// the taken-branch penalty for a branch whose next pc is not pc+1 (so
// `jmp +0` and not-taken branches stay free, as in the interpreter), 0
// otherwise.
func (p *CompiledProgram) penalty(pc, next int) int64 {
	if p.dec[pc].IsBranch() && next != pc+1 {
		return p.branchPenalty
	}
	return 0
}

// threads reports whether a block closing with a jmp to h runs the branch
// at h as its terminator: h is a conditional branch, which a jmp target
// leads and a branch ends, so it is alone in its block in every table, and
// both its successors are inside the program.
func (p *CompiledProgram) threads(h int) bool {
	if !p.inside(h) {
		return false
	}
	d := &p.dec[h]
	return d.IsBranch() && d.Op != isa.OpJmp && p.inside(int(d.Target)) && p.inside(h+1)
}

// condTerm makes t the conditional branch at pc, keeping t's induction
// increment.
func (p *CompiledProgram) condTerm(t *term, pc int) {
	d := &p.dec[pc]
	switch d.Op {
	case isa.OpBeq:
		t.kind = termBeq
	case isa.OpBne:
		t.kind = termBne
	case isa.OpBlt:
		t.kind = termBlt
	case isa.OpBge:
		t.kind = termBge
	default:
		panic(fmt.Sprintf("machine: %v at pc %d is not a conditional branch", d.Op, pc))
	}
	t.ra, t.rb = d.Ra, d.Rb
	t.tgt, t.fall = d.Target, int32(pc+1)
	t.pen = p.penalty(pc, int(d.Target))
}

// fuseAt tries the superinstruction patterns at pc within the straight-line
// region [pc, limit); mem allows the patterns that hold a load or store,
// which only the whole table fuses. It returns (nil, 0) when nothing
// matches. To add a fusion rule: match the decoded ops here, build one
// microFn that performs them in program order and returns how many retired
// before any fault, keep loads and stores out of it unless mem says so,
// and cover the new rule in compile_test.go's TestCompileFusionEdgeCases
// and in tools/genfuzzcorpus's FuzzCompile seeds. The batched block
// accounting and the window table's issue offsets are derived from the
// decoded ops, so they need no change.
func (p *CompiledProgram) fuseAt(pc, limit int, mem bool) (microFn, int32) {
	// load + ALU + store: the inner-loop body of most of the kernel suite.
	// DIV and REM stay out: they fault on zero divisors and the fused unit
	// would have to carry their pc-stamped error, for no gain on real
	// kernels.
	if mem && pc+3 <= limit {
		ld, mid, st := &p.dec[pc], &p.dec[pc+1], &p.dec[pc+2]
		if ld.Op == isa.OpLd && st.Op == isa.OpSt && mid.IsALU() && mid.Op != isa.OpDiv && mid.Op != isa.OpRem {
			alu := p.genMicro(pc+1, mid)
			lrd, lra, limm := ld.Rd, ld.Ra, ld.Imm
			sra, srb, simm := st.Ra, st.Rb, st.Imm
			return func(c *CPU) (int32, error) {
				v, err := c.Mem.Load(c.Regs[lra] + limm)
				if err != nil {
					return 0, err
				}
				c.Regs[lrd] = v
				alu(c)
				if err := c.Mem.Store(c.Regs[sra]+simm, c.Regs[srb]); err != nil {
					return 2, err
				}
				return 3, nil
			}, 3
		}
	}
	if pc+2 <= limit {
		if fn := aluPair(&p.dec[pc], &p.dec[pc+1]); fn != nil {
			return fn, 2
		}
	}
	return nil, 0
}

// aluPair builds the superinstruction for the ALU ops a, b when a is a mul,
// muli or add and b an add (multiply-accumulate and scaled index, matmul's
// inner loop), nil otherwise. The ops run in program order, so b reads
// what a wrote when their registers alias. Neither can fault.
func aluPair(a, b *isa.DecodedOp) microFn {
	if b.Op != isa.OpAdd {
		return nil
	}
	rd, ra, rb, imm := a.Rd, a.Ra, a.Rb, a.Imm
	sd, sa, sb := b.Rd, b.Ra, b.Rb
	switch a.Op {
	case isa.OpMul:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] * c.Regs[rb]
			c.Regs[sd] = c.Regs[sa] + c.Regs[sb]
			return 2, nil
		}
	case isa.OpMuli:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] * imm
			c.Regs[sd] = c.Regs[sa] + c.Regs[sb]
			return 2, nil
		}
	case isa.OpAdd:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] + c.Regs[rb]
			c.Regs[sd] = c.Regs[sa] + c.Regs[sb]
			return 2, nil
		}
	default:
		return nil // no pair starts with this op
	}
}

// genMicro builds the direct-memory single-op unit of the fused code: same
// semantics and error text as Step under a uni-processor Env (direct
// Load/Store, no network, no barrier), with OpLane loading CPU.Lane. A
// multi-processor core only runs private blocks fused and steps a faulting
// op again through its own chain, so its bank-error texts come from there.
func (p *CompiledProgram) genMicro(pc int, d *isa.DecodedOp) microFn {
	rd, ra, rb, imm := d.Rd, d.Ra, d.Rb, d.Imm
	switch d.Op {
	case isa.OpNop:
		return func(*CPU) (int32, error) { return 1, nil }
	case isa.OpLdi:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = imm
			return 1, nil
		}
	case isa.OpMov:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra]
			return 1, nil
		}
	case isa.OpAdd:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] + c.Regs[rb]
			return 1, nil
		}
	case isa.OpSub:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] - c.Regs[rb]
			return 1, nil
		}
	case isa.OpMul:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] * c.Regs[rb]
			return 1, nil
		}
	case isa.OpAnd:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] & c.Regs[rb]
			return 1, nil
		}
	case isa.OpOr:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] | c.Regs[rb]
			return 1, nil
		}
	case isa.OpXor:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] ^ c.Regs[rb]
			return 1, nil
		}
	case isa.OpShl:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] << uint(c.Regs[rb]&63)
			return 1, nil
		}
	case isa.OpShr:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] >> uint(c.Regs[rb]&63)
			return 1, nil
		}
	case isa.OpSlt:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = boolWord(c.Regs[ra] < c.Regs[rb])
			return 1, nil
		}
	case isa.OpSeq:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = boolWord(c.Regs[ra] == c.Regs[rb])
			return 1, nil
		}
	case isa.OpMin:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = minWord(c.Regs[ra], c.Regs[rb])
			return 1, nil
		}
	case isa.OpMax:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = maxWord(c.Regs[ra], c.Regs[rb])
			return 1, nil
		}
	case isa.OpAddi:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] + imm
			return 1, nil
		}
	case isa.OpMuli:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Regs[ra] * imm
			return 1, nil
		}
	case isa.OpDiv:
		return func(c *CPU) (int32, error) {
			if c.Regs[rb] == 0 {
				return 0, fmt.Errorf("machine: division by zero at pc %d", pc)
			}
			c.Regs[rd] = c.Regs[ra] / c.Regs[rb]
			return 1, nil
		}
	case isa.OpRem:
		return func(c *CPU) (int32, error) {
			if c.Regs[rb] == 0 {
				return 0, fmt.Errorf("machine: remainder by zero at pc %d", pc)
			}
			c.Regs[rd] = c.Regs[ra] % c.Regs[rb]
			return 1, nil
		}
	case isa.OpLd:
		return func(c *CPU) (int32, error) {
			v, err := c.Mem.Load(c.Regs[ra] + imm)
			if err != nil {
				return 0, err
			}
			c.Regs[rd] = v
			return 1, nil
		}
	case isa.OpSt:
		return func(c *CPU) (int32, error) {
			if err := c.Mem.Store(c.Regs[ra]+imm, c.Regs[rb]); err != nil {
				return 0, err
			}
			return 1, nil
		}
	case isa.OpSend:
		err := fmt.Errorf("machine: no DP-DP network for send at pc %d (this class has DP-DP: none)", pc)
		return func(*CPU) (int32, error) { return 0, err }
	case isa.OpRecv:
		err := fmt.Errorf("machine: no DP-DP network for recv at pc %d (this class has DP-DP: none)", pc)
		return func(*CPU) (int32, error) { return 0, err }
	case isa.OpSync:
		err := fmt.Errorf("machine: no barrier support at pc %d", pc)
		return func(*CPU) (int32, error) { return 0, err }
	case isa.OpLane:
		return func(c *CPU) (int32, error) {
			c.Regs[rd] = c.Lane
			return 1, nil
		}
	default:
		op := d.Op
		err := fmt.Errorf("machine: unimplemented opcode %v at pc %d", op, pc)
		return func(*CPU) (int32, error) { return 0, err }
	}
}

// errOutside stops a window at a load or store outside the address
// space; the scheduler steps the op again for its error text.
var errOutside = errors.New("machine: window access outside the address space")

// genLogged builds the window table's unit for the load or store d, which
// issues at offset at within its block: it appends the access to c.Log
// (a store with the word it overwrites) and performs it on c.Mem.
func (p *CompiledProgram) genLogged(d *isa.DecodedOp, at int64) microFn {
	rd, ra, rb, imm := d.Rd, d.Ra, d.Rb, d.Imm
	if d.Op == isa.OpLd {
		return func(c *CPU) (int32, error) {
			addr := c.Regs[ra] + imm
			if addr < 0 || addr >= isa.Word(len(c.Mem)) {
				return 0, errOutside
			}
			c.Log.Loads = append(c.Log.Loads, Access{Cycle: c.Stats.Cycles + at, Addr: addr})
			c.Regs[rd] = c.Mem[addr]
			return 1, nil
		}
	}
	return func(c *CPU) (int32, error) {
		addr := c.Regs[ra] + imm
		if addr < 0 || addr >= isa.Word(len(c.Mem)) {
			return 0, errOutside
		}
		c.Log.Stores = append(c.Log.Stores, Access{Cycle: c.Stats.Cycles + at, Addr: addr, Old: c.Mem[addr]})
		c.Mem[addr] = c.Regs[rb]
		return 1, nil
	}
}

// Run executes the block program on a CPU until halt, fall-off or a guest
// fault, with uni-processor accounting (one cycle per instruction, the
// configured DP-DM latency per memory op, the taken-branch penalty). It is
// cycle-exact with the interpreted loop: whenever the budget could expire
// inside a block, that block and the remainder of the run step one op at a
// time with the interpreter's per-instruction budget check. failPC reports
// the faulting pc for error wrapping; ErrDeadline is returned bare so the
// caller can format it like the interpreters do.
func (p *CompiledProgram) Run(c *CPU, budget int64) (failPC int, err error) {
	t := p.blocksFor(true)
	pc := 0
	for pc >= 0 && pc < p.n {
		b := &t.blocks[t.blockAt[pc]]
		if c.Stats.Cycles+b.cycles > budget {
			return p.runExact(c, pc, budget)
		}
		if pc, err = p.runBlock(c, b); err != nil {
			return pc, err
		}
	}
	return 0, nil
}

// runBlock runs one block's fused units, applies its batched accounting
// and returns its successor pc. On a guest fault it credits the
// instructions that retired before it and returns the faulting pc with
// the error; the faulting instruction has changed nothing.
func (p *CompiledProgram) runBlock(c *CPU, b *block) (int, error) {
	for i := range b.units {
		u := &b.units[i]
		k, err := u.fn(c)
		if err != nil {
			fpc := int(u.pc) + int(k)
			p.accountPartial(c, int(b.start), fpc)
			return fpc, err
		}
	}
	c.Stats.Cycles += b.cycles
	c.Stats.Instructions += b.nInstr
	c.Stats.ALUOps += b.nALU
	c.Stats.MemReads += b.nLoads
	c.Stats.MemWrites += b.nStores
	t := &b.term
	c.Regs[t.prd] += t.pimm // r0 += 0 when no increment was fused
	var taken bool
	switch t.kind {
	case termGo:
		return int(t.tgt), nil
	case termBeq:
		taken = c.Regs[t.ra] == c.Regs[t.rb]
	case termBne:
		taken = c.Regs[t.ra] != c.Regs[t.rb]
	case termBlt:
		taken = c.Regs[t.ra] < c.Regs[t.rb]
	case termBge:
		taken = c.Regs[t.ra] >= c.Regs[t.rb]
	}
	if !taken {
		return int(t.fall), nil
	}
	c.Stats.Cycles += t.pen
	return int(t.tgt), nil
}

// trailCap bounds how many blocks one RunAhead call runs, so its Trail
// fits the trail's own buffer and a core meets the scheduler at least this
// often.
const trailCap = 64

// Trail records the blocks one RunAhead call ran, or the consecutive
// RunWindow calls of one processor, from the cycle it started to the cycle
// it stopped, so a scheduler whose run ends at an earlier slot can take
// back the work after it (After). One entry is one block as it ran: its
// ops and, when its closing jmp threads a loop header, that header's
// branch.
type Trail struct {
	from, to int64       // issue cycle of the first block; issue cycle of stopPC
	stopPC   int         // the pc the run stopped at
	tab      *blockTable // the table blocks index
	blocks   []int32     // RunAhead's point into buf; RunWindow's grow
	buf      [trailCap]int32
	// last is where the latest RunWindow call's blocks begin in blocks,
	// and lastFrom the cycle they began at.
	last     int
	lastFrom int64
}

// RunAhead runs c through consecutive private blocks of the fused code,
// starting at pc at cycle now, with multi-processor accounting (one cycle
// per instruction plus the DP-DM latency per memory op, the taken-branch
// penalty). A private block is one no other processor can observe (no
// SEND, RECV, SYNC or HALT, no successor outside the program). When
// memLocal is false its loads and stores may reach other banks, so the
// blocks are cut around every load and store, each of which is left to
// the caller to step at its own slot: the core runs ahead through the
// stretches between them. RunAhead stops at the first block that is not
// private, at a pc that does not lead a block, at a block that would not
// end by budget, after trailCap blocks, or at a guest fault. It returns
// the pc to resume at and the cycle that pc issues at; c.Stats holds what
// the call retired, and t records it for After. After a fault the pc is
// the faulting op and c is as it was before that op: the caller steps the
// op through its per-op chain at its own slot, which reports the fault
// with the caller's exact error text. A call that returns now ran nothing.
func (p *CompiledProgram) RunAhead(c *CPU, pc int, now, budget int64, memLocal bool, t *Trail) (int, int64) {
	tab := p.blocksFor(memLocal)
	c.Stats = Stats{}
	t.from, t.tab, t.blocks = now, tab, t.buf[:0]
	for len(t.blocks) < trailCap && pc >= 0 && pc < p.n {
		bi := tab.blockAt[pc]
		if bi < 0 {
			break
		}
		b := &tab.blocks[bi]
		if !b.runsAhead(memLocal) || now+c.Stats.Cycles+b.cycles > budget {
			break
		}
		t.blocks = append(t.blocks, bi)
		next, err := p.runBlock(c, b)
		pc = next
		if err != nil {
			break
		}
	}
	t.to, t.stopPC = now+c.Stats.Cycles, pc
	return pc, t.to
}

// RunsAhead reports whether RunAhead at pc would run the block there,
// cycle budget permitting: pc leads a private block, with no loads or
// stores unless memLocal. Under !memLocal the blocks are cut around loads
// and stores, so it is false at every load and store and true at the op
// after one in a private block. A scheduler asks once per pc, not per
// step.
func (p *CompiledProgram) RunsAhead(pc int, memLocal bool) bool {
	tab := p.blocksFor(memLocal)
	if pc < 0 || pc >= p.n {
		return false
	}
	bi := tab.blockAt[pc]
	return bi >= 0 && tab.blocks[bi].runsAhead(memLocal)
}

// runsAhead reports whether a processor may run the block ahead of the
// scheduler: it is private, and so are its loads and stores, if any.
func (b *block) runsAhead(memLocal bool) bool {
	return b.private && (memLocal || b.nLoads+b.nStores == 0)
}

// After returns the work of the trail's instructions that issue at or
// after cycle cut: what a processor that ran ahead takes back when the run
// stops at an earlier slot. Cycles is left zero. It walks each block's ops
// in issue order, a threaded loop header after the jmp that reached it.
func (p *CompiledProgram) After(t *Trail, cut int64) Stats {
	var s Stats
	if cut >= t.to {
		return s // every instruction of the trail issued before cut
	}
	at := t.from
	// walk credits the ops in [from, to) that issue at or after cut.
	walk := func(from, to int32) {
		for pc := from; pc < to && at < t.to; pc++ {
			d := &p.dec[pc]
			issue := at
			at++
			if d.IsMemory() {
				at += p.memLatency
			}
			if issue < cut {
				continue
			}
			s.Instructions++
			if d.IsALU() {
				s.ALUOps++
			}
			if d.Op == isa.OpLd {
				s.MemReads++
			} else if d.Op == isa.OpSt {
				s.MemWrites++
			}
		}
	}
	for i := 0; i < len(t.blocks) && at < t.to; i++ {
		b := &t.tab.blocks[t.blocks[i]]
		// The block's successor is the next block's start, or the pc the
		// trail stopped at. One strictly inside the block (no branch
		// targets one) is where a window stopped in front of a load or
		// store and the next resumed, so the block ran up to there,
		// terminator not included.
		next := int32(t.stopPC)
		if i+1 < len(t.blocks) {
			next = t.tab.blocks[t.blocks[i+1]].start
		}
		if b.start < next && next < b.end {
			walk(b.start, next)
			continue
		}
		walk(b.start, b.end)
		if b.head >= 0 {
			at += p.penalty(int(b.end)-1, int(b.head))
			walk(b.head, b.head+1)
			at += p.penalty(int(b.head), int(next))
		} else {
			at += p.penalty(int(b.end)-1, int(next))
		}
	}
	return s
}

// Reset empties the trail, keeping the buffer its blocks grew into.
func (t *Trail) Reset() { *t = Trail{blocks: t.blocks[:0]} }

// Prune drops the blocks of the trail's windows before the latest one
// when that one began by cycle cut: work that no failure at or after cut
// takes back. A scheduler prunes a window trail before it extends it, so
// the trail spans a window or two, not the whole run.
func (p *CompiledProgram) Prune(t *Trail, cut int64) {
	if t.last > 0 && t.lastFrom <= cut {
		t.blocks = t.blocks[:copy(t.blocks, t.blocks[t.last:])]
		t.from, t.last = t.lastFrom, 0
	}
}

// windowBlocks bounds how many blocks one RunWindow call runs, so a core
// looping without loads or stores still meets the scheduler.
const windowBlocks = 1 << 14

// Access is one load or store a window ran through: its issue cycle, its
// global word address and, for a store, the word it overwrote.
type Access struct {
	Cycle int64
	Addr  isa.Word
	Old   isa.Word
}

// WindowLog is the loads and the stores of a window, each in issue order.
type WindowLog struct {
	Loads, Stores []Access
}

// RunWindow runs c optimistically through consecutive private blocks of
// the window table, loads and stores included, starting at pc at cycle
// now, with the accounting of RunAhead and the assumption that no load or
// store waits for the DP-DM crossbar. c.Mem is the machine's whole address
// space (Banks.Global). Each load and store is appended to log with its
// issue cycle, a store with the word it overwrote, so the caller can
// validate the window against the other processors' and undo its stores.
// RunWindow stops in front of the first load or store that would issue at
// or after horizon, which may be inside a block (the window table has an
// entry at every load and store to resume there), at the first block that
// is not private or would not end by budget, after windowBlocks blocks,
// or at a guest fault, which it reports: the pc is then the faulting op,
// c is as it was before that op and the op has logged nothing. It returns
// the pc to resume at and the cycle that pc issues at, c.Stats holds what
// the call retired, and t records its blocks: appended to t when t is a
// window trail that stopped at now, so one trail spans consecutive
// windows, and from now otherwise.
func (p *CompiledProgram) RunWindow(c *CPU, pc int, now, horizon, budget int64, t *Trail, log *WindowLog) (next int, at int64, faulted bool) {
	tab := p.table(&p.win, tableWin)
	// c.Stats.Cycles counts from now while the window runs, so the logged
	// loads and stores stamp their issue cycles directly.
	c.Stats = Stats{Cycles: now}
	if t.tab != tab || t.to != now || len(t.blocks) == 0 {
		t.from, t.tab, t.blocks = now, tab, t.blocks[:0]
	}
	t.last, t.lastFrom = len(t.blocks), now
	c.Log = *log
	for ran := 0; ran < windowBlocks && pc >= 0 && pc < p.n; ran++ {
		bi := tab.blockAt[pc]
		if bi < 0 {
			break
		}
		b := &tab.blocks[bi]
		issue := c.Stats.Cycles
		if !b.private || issue+b.cycles > budget {
			break
		}
		// A load or store of the block issues at or past the horizon: run
		// the block up to the first that does, and stop there.
		until := b.lastMem >= 0 && issue+b.lastMem >= horizon
		before := c.Stats.Instructions
		var err error
		if until {
			pc, err = p.runUntil(c, b, horizon-issue)
		} else {
			pc, err = p.runBlock(c, b)
		}
		// A block that ran nothing (its first op faulted, or is a load or
		// store at or past the horizon) stays off the trail: After would
		// read its entry as the whole block once a later window resumes
		// the trail at the same pc.
		if c.Stats.Instructions > before {
			t.blocks = append(t.blocks, bi)
		}
		if err != nil {
			faulted = true
			break
		}
		if until {
			break
		}
	}
	*log, c.Log = c.Log, WindowLog{}
	t.to, t.stopPC = c.Stats.Cycles, pc
	c.Stats.Cycles -= now
	return pc, t.to, faulted
}

// runUntil runs the units of window-table block b up to its first load or
// store issuing at offset off or later, credits the instructions before it
// and returns its pc; no unit of the window table holds a load or store
// with another op, so it stops between units. A fault before that op returns the faulting pc and the error, as
// runBlock does.
func (p *CompiledProgram) runUntil(c *CPU, b *block, off int64) (int, error) {
	stop, at := int(b.end), int64(0)
	for pc := int(b.start); pc < int(b.end); pc++ {
		d := &p.dec[pc]
		if d.IsMemory() {
			if at >= off {
				stop = pc
				break
			}
			at += p.memLatency
		}
		at++
	}
	for i := range b.units {
		u := &b.units[i]
		if int(u.pc) >= stop {
			break
		}
		if k, err := u.fn(c); err != nil {
			fpc := int(u.pc) + int(k)
			p.accountPartial(c, int(b.start), fpc)
			return fpc, err
		}
	}
	p.accountPartial(c, int(b.start), stop)
	return stop, nil
}

// WindowAt reports whether RunWindow at pc would run the block there,
// cycle budget and horizon permitting: pc leads a private block of the
// window table. A scheduler asks once per pc, not per step.
func (p *CompiledProgram) WindowAt(pc int) bool {
	tab := p.table(&p.win, tableWin)
	if pc < 0 || pc >= p.n {
		return false
	}
	bi := tab.blockAt[pc]
	return bi >= 0 && tab.blocks[bi].private
}

// runExact steps the rest of the run one op at a time through the threaded
// chain, with the interpreter's exact per-instruction budget check. It is
// only entered when the budget could expire within the next block, so it
// runs a handful of instructions at most.
func (p *CompiledProgram) runExact(c *CPU, pc int, budget int64) (failPC int, err error) {
	env := Env{Load: c.Mem.Load, Store: c.Mem.Store}
	for pc >= 0 && pc < p.n {
		if c.Stats.Cycles >= budget {
			return pc, ErrDeadline
		}
		d := &p.dec[pc]
		out, err := p.ops[pc](&c.Regs, &env)
		if err != nil {
			return pc, err
		}
		c.Stats.Cycles++
		c.Stats.Instructions++
		if d.IsALU() {
			c.Stats.ALUOps++
		}
		if d.IsMemory() {
			c.Stats.Cycles += p.memLatency
			if d.Op == isa.OpLd {
				c.Stats.MemReads++
			} else {
				c.Stats.MemWrites++
			}
		}
		if d.IsBranch() && out.NextPC != pc+1 {
			c.Stats.Cycles += p.branchPenalty
		}
		pc = out.NextPC
		if out.Halted {
			return 0, nil
		}
	}
	return 0, nil
}

// accountPartial credits the instructions of block starting at start that
// retired before the fault at failPC. The faulting instruction itself is
// not counted, matching the interpreted loop.
func (p *CompiledProgram) accountPartial(c *CPU, start, failPC int) {
	for pc := start; pc < failPC; pc++ {
		d := &p.dec[pc]
		c.Stats.Cycles++
		c.Stats.Instructions++
		if d.IsALU() {
			c.Stats.ALUOps++
		}
		if d.IsMemory() {
			c.Stats.Cycles += p.memLatency
			if d.Op == isa.OpLd {
				c.Stats.MemReads++
			} else {
				c.Stats.MemWrites++
			}
		}
	}
}

// compileOp specializes Step to one decoded instruction: the threaded-code
// unit shared by every simulator's compiled dispatch. Each closure mirrors
// the corresponding Step case, error strings and traced events included.
func compileOp(pc int, d *isa.DecodedOp) OpFn {
	next := pc + 1
	rd, ra, rb, imm := d.Rd, d.Ra, d.Rb, d.Imm
	tgt := int(d.Target)
	switch d.Op {
	case isa.OpNop:
		return func(*Regs, *Env) (Outcome, error) { return Outcome{NextPC: next}, nil }
	case isa.OpHalt:
		return func(*Regs, *Env) (Outcome, error) { return Outcome{NextPC: next, Halted: true}, nil }
	case isa.OpLdi:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = imm
			return Outcome{NextPC: next}, nil
		}
	case isa.OpMov:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpAdd:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] + regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpSub:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] - regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpMul:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] * regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpDiv:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[rb] == 0 {
				return Outcome{NextPC: next}, fmt.Errorf("machine: division by zero at pc %d", pc)
			}
			regs[rd] = regs[ra] / regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpRem:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[rb] == 0 {
				return Outcome{NextPC: next}, fmt.Errorf("machine: remainder by zero at pc %d", pc)
			}
			regs[rd] = regs[ra] % regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpAnd:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] & regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpOr:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] | regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpXor:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] ^ regs[rb]
			return Outcome{NextPC: next}, nil
		}
	case isa.OpShl:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] << uint(regs[rb]&63)
			return Outcome{NextPC: next}, nil
		}
	case isa.OpShr:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] >> uint(regs[rb]&63)
			return Outcome{NextPC: next}, nil
		}
	case isa.OpSlt:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = boolWord(regs[ra] < regs[rb])
			return Outcome{NextPC: next}, nil
		}
	case isa.OpSeq:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = boolWord(regs[ra] == regs[rb])
			return Outcome{NextPC: next}, nil
		}
	case isa.OpMin:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = minWord(regs[ra], regs[rb])
			return Outcome{NextPC: next}, nil
		}
	case isa.OpMax:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = maxWord(regs[ra], regs[rb])
			return Outcome{NextPC: next}, nil
		}
	case isa.OpAddi:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] + imm
			return Outcome{NextPC: next}, nil
		}
	case isa.OpMuli:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			regs[rd] = regs[ra] * imm
			return Outcome{NextPC: next}, nil
		}
	case isa.OpLd:
		return func(regs *Regs, env *Env) (Outcome, error) {
			out := Outcome{NextPC: next}
			if env.Load == nil {
				return out, fmt.Errorf("machine: no DP-DM path for load at pc %d", pc)
			}
			addr := regs[ra] + imm
			v, err := env.Load(addr)
			if err != nil {
				return out, err
			}
			regs[rd] = v
			if env.Tracer != nil {
				env.Tracer.Emit(obs.Event{Kind: obs.KindMemRead, Track: env.Track, Cycle: env.Now, Arg: int64(addr)})
			}
			return out, nil
		}
	case isa.OpSt:
		return func(regs *Regs, env *Env) (Outcome, error) {
			out := Outcome{NextPC: next}
			if env.Store == nil {
				return out, fmt.Errorf("machine: no DP-DM path for store at pc %d", pc)
			}
			addr := regs[ra] + imm
			if err := env.Store(addr, regs[rb]); err != nil {
				return out, err
			}
			if env.Tracer != nil {
				env.Tracer.Emit(obs.Event{Kind: obs.KindMemWrite, Track: env.Track, Cycle: env.Now, Arg: int64(addr)})
			}
			return out, nil
		}
	case isa.OpBeq:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[ra] == regs[rb] {
				return Outcome{NextPC: tgt}, nil
			}
			return Outcome{NextPC: next}, nil
		}
	case isa.OpBne:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[ra] != regs[rb] {
				return Outcome{NextPC: tgt}, nil
			}
			return Outcome{NextPC: next}, nil
		}
	case isa.OpBlt:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[ra] < regs[rb] {
				return Outcome{NextPC: tgt}, nil
			}
			return Outcome{NextPC: next}, nil
		}
	case isa.OpBge:
		return func(regs *Regs, _ *Env) (Outcome, error) {
			if regs[ra] >= regs[rb] {
				return Outcome{NextPC: tgt}, nil
			}
			return Outcome{NextPC: next}, nil
		}
	case isa.OpJmp:
		return func(*Regs, *Env) (Outcome, error) { return Outcome{NextPC: tgt}, nil }
	case isa.OpSend:
		return func(regs *Regs, env *Env) (Outcome, error) {
			out := Outcome{NextPC: next}
			if env.SendTo == nil {
				return out, fmt.Errorf("machine: no DP-DP network for send at pc %d (this class has DP-DP: none)", pc)
			}
			if err := env.SendTo(int(regs[rb]), regs[ra]); err != nil {
				return out, err
			}
			if env.Tracer != nil {
				env.Tracer.Emit(obs.Event{Kind: obs.KindSend, Track: env.Track, Cycle: env.Now, Arg: int64(regs[rb])})
			}
			return out, nil
		}
	case isa.OpRecv:
		return func(regs *Regs, env *Env) (Outcome, error) {
			out := Outcome{NextPC: next}
			if env.RecvFrom == nil {
				return out, fmt.Errorf("machine: no DP-DP network for recv at pc %d (this class has DP-DP: none)", pc)
			}
			peer := int(regs[rb])
			v, err := env.RecvFrom(peer)
			if errors.Is(err, ErrWouldBlock) {
				out.NextPC = pc
				out.Blocked = true
				return out, nil
			}
			if err != nil {
				return out, err
			}
			regs[rd] = v
			if env.Tracer != nil {
				env.Tracer.Emit(obs.Event{Kind: obs.KindRecv, Track: env.Track, Cycle: env.Now, Arg: int64(peer)})
			}
			return out, nil
		}
	case isa.OpSync:
		return func(_ *Regs, env *Env) (Outcome, error) {
			out := Outcome{NextPC: next}
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
			return out, nil
		}
	case isa.OpLane:
		return func(regs *Regs, env *Env) (Outcome, error) {
			regs[rd] = env.Lane
			return Outcome{NextPC: next}, nil
		}
	}
	op := d.Op
	return func(*Regs, *Env) (Outcome, error) {
		return Outcome{NextPC: next}, fmt.Errorf("machine: unimplemented opcode %v at pc %d", op, pc)
	}
}

// FoldPrivate credits t with the events the per-op chain emits for the
// ops a fused run retired, given that run's Stats s: one instruction event
// per instruction and one memory event per load and per store. Fused code
// runs no SEND, RECV or SYNC, and its loads and stores wait for no switch
// (a DP-DM crossbar window commits only if none did), so no other event is
// owed. A sign of -1 takes the events of s back.
func FoldPrivate(t *obs.Tally, s Stats, sign int64) {
	t.Fold(sign*(s.Instructions+s.MemReads+s.MemWrites), obs.Totals{
		Instructions: sign * s.Instructions,
		ALUOps:       sign * s.ALUOps,
		MemReads:     sign * s.MemReads,
		MemWrites:    sign * s.MemWrites,
	})
}
