// Package mimd simulates the taxonomy's instruction-flow multi-processors
// (classes IMP-I..XVI, Table I rows 15-30): n instruction processors each
// driving a data processor, with the sub-type's switch kinds deciding what
// the machine can do:
//
//   - IP-IM direct: each core fetches from its own program image (the
//     separate-Von-Neumann-machines shape of IMP-I); IP-IM crossbar lets any
//     core be pointed at any program image, so one image can drive all cores
//     (single-program-multiple-data without copying).
//   - DP-DM direct: each core addresses only its own bank; crossbar gives a
//     single global address space over all banks, with output contention.
//   - DP-DP none: cores cannot exchange words at all; crossbar carries
//     SEND/RECV messages with per-pair FIFO ordering.
//
// Cores run asynchronously (own program counters) and synchronize only via
// SYNC barriers or message waits — the property the paper uses to argue
// IMP-I is more flexible than IAP-I ("IMP-I can act as an array processor
// if all the processors are executing the same program. However, IAP-I
// cannot execute n different programs at the same time").
//
// The scheduler is one loop over (cycle, core) slots. Between SYNC, a
// message and a shared-bank access a core's work is its own, and a run of
// the compiled code uses that: at its slot, a core that stands at the
// start of a private block runs ahead through as many private blocks as
// fit in the cycle budget as fused code on its own registers and bank
// (machine.CompiledProgram.RunAhead), and the loop skips the cycles in
// which no core is ready. A block is private when it holds no SEND, RECV,
// SYNC or HALT and cannot leave the program. Under a direct DP-DM switch,
// where no other core can reach the bank, its loads and stores are
// private too. Under a DP-DM crossbar loads and stores are no longer
// stepped one access per slot: the cores run through them in optimistic
// rounds (window.go), each validated against the crossbar model and the
// words the other cores touched, and committed, or rolled back and
// stepped as before: the blocks cut around every load and store, a core
// running ahead through the stretches between them and stepping each
// load and store at its own slot, where it meets the other cores'
// accesses to the crossbar in slot order. Every other block steps one op
// per slot. Run-ahead changes no result: Stats, CoreStats and error
// texts are those of the op-by-op loop. A fault inside a fused block stops
// the core in front of the faulting op with its state as it was, and the
// op is stepped again through the per-op chain at its own slot, so it is
// reported with the same text and only if no earlier slot failed; a
// failure at an earlier slot takes back what cores that ran ahead retired
// after it. HALT never runs fused, so it takes effect at its own cycle.
//
// Untraced runs and runs traced into an obs.Tally run ahead. A Tally only
// counts, so each run-ahead and committed window folds the events its ops
// would have emitted (one per instruction, one more per load and per
// store) from the call's batched Stats in one step, and a failure takes
// them back with the instructions. Runs traced by any other Tracer and
// the machine.StepOps reference step every op in slot order instead,
// because the emission order of their events is part of what the goldens
// and the differential sweeps compare.
package mimd

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

// Config describes one multi-processor instance.
type Config struct {
	// Cores is the number of IP+DP pairs n.
	Cores int
	// BankWords is each core's data-memory bank size.
	BankWords int
	// Class is the IMP row of Table I the machine realizes. Its IP-IM
	// switch selects private program images (direct) or an image
	// crossbar, its DP-DM switch local (direct) or global crossbar memory
	// addressing, and its DP-DP switch the message network, none or a
	// crossbar. Its IP-DP switch does not change timing.
	Class taxonomy.Class
	// BusDPDP realizes the DP-DP 'x' switch as a single shared bus instead
	// of a full crossbar: the cheap implementation RaPiD's row buses use,
	// whose serialization is the paper's §IV scalability complaint. The
	// taxonomy class is unchanged (a bus is still an 'x' switch); only the
	// timing differs.
	BusDPDP bool
	// MaxCycles bounds the run; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
	// Tracer, when non-nil, receives run events: one track per core, barrier
	// releases on the machine track, network stalls on the sending core's
	// track. Nil disables tracing; an *obs.Tally takes the events of the
	// cores' run-ahead folded (see the package comment).
	Tracer obs.Tracer
	// Interp runs the machine.StepOps reference chain instead of the
	// compiled code, for the differential sweeps that pin the two equal.
	Interp bool
}

func (c Config) validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("mimd: a multi-processor needs n >= 2 cores, got %d (use uniproc for 1)", c.Cores)
	}
	if c.BankWords < 1 {
		return fmt.Errorf("mimd: bank size must be >= 1 word, got %d", c.BankWords)
	}
	if err := c.Class.Require(taxonomy.InstructionFlow, taxonomy.MultiProcessor); err != nil {
		return fmt.Errorf("mimd: %w", err)
	}
	return nil
}

// image is one program image in the forms the scheduler runs.
type image struct {
	// dec is the pre-decoded program the scheduler dispatches on: the
	// staged program's, shared and read-only, except under Config.Interp.
	dec isa.DecodedProgram
	// ops is the per-op chain: compiled code, or the StepOps reference
	// under Config.Interp. The cross-core network and barrier timing keeps
	// the cycle-by-cycle scheduler either way.
	ops []machine.OpFn
	// comp is the compiled program whose fused blocks cores run ahead
	// through; nil under Config.Interp.
	comp *machine.CompiledProgram
	// ahead marks the pcs at which a core may run ahead; nil when no pc
	// qualifies or the run is interpreted or traced by a recorder that
	// keeps its events.
	ahead []bool
	// win marks the pcs at which a core may open an optimistic window
	// (window.go); nil unless the machine runs rounds.
	win []bool
}

// tallyOf returns the run's tracer when it is an *obs.Tally, which only
// counts and so takes a run-ahead's events folded in one call, and nil
// otherwise.
func tallyOf(tr obs.Tracer) *obs.Tally {
	t, _ := tr.(*obs.Tally)
	return t
}

// runsAhead reports whether cores may run ahead of the slot order: on
// the compiled code, untraced or traced into a Tally. The reference and
// ordered traces step every op in slot order.
func (c Config) runsAhead() bool {
	return !c.Interp && (c.Tracer == nil || tallyOf(c.Tracer) != nil)
}

// windowed reports whether the machine runs optimistic rounds: cores run
// ahead and their loads and stores cross a DP-DM crossbar.
func (c Config) windowed() bool {
	return c.runsAhead() && c.Class.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar &&
		c.Cores <= maxWindowCores && c.BankWords > 1 && int64(c.Cores)*int64(c.BankWords) <= maxWindowWords
}

// newImage builds one program image from its loaded program.
func newImage(ld machine.Loaded, cfg Config) *image {
	img := &image{dec: ld.Dec, ops: ld.Ops, comp: ld.Comp}
	if img.comp == nil || !cfg.runsAhead() {
		return img
	}
	memLocal := cfg.Class.Links[taxonomy.SiteDPDM] == taxonomy.LinkDirect
	img.ahead = marks(len(img.dec), func(pc int) bool { return img.comp.RunsAhead(pc, memLocal) })
	if cfg.windowed() {
		img.win = marks(len(img.dec), img.comp.WindowAt)
	}
	return img
}

// marks returns the pcs in [0, n) at which at holds, nil when none does.
func marks(n int, at func(pc int) bool) []bool {
	var m []bool
	for pc := range n {
		if at(pc) {
			if m == nil {
				m = make([]bool, n)
			}
			m[pc] = true
		}
	}
	return m
}

// coreState tracks one core's execution.
type coreState struct {
	// cpu holds the core's registers and, for run-ahead, its bank and
	// lane index.
	cpu     machine.CPU
	pc      int
	img     *image // the program image the core fetches from
	halted  bool
	readyAt int64
	// inBarrier marks a core waiting at the current SYNC; barrierAt is the
	// cycle it arrived (for traced wait spans).
	inBarrier bool
	barrierAt int64
	// trail records the core's last run-ahead, whose work past the slot
	// of a failure the scheduler takes back.
	trail machine.Trail
}

// Machine is one multi-processor instance.
type Machine struct {
	cfg Config
	// images holds each program image; equal programs share one entry.
	images []*image
	cores  []coreState
	// Banks is the cores' data side: banks, DP-DM crossbar, message
	// network and mailboxes. The scheduler sets its Now/Finish per step.
	*machine.Banks
	// perCore accumulates each core's retired instructions and last-active
	// cycle for load-balance analysis.
	perCore []CoreStats
	// memLocal reports a direct DP-DM switch, under which loads and
	// stores are private.
	memLocal bool
	// tally is Config.Tracer when it is an *obs.Tally: run-ahead folds
	// its events into it, and stop takes back what it folded too far.
	tally *obs.Tally
	// win is the scratch of the optimistic rounds under a DP-DM crossbar,
	// nil when the machine runs none.
	win *windows
}

// CoreStats summarises one core's activity in a run.
type CoreStats struct {
	// Instructions is the core's retired instruction count.
	Instructions int64
	// FinishedAt is the cycle the core halted (0 if it never ran).
	FinishedAt int64
}

// New builds a multi-processor. With IP-IM direct there must be exactly one
// program image per core (core i runs programs[i]). With the IP-IM crossbar
// any positive number of images is allowed and every core starts on image
// 0; use Assign to point cores at other images.
func New(cfg Config, programs []isa.Program) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(programs) == 0 {
		return nil, fmt.Errorf("mimd: no program images")
	}
	// SPMD callers pass one program once per core: equal programs are one
	// staged program (machine.Stage), and the cores running it share one
	// image.
	images := make([]*image, len(programs))
	for i, p := range programs {
		if len(p) == 0 {
			return nil, fmt.Errorf("mimd: program image %d is empty", i)
		}
		ld, err := machine.Load(p, machine.CompileOptions{}, cfg.Interp)
		if err != nil {
			return nil, fmt.Errorf("mimd: program image %d: %w", i, err)
		}
		for j := range i {
			if ld.Comp != nil && images[j].comp == ld.Comp {
				images[i] = images[j]
				break
			}
		}
		if images[i] == nil {
			images[i] = newImage(ld, cfg)
		}
	}
	ipimDirect := cfg.Class.Links[taxonomy.SiteIPIM] == taxonomy.LinkDirect
	if ipimDirect && len(programs) != cfg.Cores {
		return nil, fmt.Errorf("mimd: IP-IM is direct, need one program image per core (%d), got %d",
			cfg.Cores, len(programs))
	}
	banks, err := machine.NewBanks(machine.BankConfig{Pkg: "mimd", Noun: "core", Procs: cfg.Cores,
		BankWords: cfg.BankWords, DPDM: cfg.Class.Links[taxonomy.SiteDPDM], DPDP: cfg.Class.Links[taxonomy.SiteDPDP],
		BusDPDP: cfg.BusDPDP, Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		images:   images,
		cores:    make([]coreState, cfg.Cores),
		perCore:  make([]CoreStats, cfg.Cores),
		memLocal: cfg.Class.Links[taxonomy.SiteDPDM] == taxonomy.LinkDirect,
		tally:    tallyOf(cfg.Tracer),
	}
	m.Banks = banks
	if cfg.windowed() {
		m.win = getWindows(cfg.Cores, cfg.BankWords)
	}
	for i := range m.cores {
		m.cores[i].img = images[0]
		if ipimDirect {
			m.cores[i].img = images[i]
		}
		m.cores[i].cpu.Mem = banks.Bank(i)
		if m.win != nil {
			m.cores[i].cpu.Mem = banks.Global()
		}
		m.cores[i].cpu.Lane = isa.Word(i)
		// SYNC blocks until tryReleaseBarrier releases every live core.
		m.Env(i).Barrier = func() error { return machine.ErrWouldBlock }
	}
	return m, nil
}

// Assign points core at program image. It requires the IP-IM crossbar: on
// direct wiring each instruction processor can only see its own image.
func (m *Machine) Assign(core, image int) error {
	if m.cfg.Class.Links[taxonomy.SiteIPIM] != taxonomy.LinkCrossbar {
		return fmt.Errorf("mimd: IP-IM is direct; core %d cannot be re-pointed at image %d", core, image)
	}
	if core < 0 || core >= m.cfg.Cores {
		return fmt.Errorf("mimd: core %d out of range [0,%d)", core, m.cfg.Cores)
	}
	if image < 0 || image >= len(m.images) {
		return fmt.Errorf("mimd: image %d out of range [0,%d)", image, len(m.images))
	}
	m.cores[core].img = m.images[image]
	return nil
}

// Release returns the machine's banks and round scratch to their pools.
// The machine must not be used afterwards; a second Release does nothing.
func (m *Machine) Release() {
	if m.win != nil {
		putWindows(m.win)
		m.win = nil
	}
	m.Banks.Release()
}

// Cores returns the core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// CoreStats returns each core's activity after Run, for load-balance
// analysis: who retired how many instructions and when each core halted.
// It must only be called after Run returns: the per-core counters are
// plain fields the scheduler writes without synchronisation, so sampling
// them from another goroutine mid-run is a data race (use an obs.Tracer
// for live monitoring instead).
func (m *Machine) CoreStats() []CoreStats {
	return append([]CoreStats(nil), m.perCore...)
}

// Run executes all cores to completion and returns aggregate statistics.
// The scheduler is deterministic: one simulated cycle at a time, stepping
// ready cores in index order. Compiled runs that are untraced or traced
// into an obs.Tally let a core run ahead through private blocks and skip
// the cycles in which no core is ready (see the package comment); the
// results, and the Tally's count and totals, are the same.
func (m *Machine) Run() (machine.Stats, error) {
	var stats machine.Stats
	budget := m.cfg.MaxCycles
	if budget <= 0 {
		budget = machine.DefaultMaxCycles
	}

	running := 0
	for i := range m.cores {
		if m.cores[i].pc < len(m.cores[i].img.dec) {
			running++
		} else {
			m.cores[i].halted = true
		}
	}

	for cycle := int64(0); running > 0; cycle++ {
		if cycle >= budget {
			m.stop(&stats, cycle, -1)
			return stats, fmt.Errorf("mimd: %w after %d cycles", machine.ErrDeadline, cycle)
		}
		if m.win != nil && cycle >= m.win.resume {
			m.round(cycle, budget, &stats)
		}
		progress := false
		anyScheduledLater := false
		// next is the earliest cycle after this one at which a live core
		// is ready; the loop jumps there when it is more than a cycle away.
		next := int64(math.MaxInt64)
		for i := range m.cores {
			c := &m.cores[i]
			if c.halted || c.inBarrier {
				continue
			}
			if c.readyAt > cycle {
				anyScheduledLater = true
				next = min(next, c.readyAt)
				continue
			}
			img := c.img
			dec := img.dec
			if c.pc < 0 || c.pc >= len(dec) {
				c.halted = true
				running--
				progress = true
				continue
			}
			if img.ahead != nil && img.ahead[c.pc] {
				pc, at := img.comp.RunAhead(&c.cpu, c.pc, cycle, budget, m.memLocal, &c.trail)
				if at > cycle {
					m.credit(&stats, i, c.cpu.Stats, 1)
					c.pc, c.readyAt = pc, at
					stats.Cycles = max(stats.Cycles, at)
					progress = true
					next = min(next, at)
					continue
				}
			}
			d := &dec[c.pc]
			m.Now, m.Finish = cycle, cycle+1
			env := m.Env(i)
			env.Now = cycle
			out, err := img.ops[c.pc](&c.cpu.Regs, env)
			finish := m.Finish
			if err != nil {
				m.stop(&stats, cycle, i)
				return stats, fmt.Errorf("mimd: core %d pc %d: %w", i, c.pc, err)
			}
			if out.Blocked {
				if d.Op == isa.OpSync {
					c.inBarrier = true
					c.barrierAt = cycle
					progress = true // entering the barrier is progress
					m.tryReleaseBarrier(cycle+1, &stats)
				}
				// Blocked RECV: retry next cycle. A released barrier also
				// readies its cores next cycle.
				c.readyAt = cycle + 1
				next = cycle + 1
				continue
			}
			progress = true
			stats.Instructions++
			m.perCore[i].Instructions++
			isALU := d.IsALU()
			if isALU {
				stats.ALUOps++
			}
			if m.cfg.Tracer != nil {
				flags := obs.FlagHasOp
				if isALU {
					flags |= obs.FlagALU
				}
				m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindInstr, Flags: flags, Track: int32(i),
					Cycle: cycle, Dur: finish - cycle, Arg: int64(d.Op)})
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
			c.pc = out.NextPC
			c.readyAt = finish
			if out.Halted || c.pc >= len(dec) {
				c.halted = true
				m.perCore[i].FinishedAt = finish
				running--
			} else {
				next = min(next, finish)
			}
			if stats.Cycles < finish {
				stats.Cycles = finish
			}
		}
		if !progress && !anyScheduledLater {
			// A core may have halted after the others entered the barrier;
			// the barrier is then releasable among the remaining live cores.
			if m.tryReleaseBarrier(cycle+1, &stats) {
				continue
			}
			// Every live core is blocked on RECV or stuck in a barrier that
			// can never release: deadlock.
			m.stop(&stats, cycle, -1)
			return stats, fmt.Errorf("mimd: deadlock at cycle %d: all %d live cores blocked", cycle, running)
		}
		if next > cycle+1 && next != math.MaxInt64 {
			// No core is ready before next: nothing happens in between.
			cycle = min(next, budget) - 1
		}
	}
	stats.NetConflictCycles += m.ConflictCycles()
	return stats, nil
}

// stop settles the Stats of a run that fails at core's slot of cycle
// (core -1 for the slot before every core's). A core that ran ahead past
// that slot takes back the instructions it retired at later slots, and
// their folded events, so the Stats, CoreStats and Tally are those of the
// op-by-op loop stopping there.
func (m *Machine) stop(stats *machine.Stats, cycle int64, core int) {
	for j := range m.cores {
		c := &m.cores[j]
		comp := c.img.comp
		if comp == nil {
			continue // the reference chain never runs ahead
		}
		cut := cycle
		if j < core {
			cut++ // core j's slot of this cycle came before the failure
		}
		m.credit(stats, j, comp.After(&c.trail, cut), -1)
		if m.win != nil {
			m.credit(stats, j, comp.After(&m.win.cores[j].trail, cut), -1)
		}
	}
	stats.NetConflictCycles += m.ConflictCycles()
	stats.Cycles = cycle
}

// credit adds (sign 1) or takes back (sign -1) the work core retired
// ahead of the slot order, in ran, and the events a Tally folded for it.
func (m *Machine) credit(stats *machine.Stats, core int, ran machine.Stats, sign int64) {
	stats.Instructions += sign * ran.Instructions
	stats.ALUOps += sign * ran.ALUOps
	stats.MemReads += sign * ran.MemReads
	stats.MemWrites += sign * ran.MemWrites
	m.perCore[core].Instructions += sign * ran.Instructions
	if m.tally != nil {
		machine.FoldPrivate(m.tally, ran, sign)
	}
}

// tryReleaseBarrier releases all cores once every live core waits at SYNC,
// and reports whether it did.
func (m *Machine) tryReleaseBarrier(releaseCycle int64, stats *machine.Stats) bool {
	waiting := 0
	live := 0
	for i := range m.cores {
		if m.cores[i].halted {
			continue
		}
		live++
		if m.cores[i].inBarrier {
			waiting++
		}
	}
	if live == 0 || waiting < live {
		return false
	}
	for i := range m.cores {
		if m.cores[i].halted || !m.cores[i].inBarrier {
			continue
		}
		m.cores[i].inBarrier = false
		m.cores[i].pc++ // step past the SYNC
		m.cores[i].readyAt = releaseCycle
		stats.Instructions++
		m.perCore[i].Instructions++
		if m.cfg.Tracer != nil {
			// The SYNC retires at release; its span covers the wait.
			wait := releaseCycle - m.cores[i].barrierAt
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindInstr, Flags: obs.FlagHasOp, Track: int32(i),
				Cycle: m.cores[i].barrierAt, Dur: wait, Arg: int64(isa.OpSync)})
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindWait, Track: int32(i),
				Cycle: m.cores[i].barrierAt, Dur: wait})
		}
	}
	stats.Barriers++
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindBarrier, Track: obs.TrackMachine, Cycle: releaseCycle})
	}
	if stats.Cycles < releaseCycle {
		stats.Cycles = releaseCycle
	}
	return true
}
