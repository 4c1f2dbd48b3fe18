// Package spatial simulates the taxonomy's instruction-flow spatial
// processors (classes ISP-I..XVI, Table I rows 31-46): multi-processors
// whose instruction processors are themselves connected through an IP-IP
// switch, so several small IPs can be composed into one bigger IP — the
// "spatial computing" the paper introduces with these classes (§II.C,
// Fig 5), realized in silicon by DRRA-like fabrics.
//
// The model: the machine's cores are partitioned into control groups. Each
// group has a leader whose instruction processor sequences one program and
// streams every decoded instruction over the IP-IP network to the group's
// other members; all members execute the stream in lockstep on their own
// data processors, registers and memory banks. A group of one is an
// ordinary Von Neumann core; a single group spanning all cores makes the
// machine behave as an array processor; a partition into singleton groups
// makes it behave as a multi-processor. That one machine morphs between
// those shapes by re-partitioning is exactly the extra flexibility the
// taxonomy awards the ISP classes over IMP.
//
// The IP-IP switch may be a full crossbar or a limited window (DRRA's
// "3 hops left or right"); with a window, a group's members must be within
// the window of its leader, so the achievable compositions are constrained
// by the hardware — again the taxonomy's point, now operational.
package spatial

import (
	"fmt"

	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

// Config describes one spatial-processor instance.
type Config struct {
	// Cores is the number of IP+DP cells n.
	Cores int
	// BankWords is each cell's data-memory bank size.
	BankWords int
	// Class is the ISP row of Table I the machine realizes: its IP-DP,
	// IP-IM, DP-DM and DP-DP switch kinds are those of the IMP row with
	// the same sub-type.
	Class taxonomy.Class
	// Window limits the IP-IP switch to leaders reaching members within
	// |leader-member| <= Window; 0 means a full IP-IP crossbar.
	Window int
	// MaxCycles bounds the run; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
	// Tracer, when non-nil, receives run events: one track per cell, control
	// instructions on the leader's track, IP-IP instruction streaming as send
	// events, barrier releases on the machine track. Nil disables tracing.
	Tracer obs.Tracer
	// Interp runs the machine.StepOps reference chain instead of the
	// compiled code, for the differential sweeps that pin the two equal.
	Interp bool
}

func (c Config) validate() error {
	if c.Cores < 2 {
		return fmt.Errorf("spatial: a spatial processor needs n >= 2 cells, got %d", c.Cores)
	}
	if c.BankWords < 1 {
		return fmt.Errorf("spatial: bank size must be >= 1 word, got %d", c.BankWords)
	}
	if c.Window < 0 {
		return fmt.Errorf("spatial: window must be >= 0, got %d", c.Window)
	}
	if err := c.Class.Require(taxonomy.InstructionFlow, taxonomy.SpatialProcessor); err != nil {
		return fmt.Errorf("spatial: %w", err)
	}
	return nil
}

// group is one composed instruction processor.
type group struct {
	leader  int
	members []int // includes the leader, sorted by construction order
	prog    isa.Program
	dec     isa.DecodedProgram
	ops     []machine.OpFn // the per-op chain of dec, indexed by pc
	regs    []machine.Regs // indexed like members
	// ctrl is the leader IP's environment for control instructions, kept
	// here because a pointer to a local would escape through the chain.
	ctrl    machine.Env
	pc      int
	halted  bool
	readyAt int64
	inSync  bool
	// syncAt is the cycle the group reached the current SYNC (traced waits).
	syncAt int64
}

// Machine is one spatial-processor instance.
type Machine struct {
	cfg      Config
	groups   []*group
	assigned []bool
	ipip     interconnect.Network
	sealed   bool
	// Banks is the cells' data side: banks, DP-DM crossbar, DP-DP network
	// and mailboxes. stepGroup sets its Now/Finish per member step.
	*machine.Banks
}

// New builds an empty spatial fabric; compose control groups with Compose,
// then Run.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var ipip interconnect.Network
	var err error
	if cfg.Window > 0 {
		ipip, err = interconnect.NewLimited(cfg.Cores, cfg.Window)
	} else {
		ipip, err = interconnect.NewCrossbar(cfg.Cores)
	}
	if err != nil {
		return nil, err
	}
	banks, err := machine.NewBanks(machine.BankConfig{Pkg: "spatial", Noun: "cell", Procs: cfg.Cores,
		BankWords: cfg.BankWords, DPDM: cfg.Class.Links[taxonomy.SiteDPDM], DPDP: cfg.Class.Links[taxonomy.SiteDPDP],
		Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		assigned: make([]bool, cfg.Cores),
		ipip:     obs.ObserveNetwork(ipip, cfg.Tracer),
	}
	m.Banks = banks
	return m, nil
}

// Compose forms a control group: leader's IP sequences prog and streams it
// to the listed members (the leader itself is always a member and need not
// be listed). With a windowed IP-IP switch every member must lie within the
// window of the leader. Each cell may belong to at most one group.
func (m *Machine) Compose(leader int, members []int, prog isa.Program) error {
	if m.sealed {
		return fmt.Errorf("spatial: machine already ran; build a new one to recompose")
	}
	if leader < 0 || leader >= m.cfg.Cores {
		return fmt.Errorf("spatial: leader %d out of range [0,%d)", leader, m.cfg.Cores)
	}
	if len(prog) == 0 {
		return fmt.Errorf("spatial: empty program for leader %d", leader)
	}
	ld, err := machine.Load(prog, machine.CompileOptions{}, m.cfg.Interp)
	if err != nil {
		return fmt.Errorf("spatial: leader %d: %w", leader, err)
	}
	all := append([]int{leader}, members...)
	seen := map[int]bool{}
	for _, c := range all {
		if c < 0 || c >= m.cfg.Cores {
			return fmt.Errorf("spatial: member %d out of range [0,%d)", c, m.cfg.Cores)
		}
		if seen[c] {
			return fmt.Errorf("spatial: cell %d listed twice in group of leader %d", c, leader)
		}
		if m.assigned[c] {
			return fmt.Errorf("spatial: cell %d already belongs to a group", c)
		}
		if m.cfg.Window > 0 {
			dist := c - leader
			if dist < 0 {
				dist = -dist
			}
			if dist > m.cfg.Window {
				return fmt.Errorf("spatial: cell %d is %d hops from leader %d, beyond the IP-IP window %d",
					c, dist, leader, m.cfg.Window)
			}
		}
		seen[c] = true
	}
	for _, c := range all {
		m.assigned[c] = true
	}
	g := &group{leader: leader, members: all, prog: prog, dec: ld.Dec, ops: ld.Ops,
		regs: make([]machine.Regs, len(all)),
		ctrl: machine.Env{Lane: isa.Word(leader)}}
	m.groups = append(m.groups, g)
	return nil
}

// InstructionWords is the total instruction storage the current composition
// occupies: one program copy per control group, held by the group's leader.
// This is the storage side of the spatial-computing argument: an ISP
// running one program over all n cells stores it once, while an IMP-I with
// direct IP-IM wiring must replicate it n times (compare
// mimd-style n*len(program)).
func (m *Machine) InstructionWords() int {
	total := 0
	for _, g := range m.groups {
		total += len(g.prog)
	}
	return total
}

// Groups returns the number of composed control groups.
func (m *Machine) Groups() int { return len(m.groups) }

// Run executes all groups to completion. Every cell must belong to a group.
func (m *Machine) Run() (machine.Stats, error) {
	var stats machine.Stats
	if m.sealed {
		return stats, fmt.Errorf("spatial: machine already ran; build a new one")
	}
	for c, ok := range m.assigned {
		if !ok {
			return stats, fmt.Errorf("spatial: cell %d belongs to no control group; Compose must partition all cells", c)
		}
	}
	m.sealed = true
	budget := m.cfg.MaxCycles
	if budget <= 0 {
		budget = machine.DefaultMaxCycles
	}

	running := len(m.groups)
	for cycle := int64(0); running > 0; cycle++ {
		if cycle >= budget {
			m.addConflictCycles(&stats)
			stats.Cycles = cycle
			return stats, fmt.Errorf("spatial: %w after %d cycles", machine.ErrDeadline, cycle)
		}
		progress := false
		scheduledLater := false
		for _, g := range m.groups {
			if g.halted || g.inSync {
				continue
			}
			if g.readyAt > cycle {
				scheduledLater = true
				continue
			}
			if g.pc < 0 || g.pc >= len(g.dec) {
				g.halted = true
				running--
				progress = true
				continue
			}
			d := &g.dec[g.pc]
			outcome, err := m.stepGroup(g, d, cycle, &stats)
			if err != nil {
				m.addConflictCycles(&stats)
				stats.Cycles = cycle
				return stats, err
			}
			switch outcome {
			case groupBlocked:
				g.readyAt = cycle + 1
			case groupInSync:
				g.inSync = true
				g.syncAt = cycle
				progress = true
				m.tryReleaseSync(cycle+1, &stats)
			case groupHalted:
				g.halted = true
				running--
				progress = true
			case groupAdvanced:
				progress = true
			}
		}
		if !progress && !scheduledLater {
			if m.tryReleaseSyncNow(cycle+1, &stats) {
				continue
			}
			m.addConflictCycles(&stats)
			stats.Cycles = cycle
			return stats, fmt.Errorf("spatial: deadlock at cycle %d: all %d live groups blocked", cycle, running)
		}
	}
	m.addConflictCycles(&stats)
	return stats, nil
}

// group step outcomes.
type groupOutcome int

const (
	groupAdvanced groupOutcome = iota
	groupBlocked
	groupInSync
	groupHalted
)

// stepGroup executes one instruction across the whole group in lockstep:
// d describes it to the scheduler and the group's compiled chain runs it.
func (m *Machine) stepGroup(g *group, d *isa.DecodedOp, cycle int64, stats *machine.Stats) (groupOutcome, error) {
	finish := cycle + 1

	// Control instructions run on the leader's IP alone.
	if d.IsBranch() || d.Op == isa.OpHalt || d.Op == isa.OpSync {
		switch d.Op {
		case isa.OpHalt:
			stats.Instructions++
			m.emitInstr(int32(g.leader), cycle, 1, d.Op)
			bump(stats, finish)
			return groupHalted, nil
		case isa.OpSync:
			return groupInSync, nil
		default:
			out, err := g.ops[g.pc](&g.regs[0], &g.ctrl)
			if err != nil {
				return 0, fmt.Errorf("spatial: group of leader %d pc %d: %w", g.leader, g.pc, err)
			}
			stats.Instructions++
			m.emitInstr(int32(g.leader), cycle, 1, d.Op)
			g.pc = out.NextPC
			bump(stats, finish)
			return groupAdvanced, nil
		}
	}

	// Pre-check RECVs so a blocked member never leaves partial effects.
	if d.Op == isa.OpRecv {
		if m.cfg.Class.Links[taxonomy.SiteDPDP] != taxonomy.LinkCrossbar {
			return 0, fmt.Errorf("spatial: group of leader %d pc %d: no DP-DP network for recv", g.leader, g.pc)
		}
		for mi, cell := range g.members {
			ready, err := m.Ready(cell, int(g.regs[mi][d.Rb]), cycle)
			if err != nil {
				return 0, err
			}
			if !ready {
				return groupBlocked, nil
			}
		}
	}

	// Stream the instruction to every member; non-leader members pay the
	// IP-IP delivery first.
	isALU := d.IsALU()
	for mi, cell := range g.members {
		execAt := cycle
		if cell != g.leader {
			arrival, err := m.ipip.Transfer(cycle, g.leader, cell)
			if err != nil {
				return 0, fmt.Errorf("spatial: IP-IP delivery from %d to %d: %w", g.leader, cell, err)
			}
			execAt = arrival
			stats.Messages++
			if m.cfg.Tracer != nil {
				// Instruction streaming over the IP-IP switch is a message.
				m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindSend, Track: int32(g.leader),
					Cycle: cycle, Arg: int64(cell)})
			}
		}
		m.Now, m.Finish = execAt, execAt+1
		env := m.Env(cell)
		env.Now = execAt
		out, err := g.ops[g.pc](&g.regs[mi], env)
		memberFinish := m.Finish
		if err != nil {
			return 0, fmt.Errorf("spatial: cell %d pc %d: %w", cell, g.pc, err)
		}
		if out.Blocked {
			// RECV was pre-checked; this indicates a queue raced empty,
			// which the lockstep model forbids.
			return 0, fmt.Errorf("spatial: cell %d pc %d: lockstep recv underflow", cell, g.pc)
		}
		stats.Instructions++
		if isALU {
			stats.ALUOps++
		}
		m.emitInstr(int32(cell), execAt, memberFinish-execAt, d.Op)
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
		if memberFinish > finish {
			finish = memberFinish
		}
	}
	g.pc++
	g.readyAt = finish
	bump(stats, finish)
	return groupAdvanced, nil
}

// emitInstr traces one retired instruction when a tracer is configured.
func (m *Machine) emitInstr(track int32, cycle, dur int64, op isa.Op) {
	if m.cfg.Tracer == nil {
		return
	}
	flags := obs.FlagHasOp
	if machine.IsALU(op) {
		flags |= obs.FlagALU
	}
	m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindInstr, Flags: flags, Track: track,
		Cycle: cycle, Dur: dur, Arg: int64(op)})
}

// tryReleaseSyncNow reports whether a cross-group barrier released.
func (m *Machine) tryReleaseSyncNow(releaseCycle int64, stats *machine.Stats) bool {
	before := stats.Barriers
	m.tryReleaseSync(releaseCycle, stats)
	return stats.Barriers > before
}

// tryReleaseSync releases the barrier once every live group waits at SYNC.
func (m *Machine) tryReleaseSync(releaseCycle int64, stats *machine.Stats) {
	live, waiting := 0, 0
	for _, g := range m.groups {
		if g.halted {
			continue
		}
		live++
		if g.inSync {
			waiting++
		}
	}
	if live == 0 || waiting < live {
		return
	}
	for _, g := range m.groups {
		if g.halted || !g.inSync {
			continue
		}
		g.inSync = false
		g.pc++
		g.readyAt = releaseCycle
		stats.Instructions++
		if m.cfg.Tracer != nil {
			wait := releaseCycle - g.syncAt
			m.emitInstr(int32(g.leader), g.syncAt, wait, isa.OpSync)
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindWait, Track: int32(g.leader),
				Cycle: g.syncAt, Dur: wait})
		}
	}
	stats.Barriers++
	if m.cfg.Tracer != nil {
		m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindBarrier, Track: obs.TrackMachine, Cycle: releaseCycle})
	}
	bump(stats, releaseCycle)
}

// addConflictCycles folds the IP-IP, DP-DM and DP-DP conflict counters into
// the run stats.
func (m *Machine) addConflictCycles(stats *machine.Stats) {
	stats.NetConflictCycles += m.ipip.Stats().ConflictCycles + m.ConflictCycles()
}

func bump(stats *machine.Stats, cycle int64) {
	if stats.Cycles < cycle {
		stats.Cycles = cycle
	}
}
