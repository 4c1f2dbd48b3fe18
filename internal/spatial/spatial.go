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
	// Sub is the IMP-style sub-type 1..16 selecting the IP-DP, IP-IM,
	// DP-DM and DP-DP switch kinds (the ISP classes share the sub-type
	// semantics with IMP).
	Sub int
	// Window limits the IP-IP switch to leaders reaching members within
	// |leader-member| <= Window; 0 means a full IP-IP crossbar.
	Window int
	// MaxCycles bounds the run; 0 means machine.DefaultMaxCycles.
	MaxCycles int64
	// Tracer, when non-nil, receives run events: one track per cell, control
	// instructions on the leader's track, IP-IP instruction streaming as send
	// events, barrier releases on the machine track. Nil disables tracing.
	Tracer obs.Tracer
}

// Class returns the taxonomy class this configuration realizes: Table I's
// ISP row with the configured sub-type.
func (c Config) Class() (taxonomy.Class, error) {
	if c.Sub < 1 || c.Sub > 16 {
		return taxonomy.Class{}, fmt.Errorf("spatial: sub-type must be 1..16, got %d", c.Sub)
	}
	return taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.InstructionFlow, Proc: taxonomy.SpatialProcessor, Sub: c.Sub})
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
	_, err := c.Class()
	return err
}

// group is one composed instruction processor.
type group struct {
	leader  int
	members []int // includes the leader, sorted by construction order
	prog    isa.Program
	dec     isa.DecodedProgram
	ops     []machine.OpFn // the compiled chain of dec, indexed by pc
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

// message is one DP-DP word in flight.
type message struct {
	val         isa.Word
	availableAt int64
}

// Machine is one spatial-processor instance.
type Machine struct {
	cfg      Config
	links    taxonomy.Links
	banks    []machine.Memory
	groups   []*group
	assigned []bool
	ipip     interconnect.Network
	memNet   interconnect.Network
	msgNet   interconnect.Network
	mail     [][][]message
	sealed   bool
	// envs holds one prebuilt environment per cell; the closures read the
	// cycle/finish fields below, refreshed per member step.
	envs   []machine.Env
	cycle  int64
	finish int64
}

// New builds an empty spatial fabric; compose control groups with Compose,
// then Run.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	class, err := cfg.Class()
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:      cfg,
		links:    class.Links,
		banks:    make([]machine.Memory, cfg.Cores),
		assigned: make([]bool, cfg.Cores),
	}
	// On any failure past this point the cleanup returns the banks
	// acquired so far to their pool; success disarms it.
	built := false
	defer func() {
		if !built {
			m.Release()
		}
	}()
	for i := range m.banks {
		bank, err := machine.GetMemory(cfg.BankWords)
		if err != nil {
			return nil, err
		}
		m.banks[i] = bank
	}
	if cfg.Window > 0 {
		net, err := interconnect.NewLimited(cfg.Cores, cfg.Window)
		if err != nil {
			return nil, err
		}
		m.ipip = obs.ObserveNetwork(net, cfg.Tracer)
	} else {
		net, err := interconnect.NewCrossbar(cfg.Cores)
		if err != nil {
			return nil, err
		}
		m.ipip = obs.ObserveNetwork(net, cfg.Tracer)
	}
	if class.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar {
		net, err := interconnect.NewCrossbar(cfg.Cores)
		if err != nil {
			return nil, err
		}
		m.memNet = obs.ObserveNetwork(net, cfg.Tracer)
	}
	if class.Links[taxonomy.SiteDPDP] == taxonomy.LinkCrossbar {
		net, err := interconnect.NewCrossbar(cfg.Cores)
		if err != nil {
			return nil, err
		}
		m.msgNet = obs.ObserveNetwork(net, cfg.Tracer)
		m.mail = make([][][]message, cfg.Cores)
		for i := range m.mail {
			m.mail[i] = make([][]message, cfg.Cores)
		}
	}
	m.envs = make([]machine.Env, cfg.Cores)
	for cell := range m.envs {
		m.envs[cell] = m.cellEnv(cell)
	}
	built = true
	return m, nil
}

// Release returns the machine's pooled banks. The machine must not be used
// afterwards.
func (m *Machine) Release() {
	for i := range m.banks {
		machine.PutMemory(m.banks[i])
		m.banks[i] = nil
	}
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
	if err := prog.Validate(); err != nil {
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
	dec := isa.Predecode(prog)
	g := &group{leader: leader, members: all, prog: prog, dec: dec,
		ops:  machine.Compile(dec, machine.CompileOptions{}).Ops(),
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

// LoadBank copies vals into a cell's bank at base.
func (m *Machine) LoadBank(cell, base int, vals []isa.Word) error {
	if cell < 0 || cell >= m.cfg.Cores {
		return fmt.Errorf("spatial: cell %d out of range [0,%d)", cell, m.cfg.Cores)
	}
	return m.banks[cell].CopyIn(base, vals)
}

// ReadBank reads n words from a cell's bank at base.
func (m *Machine) ReadBank(cell, base, n int) ([]isa.Word, error) {
	if cell < 0 || cell >= m.cfg.Cores {
		return nil, fmt.Errorf("spatial: cell %d out of range [0,%d)", cell, m.cfg.Cores)
	}
	return m.banks[cell].CopyOut(base, n)
}

// resolveAddr maps a cell's address under the DP-DM kind.
func (m *Machine) resolveAddr(cell int, addr isa.Word) (bank int, off isa.Word, err error) {
	if m.links[taxonomy.SiteDPDM] == taxonomy.LinkDirect {
		if addr < 0 || addr >= isa.Word(m.cfg.BankWords) {
			return 0, 0, fmt.Errorf("spatial: cell %d address %d outside its bank of %d words (DP-DM is direct)",
				cell, addr, m.cfg.BankWords)
		}
		return cell, addr, nil
	}
	total := isa.Word(m.cfg.BankWords) * isa.Word(m.cfg.Cores)
	if addr < 0 || addr >= total {
		return 0, 0, fmt.Errorf("spatial: cell %d global address %d outside %d words", cell, addr, total)
	}
	return int(addr) / m.cfg.BankWords, addr % isa.Word(m.cfg.BankWords), nil
}

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
			m.collectNetStats(&stats)
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
				m.collectNetStats(&stats)
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
			m.collectNetStats(&stats)
			stats.Cycles = cycle
			return stats, fmt.Errorf("spatial: deadlock at cycle %d: all %d live groups blocked", cycle, running)
		}
	}
	m.collectNetStats(&stats)
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
		if m.msgNet == nil {
			return 0, fmt.Errorf("spatial: group of leader %d pc %d: no DP-DP network for recv", g.leader, g.pc)
		}
		for mi, cell := range g.members {
			peer := int(g.regs[mi][d.Rb])
			if peer < 0 || peer >= m.cfg.Cores {
				return 0, fmt.Errorf("spatial: cell %d receives from nonexistent cell %d", cell, peer)
			}
			q := m.mail[peer][cell]
			if len(q) == 0 || q[0].availableAt > cycle {
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
		m.cycle, m.finish = execAt, execAt+1
		env := &m.envs[cell]
		env.Now = execAt
		out, err := g.ops[g.pc](&g.regs[mi], env)
		memberFinish := m.finish
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
		if out.Mem {
			if d.Op == isa.OpLd {
				stats.MemReads++
			} else {
				stats.MemWrites++
			}
		}
		if out.Comm {
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

// cellEnv builds a member cell's reusable environment. The closures read
// the machine's cycle/finish fields, refreshed per member step, so this
// runs once per cell at construction.
func (m *Machine) cellEnv(cell int) machine.Env {
	env := machine.Env{Lane: isa.Word(cell), Tracer: m.cfg.Tracer, Track: int32(cell)}
	env.Load = func(addr isa.Word) (isa.Word, error) {
		bank, off, err := m.resolveAddr(cell, addr)
		if err != nil {
			return 0, err
		}
		m.accountMem(cell, bank, m.cycle, &m.finish)
		return m.banks[bank].Load(off)
	}
	env.Store = func(addr, val isa.Word) error {
		bank, off, err := m.resolveAddr(cell, addr)
		if err != nil {
			return err
		}
		m.accountMem(cell, bank, m.cycle, &m.finish)
		return m.banks[bank].Store(off, val)
	}
	if m.msgNet != nil {
		env.SendTo = func(peer int, val isa.Word) error {
			if peer < 0 || peer >= m.cfg.Cores {
				return fmt.Errorf("spatial: cell %d sends to nonexistent cell %d", cell, peer)
			}
			arrival, err := m.msgNet.Transfer(m.cycle, cell, peer)
			if err != nil {
				return err
			}
			if arrival+1 > m.finish {
				m.finish = arrival + 1
			}
			m.mail[cell][peer] = append(m.mail[cell][peer], message{val: val, availableAt: arrival})
			return nil
		}
		env.RecvFrom = func(peer int) (isa.Word, error) {
			if peer < 0 || peer >= m.cfg.Cores {
				return 0, fmt.Errorf("spatial: cell %d receives from nonexistent cell %d", cell, peer)
			}
			q := m.mail[peer][cell]
			if len(q) == 0 || q[0].availableAt > m.cycle {
				return 0, machine.ErrWouldBlock
			}
			v := q[0].val
			m.mail[peer][cell] = q[1:]
			return v, nil
		}
	}
	return env
}

// accountMem charges the DP-DM traversal.
func (m *Machine) accountMem(cell, bank int, cycle int64, finish *int64) {
	if m.memNet == nil {
		if cycle+2 > *finish {
			*finish = cycle + 2
		}
		return
	}
	arrival, err := m.memNet.Transfer(cycle, cell, bank)
	if err != nil {
		panic(fmt.Sprintf("spatial: internal memory network error: %v", err))
	}
	if arrival+1 > *finish {
		*finish = arrival + 1
	}
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

// collectNetStats folds interconnect counters into the run stats.
func (m *Machine) collectNetStats(stats *machine.Stats) {
	stats.NetConflictCycles += m.ipip.Stats().ConflictCycles
	if m.memNet != nil {
		stats.NetConflictCycles += m.memNet.Stats().ConflictCycles
	}
	if m.msgNet != nil {
		stats.NetConflictCycles += m.msgNet.Stats().ConflictCycles
	}
}

func bump(stats *machine.Stats, cycle int64) {
	if stats.Cycles < cycle {
		stats.Cycles = cycle
	}
}
