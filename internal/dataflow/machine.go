package dataflow

import (
	"fmt"

	"repro/internal/interconnect"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/taxonomy"
)

// Config describes one data-flow machine instance.
type Config struct {
	// PEs is the number of data processors n (1 makes the machine a DUP).
	PEs int
	// BankWords is each PE's data-memory bank size.
	BankWords int
	// DPDM selects local (direct) or global crossbar memory addressing.
	DPDM taxonomy.Link
	// DPDP selects the token network: none or crossbar.
	DPDP taxonomy.Link
	// MeshCols, when positive, realizes the DP-DP 'x' switch as a
	// packet-switched 2D mesh NoC with that many columns (PEs must fill
	// the grid exactly) instead of a crossbar — REDEFINE's actual
	// interconnect. Tokens then pay per-hop latency and link contention;
	// the taxonomy class is unchanged.
	MeshCols int
	// Tracer, when non-nil, receives run events: one track per PE, node
	// firings as instruction events carrying the node ID, token routes as
	// send events, PE backlog as wait events. Nil disables tracing.
	Tracer obs.Tracer
}

// ForSubtype returns the configuration of DMP sub-type 1..4: the DP-DM
// and DP-DP switch kinds of Table I's DMP row with that sub-type.
func ForSubtype(sub, pes, bankWords int) (Config, error) {
	if sub < 1 || sub > 4 {
		return Config{}, fmt.Errorf("dataflow: data-flow multi-processors have sub-types I..IV, got %d", sub)
	}
	class, err := taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.DataFlow, Proc: taxonomy.MultiProcessor, Sub: sub})
	if err != nil {
		return Config{}, err
	}
	return Config{
		PEs:       pes,
		BankWords: bankWords,
		DPDM:      class.Links[taxonomy.SiteDPDM],
		DPDP:      class.Links[taxonomy.SiteDPDP],
	}, nil
}

// Class returns the taxonomy class this configuration realizes.
func (c Config) Class() (taxonomy.Class, error) {
	count := taxonomy.CountN
	links := taxonomy.Links{taxonomy.SiteDPDM: c.DPDM, taxonomy.SiteDPDP: c.DPDP}
	if c.PEs == 1 {
		count = taxonomy.CountOne
		links = taxonomy.Links{taxonomy.SiteDPDM: taxonomy.LinkDirect}
	}
	return taxonomy.Classify(taxonomy.CountZero, count, links)
}

func (c Config) validate() error {
	if c.PEs < 1 {
		return fmt.Errorf("dataflow: need at least one PE, got %d", c.PEs)
	}
	if c.BankWords < 1 {
		return fmt.Errorf("dataflow: bank size must be >= 1 word, got %d", c.BankWords)
	}
	if c.DPDM != taxonomy.LinkDirect && c.DPDM != taxonomy.LinkCrossbar {
		return fmt.Errorf("dataflow: DP-DM must be direct or crossbar, got %v", c.DPDM)
	}
	if c.DPDP != taxonomy.LinkNone && c.DPDP != taxonomy.LinkCrossbar {
		return fmt.Errorf("dataflow: DP-DP must be none or crossbar, got %v", c.DPDP)
	}
	return nil
}

// Machine is one data-flow machine with a mapped graph.
type Machine struct {
	cfg     Config
	graph   *Graph
	mapping []int
	banks   []machine.Memory
	tokNet  interconnect.Network
	memNet  interconnect.Network
}

// New builds a data-flow machine executing graph with the given node-to-PE
// mapping. On DP-DP "none" sub-types, every edge must stay inside one PE
// unless the memory crossbar can carry it (DMP-III); DMP-I rejects cross-PE
// edges outright — the machine physically cannot route them.
func New(cfg Config, graph *Graph, mapping []int) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if graph == nil {
		return nil, fmt.Errorf("dataflow: nil graph")
	}
	if err := graph.Validate(); err != nil {
		return nil, err
	}
	if len(mapping) != graph.Nodes() {
		return nil, fmt.Errorf("dataflow: mapping covers %d nodes, graph has %d", len(mapping), graph.Nodes())
	}
	for id, pe := range mapping {
		if pe < 0 || pe >= cfg.PEs {
			return nil, fmt.Errorf("dataflow: node %d mapped to PE %d, machine has %d PEs", id, pe, cfg.PEs)
		}
	}
	if cfg.DPDP == taxonomy.LinkNone && cfg.DPDM == taxonomy.LinkDirect {
		// DMP-I (or DUP): tokens cannot leave a PE.
		for id := 0; id < graph.Nodes(); id++ {
			n, _ := graph.Node(id)
			for _, in := range n.Inputs {
				if mapping[in] != mapping[id] {
					return nil, fmt.Errorf(
						"dataflow: edge %d->%d crosses PEs %d->%d but the class has no DP-DP network and no shared memory (DMP-I)",
						in, id, mapping[in], mapping[id])
				}
			}
		}
	}
	m := &Machine{cfg: cfg, graph: graph, mapping: append([]int(nil), mapping...)}
	m.banks = make([]machine.Memory, cfg.PEs)
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
	if cfg.DPDP == taxonomy.LinkCrossbar {
		var net interconnect.Network
		var err error
		if cfg.MeshCols > 0 {
			if cfg.PEs%cfg.MeshCols != 0 {
				return nil, fmt.Errorf("dataflow: %d PEs do not fill a mesh with %d columns", cfg.PEs, cfg.MeshCols)
			}
			net, err = interconnect.NewMesh(cfg.PEs/cfg.MeshCols, cfg.MeshCols)
		} else {
			net, err = interconnect.NewCrossbar(cfg.PEs)
		}
		if err != nil {
			return nil, err
		}
		m.tokNet = obs.ObserveNetwork(net, cfg.Tracer)
	}
	if cfg.DPDM == taxonomy.LinkCrossbar {
		net, err := interconnect.NewCrossbar(cfg.PEs)
		if err != nil {
			return nil, err
		}
		m.memNet = obs.ObserveNetwork(net, cfg.Tracer)
	}
	built = true
	return m, nil
}

// RoundRobinMapping spreads nodes across PEs by ID.
func RoundRobinMapping(nodes, pes int) []int {
	mapping := make([]int, nodes)
	for i := range mapping {
		mapping[i] = i % pes
	}
	return mapping
}

// SinglePEMapping places every node on PE 0.
func SinglePEMapping(nodes int) []int { return make([]int, nodes) }

// LoadBank copies vals into a PE's bank at base.
func (m *Machine) LoadBank(pe, base int, vals []isa.Word) error {
	if pe < 0 || pe >= m.cfg.PEs {
		return fmt.Errorf("dataflow: PE %d out of range [0,%d)", pe, m.cfg.PEs)
	}
	return m.banks[pe].CopyIn(base, vals)
}

// ReadBank reads n words from a PE's bank at base.
func (m *Machine) ReadBank(pe, base, n int) ([]isa.Word, error) {
	if pe < 0 || pe >= m.cfg.PEs {
		return nil, fmt.Errorf("dataflow: PE %d out of range [0,%d)", pe, m.cfg.PEs)
	}
	return m.banks[pe].CopyOut(base, n)
}

// resolveAddr maps a PE's address under the DP-DM kind.
func (m *Machine) resolveAddr(pe int, addr int64) (bank int, off isa.Word, err error) {
	if m.cfg.DPDM == taxonomy.LinkDirect {
		if addr < 0 || addr >= int64(m.cfg.BankWords) {
			return 0, 0, fmt.Errorf("dataflow: PE %d address %d outside its bank of %d words (DP-DM is direct)",
				pe, addr, m.cfg.BankWords)
		}
		return pe, isa.Word(addr), nil
	}
	total := int64(m.cfg.BankWords) * int64(m.cfg.PEs)
	if addr < 0 || addr >= total {
		return 0, 0, fmt.Errorf("dataflow: PE %d global address %d outside %d words", pe, addr, total)
	}
	return int(addr) / m.cfg.BankWords, isa.Word(int(addr) % m.cfg.BankWords), nil
}

// NodeFire records when one node fired in a run's schedule.
type NodeFire struct {
	// Node is the graph node ID.
	Node int
	// PE is the processing element it fired on.
	PE int
	// FireAt is the cycle the node began executing.
	FireAt int64
	// DoneAt is the cycle its result token was available at the PE.
	DoneAt int64
}

// Result is one run's outcome: the output tokens in MarkOutput order, the
// makespan statistics and the full firing schedule (node ID order).
type Result struct {
	Outputs  []int64
	Stats    machine.Stats
	Schedule []NodeFire
}

// Release returns the machine's pooled banks. The machine must not be used
// afterwards.
func (m *Machine) Release() {
	for i := range m.banks {
		machine.PutMemory(m.banks[i])
		m.banks[i] = nil
	}
}

// Run executes the graph: list scheduling in topological order, each PE
// firing at most one node per cycle, tokens travelling cross-PE over the
// token network (DP-DP) or through shared memory (DP-DM crossbar, costing a
// store and a load). Returns the output tokens and the makespan statistics.
func (m *Machine) Run() (Result, error) {
	var res Result
	n := m.graph.Nodes()
	values := make([]int64, n)
	// availAt[id][pe] would be large; instead record the completion time at
	// the producing PE and charge the edge cost at the consumer.
	doneAt := make([]int64, n)
	// peBusy tracks which cycles each PE has already fired in.
	peBusy := make([]map[int64]bool, m.cfg.PEs)
	for i := range peBusy {
		peBusy[i] = map[int64]bool{}
	}

	for id := 0; id < n; id++ {
		node, _ := m.graph.Node(id)
		pe := m.mapping[id]

		// Earliest cycle all inputs are present at this PE.
		var ready int64
		inputs := make([]int64, len(node.Inputs))
		for i, in := range node.Inputs {
			inputs[i] = values[in]
			arrive := doneAt[in]
			if src := m.mapping[in]; src != pe {
				var err error
				arrive, err = m.routeToken(src, pe, arrive)
				if err != nil {
					return res, fmt.Errorf("dataflow: edge %d->%d: %w", in, id, err)
				}
				res.Stats.Messages++
				if m.cfg.Tracer != nil {
					m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindSend, Track: int32(src),
						Cycle: doneAt[in], Dur: arrive - doneAt[in], Arg: int64(pe)})
				}
			}
			if arrive > ready {
				ready = arrive
			}
		}

		// First free firing cycle at this PE.
		fire := ready
		for peBusy[pe][fire] {
			fire++
		}
		peBusy[pe][fire] = true
		finish := fire + 1
		if m.cfg.Tracer != nil && fire > ready {
			// The node's inputs were ready but the PE was backlogged: the
			// dataflow queue-depth signal the wait histogram aggregates.
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindWait, Track: int32(pe),
				Cycle: ready, Dur: fire - ready, Arg: int64(id)})
		}

		// Execute; memory nodes extend finish through accountMem.
		v, _, err := m.fire(pe, node, inputs, fire, &finish, &res.Stats)
		if err != nil {
			return res, fmt.Errorf("dataflow: node %d (%s): %w", id, node.Op, err)
		}
		values[id] = v
		doneAt[id] = finish
		res.Schedule = append(res.Schedule, NodeFire{Node: id, PE: pe, FireAt: fire, DoneAt: finish})
		res.Stats.Instructions++
		isALU := node.Op != OpConst && node.Op != OpLoad && node.Op != OpStore
		if isALU {
			res.Stats.ALUOps++
		}
		if m.cfg.Tracer != nil {
			var flags uint8
			if isALU {
				flags = obs.FlagALU
			}
			// No FlagHasOp: Arg carries the graph node ID, not an ISA opcode.
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindInstr, Flags: flags, Track: int32(pe),
				Cycle: fire, Dur: finish - fire, Arg: int64(id)})
		}
		if finish > res.Stats.Cycles {
			res.Stats.Cycles = finish
		}
	}

	for _, out := range m.graph.Outputs() {
		res.Outputs = append(res.Outputs, values[out])
	}
	m.collectNetStats(&res.Stats)
	return res, nil
}

// routeToken carries a token from PE src to PE dst, departing no earlier
// than t, and returns its arrival time.
func (m *Machine) routeToken(src, dst int, t int64) (int64, error) {
	if m.tokNet != nil {
		return m.tokNet.Transfer(t, src, dst)
	}
	if m.memNet != nil {
		// Spill through shared memory: a store from src then a load by dst,
		// each a crossbar traversal to a commonly addressable bank (use the
		// destination's bank as the rendezvous).
		storeArr, err := m.memNet.Transfer(t, src, dst)
		if err != nil {
			return 0, err
		}
		loadArr, err := m.memNet.Transfer(storeArr, dst, dst)
		if err != nil {
			return 0, err
		}
		return loadArr + 1, nil
	}
	return 0, fmt.Errorf("no DP-DP network and no shared memory to route through")
}

// fire computes one node's value, charging memory traffic.
func (m *Machine) fire(pe int, node Node, in []int64, fireAt int64, finish *int64, stats *machine.Stats) (int64, bool, error) {
	switch node.Op {
	case OpConst:
		return node.Value, false, nil
	case OpNot:
		return ^in[0], false, nil
	case OpAdd:
		return in[0] + in[1], false, nil
	case OpSub:
		return in[0] - in[1], false, nil
	case OpMul:
		return in[0] * in[1], false, nil
	case OpDiv:
		if in[1] == 0 {
			return 0, false, fmt.Errorf("division by zero")
		}
		return in[0] / in[1], false, nil
	case OpAnd:
		return in[0] & in[1], false, nil
	case OpOr:
		return in[0] | in[1], false, nil
	case OpXor:
		return in[0] ^ in[1], false, nil
	case OpMin:
		if in[0] < in[1] {
			return in[0], false, nil
		}
		return in[1], false, nil
	case OpMax:
		if in[0] > in[1] {
			return in[0], false, nil
		}
		return in[1], false, nil
	case OpLt:
		if in[0] < in[1] {
			return 1, false, nil
		}
		return 0, false, nil
	case OpEq:
		if in[0] == in[1] {
			return 1, false, nil
		}
		return 0, false, nil
	case OpLoad:
		bank, off, err := m.resolveAddr(pe, in[0])
		if err != nil {
			return 0, false, err
		}
		m.accountMem(pe, bank, fireAt, finish)
		v, err := m.banks[bank].Load(off)
		if err != nil {
			return 0, false, err
		}
		stats.MemReads++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindMemRead, Track: int32(pe),
				Cycle: fireAt, Arg: in[0]})
		}
		return int64(v), true, nil
	case OpStore:
		bank, off, err := m.resolveAddr(pe, in[0])
		if err != nil {
			return 0, false, err
		}
		m.accountMem(pe, bank, fireAt, finish)
		if err := m.banks[bank].Store(off, isa.Word(in[1])); err != nil {
			return 0, false, err
		}
		stats.MemWrites++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindMemWrite, Track: int32(pe),
				Cycle: fireAt, Arg: in[0]})
		}
		return in[1], true, nil
	default:
		return 0, false, fmt.Errorf("unimplemented op %v", node.Op)
	}
}

// accountMem charges the DP-DM traversal.
func (m *Machine) accountMem(pe, bank int, fireAt int64, finish *int64) {
	if m.memNet == nil {
		if fireAt+2 > *finish {
			*finish = fireAt + 2
		}
		return
	}
	arrival, err := m.memNet.Transfer(fireAt, pe, bank)
	if err != nil {
		panic(fmt.Sprintf("dataflow: internal memory network error: %v", err))
	}
	if arrival+1 > *finish {
		*finish = arrival + 1
	}
}

// collectNetStats folds interconnect counters into the run stats.
func (m *Machine) collectNetStats(stats *machine.Stats) {
	if m.tokNet != nil {
		stats.NetConflictCycles += m.tokNet.Stats().ConflictCycles
	}
	if m.memNet != nil {
		stats.NetConflictCycles += m.memNet.Stats().ConflictCycles
	}
}
