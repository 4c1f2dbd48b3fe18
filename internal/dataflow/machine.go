package dataflow

import (
	"fmt"
	"math/bits"

	"repro/internal/interconnect"
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
	// Class is the DMP row of Table I the machine realizes. Its DP-DM
	// switch selects local (direct) or global crossbar memory addressing,
	// its DP-DP switch the token network, none or a crossbar.
	Class taxonomy.Class
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

func (c Config) validate() error {
	if c.PEs < 1 {
		return fmt.Errorf("dataflow: need at least one PE, got %d", c.PEs)
	}
	if c.BankWords < 1 {
		return fmt.Errorf("dataflow: bank size must be >= 1 word, got %d", c.BankWords)
	}
	if err := c.Class.Require(taxonomy.DataFlow, taxonomy.MultiProcessor); err != nil {
		return fmt.Errorf("dataflow: %w", err)
	}
	return nil
}

// Machine is one data-flow machine with a mapped graph.
type Machine struct {
	cfg     Config
	graph   *Graph
	mapping []int
	// tokNet is the DP-DP token network; nil without a DP-DP switch.
	tokNet interconnect.Network
	// Banks is the PEs' data side: banks and DP-DM crossbar. Run sets its
	// Now/Finish per firing.
	*machine.Banks
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
	dpdm, dpdp := cfg.Class.Links[taxonomy.SiteDPDM], cfg.Class.Links[taxonomy.SiteDPDP]
	if dpdp == taxonomy.LinkNone && dpdm == taxonomy.LinkDirect {
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
	var tokNet interconnect.Network
	if dpdp == taxonomy.LinkCrossbar {
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
		tokNet = obs.ObserveNetwork(net, cfg.Tracer)
	}
	// Tokens travel on tokNet, so the shared data side has no DP-DP switch.
	banks, err := machine.NewBanks(machine.BankConfig{Pkg: "dataflow", Noun: "PE", Procs: cfg.PEs,
		BankWords: cfg.BankWords, DPDM: dpdm, DPDP: taxonomy.LinkNone, Tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, graph: graph, mapping: append([]int(nil), mapping...), tokNet: tokNet}
	m.Banks = banks
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
	peBusy := make([]busySet, m.cfg.PEs)
	// inputs is reused across nodes: fire does not retain it.
	var inputs []int64

	for id := 0; id < n; id++ {
		node, _ := m.graph.Node(id)
		pe := m.mapping[id]

		// Earliest cycle all inputs are present at this PE.
		var ready int64
		inputs = inputs[:0]
		for _, in := range node.Inputs {
			inputs = append(inputs, values[in])
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
		fire := peBusy[pe].claim(ready)
		if m.cfg.Tracer != nil && fire > ready {
			// The node's inputs were ready but the PE was backlogged: the
			// dataflow queue-depth signal the wait histogram aggregates.
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindWait, Track: int32(pe),
				Cycle: ready, Dur: fire - ready, Arg: int64(id)})
		}

		// Execute; memory nodes extend Finish through the DP-DM switch.
		m.Now, m.Finish = fire, fire+1
		v, err := m.fire(pe, node, inputs, &res.Stats)
		finish := m.Finish
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
	res.Stats.NetConflictCycles += m.ConflictCycles()
	if m.tokNet != nil {
		res.Stats.NetConflictCycles += m.tokNet.Stats().ConflictCycles
	}
	return res, nil
}

// busySet marks the cycles one PE has fired in, one bit per cycle. A node
// may fire in a gap an earlier-scheduled node left on its PE, so the first
// free cycle is searched for, not kept as a counter.
type busySet []uint64

// claim marks and returns the first free cycle at or after from (>= 0).
func (b *busySet) claim(from int64) int64 {
	set := *b
	w, mask := int(from>>6), ^uint64(0)<<(from&63)
	for ; w < len(set); w, mask = w+1, ^uint64(0) {
		if free := ^set[w] & mask; free != 0 {
			set[w] |= free & -free
			return int64(w)<<6 + int64(bits.TrailingZeros64(free))
		}
	}
	c := max(from, int64(len(set))<<6)
	if need := int(c>>6) + 1; need > len(set) {
		set = append(set, make([]uint64, need-len(set))...)
	}
	set[c>>6] |= 1 << (c & 63)
	*b = set
	return c
}

// routeToken carries a token from PE src to PE dst, departing no earlier
// than t, and returns its arrival time.
func (m *Machine) routeToken(src, dst int, t int64) (int64, error) {
	if m.tokNet != nil {
		return m.tokNet.Transfer(t, src, dst)
	}
	if memNet := m.MemNet(); memNet != nil {
		// Spill through shared memory: a store from src then a load by dst,
		// each a crossbar traversal to a commonly addressable bank (use the
		// destination's bank as the rendezvous).
		storeArr, err := memNet.Transfer(t, src, dst)
		if err != nil {
			return 0, err
		}
		loadArr, err := memNet.Transfer(storeArr, dst, dst)
		if err != nil {
			return 0, err
		}
		return loadArr + 1, nil
	}
	return 0, fmt.Errorf("no DP-DP network and no shared memory to route through")
}

// fire computes one node's value at cycle m.Now, charging memory traffic
// to m.Finish.
func (m *Machine) fire(pe int, node Node, in []int64, stats *machine.Stats) (int64, error) {
	switch node.Op {
	case OpConst:
		return node.Value, nil
	case OpNot:
		return ^in[0], nil
	case OpAdd:
		return in[0] + in[1], nil
	case OpSub:
		return in[0] - in[1], nil
	case OpMul:
		return in[0] * in[1], nil
	case OpDiv:
		if in[1] == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return in[0] / in[1], nil
	case OpAnd:
		return in[0] & in[1], nil
	case OpOr:
		return in[0] | in[1], nil
	case OpXor:
		return in[0] ^ in[1], nil
	case OpMin:
		if in[0] < in[1] {
			return in[0], nil
		}
		return in[1], nil
	case OpMax:
		if in[0] > in[1] {
			return in[0], nil
		}
		return in[1], nil
	case OpLt:
		if in[0] < in[1] {
			return 1, nil
		}
		return 0, nil
	case OpEq:
		if in[0] == in[1] {
			return 1, nil
		}
		return 0, nil
	case OpLoad:
		v, err := m.Load(pe, in[0])
		if err != nil {
			return 0, err
		}
		stats.MemReads++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindMemRead, Track: int32(pe),
				Cycle: m.Now, Arg: in[0]})
		}
		return int64(v), nil
	case OpStore:
		if err := m.Store(pe, in[0], in[1]); err != nil {
			return 0, err
		}
		stats.MemWrites++
		if m.cfg.Tracer != nil {
			m.cfg.Tracer.Emit(obs.Event{Kind: obs.KindMemWrite, Track: int32(pe),
				Cycle: m.Now, Arg: in[0]})
		}
		return in[1], nil
	default:
		return 0, fmt.Errorf("unimplemented op %v", node.Op)
	}
}
