package dataflow

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/taxonomy"
)

// buildExpr builds (3+4)*(10-2) with an output.
func buildExpr() *Graph {
	g := NewGraph()
	a := g.Const(3)
	b := g.Const(4)
	c := g.Const(10)
	d := g.Const(2)
	sum := g.Binary(OpAdd, a, b)
	diff := g.Binary(OpSub, c, d)
	prod := g.Binary(OpMul, sum, diff)
	g.MarkOutput(prod)
	return g
}

func TestOpArityAndNames(t *testing.T) {
	if OpConst.Arity() != 0 || OpNot.Arity() != 1 || OpLoad.Arity() != 1 ||
		OpAdd.Arity() != 2 || OpStore.Arity() != 2 {
		t.Error("arities wrong")
	}
	if OpConst.String() != "const" || OpStore.String() != "store" {
		t.Error("names wrong")
	}
	if !strings.Contains(Op(99).String(), "99") {
		t.Error("invalid op name")
	}
	if Op(99).Valid() || Op(-1).Valid() || !OpEq.Valid() {
		t.Error("Valid wrong")
	}
}

func TestGraphValidate(t *testing.T) {
	if err := buildExpr().Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	empty := NewGraph()
	if err := empty.Validate(); err == nil {
		t.Error("empty graph accepted")
	}
	noOut := NewGraph()
	noOut.Const(1)
	if err := noOut.Validate(); err == nil {
		t.Error("graph without outputs accepted")
	}
	badArity := NewGraph()
	badArity.nodes = append(badArity.nodes, Node{Op: OpAdd, Inputs: []int{0}})
	badArity.outputs = []int{0}
	if err := badArity.Validate(); err == nil {
		t.Error("bad arity accepted")
	}
	forward := NewGraph()
	forward.nodes = append(forward.nodes, Node{Op: OpNot, Inputs: []int{1}}, Node{Op: OpConst})
	forward.outputs = []int{0}
	if err := forward.Validate(); err == nil {
		t.Error("forward edge accepted")
	}
	badOut := buildExpr()
	badOut.outputs = append(badOut.outputs, 99)
	if err := badOut.Validate(); err == nil {
		t.Error("out-of-range output accepted")
	}
	badOp := NewGraph()
	badOp.nodes = append(badOp.nodes, Node{Op: Op(50)})
	badOp.outputs = []int{0}
	if err := badOp.Validate(); err == nil {
		t.Error("invalid op accepted")
	}
}

// mustConfig configures pes PEs with 64-word banks as Table I's DMP row
// with sub-type sub.
func mustConfig(t testing.TB, sub, pes int) Config {
	t.Helper()
	c, err := taxonomy.Lookup(taxonomy.Name{Machine: taxonomy.DataFlow, Proc: taxonomy.MultiProcessor, Sub: sub})
	if err != nil {
		t.Fatal(err)
	}
	return Config{PEs: pes, BankWords: 64, Class: c}
}

func mustMachine(t *testing.T, sub, pes int, g *Graph, mapping []int) *Machine {
	t.Helper()
	m, err := New(mustConfig(t, sub, pes), g, mapping)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRun_ExpressionOnOnePE(t *testing.T) {
	g := buildExpr()
	m := mustMachine(t, 1, 1, g, SinglePEMapping(g.Nodes()))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0] != 56 {
		t.Errorf("outputs = %v, want [56]", res.Outputs)
	}
	if res.Stats.Instructions != 7 {
		t.Errorf("fired %d nodes, want 7", res.Stats.Instructions)
	}
	// One PE fires one node per cycle: makespan >= 7.
	if res.Stats.Cycles < 7 {
		t.Errorf("cycles = %d, impossible on one PE", res.Stats.Cycles)
	}
}

func TestRun_ParallelSpeedup(t *testing.T) {
	// A wide graph: 16 independent additions then a reduction tree. More
	// PEs must not be slower, and the 8-PE run must beat the 1-PE run.
	build := func() *Graph {
		g := NewGraph()
		var layer []int
		for i := 0; i < 16; i++ {
			a := g.Const(int64(i))
			b := g.Const(int64(i * 2))
			layer = append(layer, g.Binary(OpAdd, a, b))
		}
		for len(layer) > 1 {
			var next []int
			for i := 0; i+1 < len(layer); i += 2 {
				next = append(next, g.Binary(OpAdd, layer[i], layer[i+1]))
			}
			layer = next
		}
		g.MarkOutput(layer[0])
		return g
	}
	g1 := build()
	m1 := mustMachine(t, 2, 1, g1, SinglePEMapping(g1.Nodes()))
	r1, err := m1.Run()
	if err != nil {
		t.Fatal(err)
	}
	g8 := build()
	m8 := mustMachine(t, 2, 8, g8, RoundRobinMapping(g8.Nodes(), 8))
	r8, err := m8.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := 0; i < 16; i++ {
		want += int64(i) + int64(i*2)
	}
	if r1.Outputs[0] != want || r8.Outputs[0] != want {
		t.Errorf("results %d / %d, want %d", r1.Outputs[0], r8.Outputs[0], want)
	}
	if r8.Stats.Cycles >= r1.Stats.Cycles {
		t.Errorf("8 PEs (%d cycles) not faster than 1 PE (%d cycles)",
			r8.Stats.Cycles, r1.Stats.Cycles)
	}
}

func TestDMP1_RejectsCrossPEEdges(t *testing.T) {
	g := buildExpr()
	cfg := mustConfig(t, 1, 2)
	if _, err := New(cfg, g, RoundRobinMapping(g.Nodes(), 2)); err == nil ||
		!strings.Contains(err.Error(), "DMP-I") {
		t.Errorf("cross-PE edge on DMP-I: %v", err)
	}
	// The same mapping is fine when each expression subtree stays local.
	local := []int{0, 0, 1, 1, 0, 1, 0}
	if _, err := New(cfg, g, local); err == nil {
		t.Error("prod node consumes across PEs; mapping should still fail")
	}
	all0 := SinglePEMapping(g.Nodes())
	if _, err := New(cfg, g, all0); err != nil {
		t.Errorf("single-PE mapping rejected: %v", err)
	}
}

func TestDMP2_TokensRideNetwork(t *testing.T) {
	g := buildExpr()
	m := mustMachine(t, 2, 2, g, RoundRobinMapping(g.Nodes(), 2))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 56 {
		t.Errorf("output = %d", res.Outputs[0])
	}
	if res.Stats.Messages == 0 {
		t.Error("cross-PE edges produced no token traffic")
	}
}

func TestDMP3_TokensSpillThroughMemory(t *testing.T) {
	g := buildExpr()
	m := mustMachine(t, 3, 2, g, RoundRobinMapping(g.Nodes(), 2))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 56 {
		t.Errorf("output = %d", res.Outputs[0])
	}
	// Memory spilling is slower than the DMP-II token network for the same
	// graph and mapping.
	g2 := buildExpr()
	m2 := mustMachine(t, 2, 2, g2, RoundRobinMapping(g2.Nodes(), 2))
	res2, err := m2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles <= res2.Stats.Cycles {
		t.Errorf("memory spill (%d cycles) not slower than token network (%d cycles)",
			res.Stats.Cycles, res2.Stats.Cycles)
	}
}

func TestMemoryNodes(t *testing.T) {
	// out[1] = in[0] * 2 computed as dataflow with load and store.
	g := NewGraph()
	addr0 := g.Const(0)
	addr1 := g.Const(1)
	two := g.Const(2)
	v := g.Load(addr0)
	doubled := g.Binary(OpMul, v, two)
	st := g.Store(addr1, doubled)
	g.MarkOutput(st)
	m := mustMachine(t, 1, 1, g, SinglePEMapping(g.Nodes()))
	if err := m.LoadBank(0, 0, []isa.Word{21}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 42 {
		t.Errorf("store emitted %d", res.Outputs[0])
	}
	out, err := m.ReadBank(0, 1, 1)
	if err != nil || out[0] != 42 {
		t.Errorf("memory = (%v, %v)", out, err)
	}
	if res.Stats.MemReads != 1 || res.Stats.MemWrites != 1 {
		t.Errorf("mem traffic = %d/%d", res.Stats.MemReads, res.Stats.MemWrites)
	}
}

func TestGlobalAddressing(t *testing.T) {
	// DMP-III: PE 0 stores to PE 1's bank through the memory crossbar.
	g := NewGraph()
	addr := g.Const(64) // bank 1, word 0 (banks are 64 words)
	val := g.Const(7)
	st := g.Store(addr, val)
	g.MarkOutput(st)
	m := mustMachine(t, 3, 2, g, SinglePEMapping(g.Nodes()))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out, err := m.ReadBank(1, 0, 1)
	if err != nil || out[0] != 7 {
		t.Errorf("cross-bank store = (%v, %v)", out, err)
	}
	// The same graph on DMP-I (local addressing) must fail.
	g2 := NewGraph()
	addr2 := g2.Const(64)
	val2 := g2.Const(7)
	st2 := g2.Store(addr2, val2)
	g2.MarkOutput(st2)
	m2 := mustMachine(t, 1, 2, g2, SinglePEMapping(g2.Nodes()))
	if _, err := m2.Run(); err == nil || !strings.Contains(err.Error(), "direct") {
		t.Errorf("global store on DMP-I: %v", err)
	}
}

func TestAllALUOps(t *testing.T) {
	g := NewGraph()
	a := g.Const(12)
	b := g.Const(5)
	ops := []struct {
		op   Op
		want int64
	}{
		{OpAdd, 17}, {OpSub, 7}, {OpMul, 60}, {OpDiv, 2},
		{OpAnd, 4}, {OpOr, 13}, {OpXor, 9},
		{OpMin, 5}, {OpMax, 12}, {OpLt, 0}, {OpEq, 0},
	}
	for _, o := range ops {
		g.MarkOutput(g.Binary(o.op, a, b))
	}
	g.MarkOutput(g.Unary(OpNot, b))
	m := mustMachine(t, 1, 1, g, SinglePEMapping(g.Nodes()))
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range ops {
		if res.Outputs[i] != o.want {
			t.Errorf("%s(12,5) = %d, want %d", o.op, res.Outputs[i], o.want)
		}
	}
	if res.Outputs[len(ops)] != ^int64(5) {
		t.Errorf("not(5) = %d", res.Outputs[len(ops)])
	}
}

func TestDivideByZero(t *testing.T) {
	g := NewGraph()
	a := g.Const(1)
	z := g.Const(0)
	g.MarkOutput(g.Binary(OpDiv, a, z))
	m := mustMachine(t, 1, 1, g, SinglePEMapping(g.Nodes()))
	if _, err := m.Run(); err == nil {
		t.Error("division by zero accepted")
	}
}

// TestForSubtypeIsTableI: New accepts exactly Table I's four DMP rows and
// wires each row's DP-DM crossbar and DP-DP network. Every other row, the
// zero Class and a DMP row with a tampered link are rejected with an error
// naming the class.
func TestForSubtypeIsTableI(t *testing.T) {
	g := NewGraph()
	g.MarkOutput(g.Unary(OpNot, g.Const(1)))
	accepted := 0
	for _, row := range taxonomy.Table() {
		cfg := Config{PEs: 2, BankWords: 16, Class: row}
		m, err := New(cfg, g, SinglePEMapping(g.Nodes()))
		if !row.Implementable || row.Name.Machine != taxonomy.DataFlow || row.Name.Proc != taxonomy.MultiProcessor {
			if err == nil || !strings.Contains(err.Error(), row.String()) {
				t.Errorf("row %d (%s) = %v, want an error naming the class", row.Index, row, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", row, err)
			continue
		}
		accepted++
		if got, want := m.MemNet() != nil, row.Links[taxonomy.SiteDPDM] == taxonomy.LinkCrossbar; got != want {
			t.Errorf("%s: DP-DM crossbar %v, Table I DP-DM %v", row, got, row.Links[taxonomy.SiteDPDM])
		}
		m.Release()
		// Tokens ride the DP-DP network, which the machine keeps to
		// itself: a token crossing PEs either cannot be routed (no switch
		// at all), spills through the DP-DM crossbar, or leaves the
		// crossbar idle because the network took it.
		network := false
		if cross, err := New(cfg, g, []int{0, 1}); err == nil {
			if _, err := cross.Run(); err != nil {
				t.Fatalf("%s: cross-PE token: %v", row, err)
			}
			network = cross.MemNet() == nil || cross.MemNet().Stats().Transfers == 0
			cross.Release()
		}
		if want := row.Links[taxonomy.SiteDPDP] == taxonomy.LinkCrossbar; network != want {
			t.Errorf("%s: DP-DP network %v, Table I DP-DP %v", row, network, row.Links[taxonomy.SiteDPDP])
		}
	}
	if accepted != 4 {
		t.Errorf("accepted %d Table I rows, want 4", accepted)
	}
	tampered := mustConfig(t, 2, 2).Class
	tampered.Links[taxonomy.SiteDPDM] = taxonomy.LinkNone
	for _, c := range []taxonomy.Class{{}, tampered} {
		if _, err := New(Config{PEs: 2, BankWords: 16, Class: c}, g, SinglePEMapping(g.Nodes())); err == nil ||
			!strings.Contains(err.Error(), c.String()) {
			t.Errorf("%s (index %d) = %v, want an error naming the class", c, c.Index, err)
		}
	}
}

// TestClass: every DMP row also builds a one-PE machine, the shape of the
// data-flow uni-processor, and runs a graph on it.
func TestClass(t *testing.T) {
	for sub := 1; sub <= 4; sub++ {
		g := buildExpr()
		res, err := mustMachine(t, sub, 1, g, SinglePEMapping(g.Nodes())).Run()
		if err != nil || res.Outputs[0] != 56 {
			t.Errorf("DMP-%s on one PE: (%v, %v), want [56]", taxonomy.Roman(sub), res.Outputs, err)
		}
	}
}

func TestNew_Rejects(t *testing.T) {
	g := buildExpr()
	good := mustConfig(t, 2, 2)
	if _, err := New(good, nil, nil); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(good, g, []int{0}); err == nil {
		t.Error("short mapping accepted")
	}
	if _, err := New(good, g, []int{0, 0, 0, 0, 0, 0, 9}); err == nil {
		t.Error("out-of-range PE accepted")
	}
	bad := good
	bad.PEs = 0
	if _, err := New(bad, g, nil); err == nil {
		t.Error("0 PEs accepted")
	}
	bad = good
	bad.BankWords = 0
	if _, err := New(bad, g, SinglePEMapping(g.Nodes())); err == nil {
		t.Error("0-word banks accepted")
	}
}

func TestBankAccessors_Reject(t *testing.T) {
	g := buildExpr()
	m := mustMachine(t, 1, 2, g, SinglePEMapping(g.Nodes()))
	if err := m.LoadBank(5, 0, nil); err == nil {
		t.Error("LoadBank(5) accepted")
	}
	if _, err := m.ReadBank(-1, 0, 1); err == nil {
		t.Error("ReadBank(-1) accepted")
	}
}

// TestRun_DeterministicProperty: the same graph with the same mapping always
// produces the same outputs and makespan, and outputs never depend on the
// PE count (only timing does).
func TestRun_DeterministicProperty(t *testing.T) {
	f := func(seed uint8, pesRaw uint8) bool {
		pes := int(pesRaw%4) + 1
		build := func() *Graph {
			g := NewGraph()
			a := g.Const(int64(seed))
			b := g.Const(int64(seed) * 3)
			c := g.Binary(OpAdd, a, b)
			d := g.Binary(OpMul, c, a)
			e := g.Binary(OpMax, d, b)
			g.MarkOutput(e)
			return g
		}
		g1, g2 := build(), build()
		cfg := mustConfig(t, 4, pes)
		m1, err := New(cfg, g1, RoundRobinMapping(g1.Nodes(), pes))
		if err != nil {
			return false
		}
		m2, err := New(cfg, g2, RoundRobinMapping(g2.Nodes(), pes))
		if err != nil {
			return false
		}
		r1, err1 := m1.Run()
		r2, err2 := m2.Run()
		if err1 != nil || err2 != nil {
			return false
		}
		single := build()
		ms, err := New(cfg, single, SinglePEMapping(single.Nodes()))
		if err != nil {
			return false
		}
		rs, err := ms.Run()
		if err != nil {
			return false
		}
		return r1.Outputs[0] == r2.Outputs[0] &&
			r1.Stats.Cycles == r2.Stats.Cycles &&
			r1.Outputs[0] == rs.Outputs[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
