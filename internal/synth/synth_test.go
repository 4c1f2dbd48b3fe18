package synth

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataflow"
	"repro/internal/fabric"
	"repro/internal/taxonomy"
)

// wrapTo sign-wraps an int64 to `width` bits, matching the fabric's
// two's-complement datapath.
func wrapTo(v int64, width int) int64 {
	shift := uint(64 - width)
	return int64(uint64(v)<<shift) >> shift
}

// runBoth executes the graph on the dataflow machine and on the fabric and
// returns (dataflow outputs wrapped, fabric outputs).
func runBoth(t *testing.T, g *dataflow.Graph, width int) ([]int64, []int64) {
	t.Helper()
	dmp1, err := taxonomy.LookupString("DMP-I")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dataflow.Config{PEs: 1, BankWords: 16, Class: dmp1}
	dm, err := dataflow.New(cfg, g, dataflow.SinglePEMapping(g.Nodes()))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := dm.Run()
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]int64, len(dres.Outputs))
	for i, v := range dres.Outputs {
		wrapped[i] = wrapTo(v, width)
	}

	need, err := CellsFor(g, width)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fabric.New(need+2*width, 0) // headroom for constant outputs
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(f, g, width)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := res.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped, outs
}

func TestSynthesize_Expression(t *testing.T) {
	// ((17 + 5) XOR 9) - 30, plus NOT/AND/OR coverage.
	g := dataflow.NewGraph()
	a := g.Const(17)
	b := g.Const(5)
	c := g.Const(9)
	d := g.Const(30)
	sum := g.Binary(dataflow.OpAdd, a, b)
	x := g.Binary(dataflow.OpXor, sum, c)
	diff := g.Binary(dataflow.OpSub, x, d)
	n := g.Unary(dataflow.OpNot, diff)
	andN := g.Binary(dataflow.OpAnd, n, a)
	orN := g.Binary(dataflow.OpOr, andN, b)
	g.MarkOutput(diff)
	g.MarkOutput(orN)

	want, got := runBoth(t, g, 16)
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("output %d: fabric %d, dataflow %d", i, got[i], want[i])
		}
	}
	if want[0] != (17+5)^9-30 {
		t.Errorf("reference itself wrong: %d", want[0])
	}
}

func TestSynthesize_NegativeResults(t *testing.T) {
	g := dataflow.NewGraph()
	a := g.Const(3)
	b := g.Const(40)
	g.MarkOutput(g.Binary(dataflow.OpSub, a, b)) // -37
	want, got := runBoth(t, g, 8)
	if got[0] != -37 || want[0] != -37 {
		t.Errorf("3-40 = fabric %d / dataflow %d, want -37", got[0], want[0])
	}
}

func TestSynthesize_ConstOutput(t *testing.T) {
	g := dataflow.NewGraph()
	c := g.Const(42)
	g.MarkOutput(c)
	want, got := runBoth(t, g, 8)
	if got[0] != 42 || want[0] != 42 {
		t.Errorf("const output = %d / %d", got[0], want[0])
	}
}

func TestSynthesize_MatchesDataflow_Property(t *testing.T) {
	ops := []dataflow.Op{dataflow.OpAdd, dataflow.OpSub, dataflow.OpAnd, dataflow.OpOr, dataflow.OpXor}
	f := func(v1, v2, v3 int16, sel1, sel2 uint8) bool {
		g := dataflow.NewGraph()
		a := g.Const(int64(v1))
		b := g.Const(int64(v2))
		c := g.Const(int64(v3))
		op1 := ops[int(sel1)%len(ops)]
		op2 := ops[int(sel2)%len(ops)]
		x := g.Binary(op1, a, b)
		y := g.Binary(op2, x, c)
		z := g.Unary(dataflow.OpNot, y)
		g.MarkOutput(y)
		g.MarkOutput(z)
		want, got := runBoth(t, g, 16)
		return want[0] == got[0] && want[1] == got[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSynthesize_RejectsUnsupportedOps(t *testing.T) {
	for _, op := range []dataflow.Op{dataflow.OpMul, dataflow.OpDiv, dataflow.OpMin, dataflow.OpMax, dataflow.OpLt, dataflow.OpEq} {
		g := dataflow.NewGraph()
		a := g.Const(1)
		b := g.Const(2)
		g.MarkOutput(g.Binary(op, a, b))
		if _, err := CellsFor(g, 8); err == nil || !strings.Contains(err.Error(), "not synthesizable") {
			t.Errorf("%s: CellsFor error = %v", op, err)
		}
		f, _ := fabric.New(64, 0)
		if _, err := Synthesize(f, g, 8); err == nil {
			t.Errorf("%s accepted by Synthesize", op)
		}
	}
	// Memory nodes likewise.
	g := dataflow.NewGraph()
	addr := g.Const(0)
	g.MarkOutput(g.Load(addr))
	if _, err := CellsFor(g, 8); err == nil {
		t.Error("load accepted")
	}
}

func TestSynthesize_Rejects(t *testing.T) {
	g := dataflow.NewGraph()
	a := g.Const(1)
	b := g.Const(2)
	g.MarkOutput(g.Binary(dataflow.OpAdd, a, b))
	tiny, _ := fabric.New(2, 0)
	if _, err := Synthesize(tiny, g, 8); err == nil {
		t.Error("undersized fabric accepted")
	}
	f, _ := fabric.New(64, 0)
	if _, err := Synthesize(f, g, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Synthesize(f, g, 64); err == nil {
		t.Error("width 64 accepted")
	}
	if _, err := Synthesize(f, nil, 8); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := CellsFor(nil, 8); err == nil {
		t.Error("CellsFor(nil) accepted")
	}
}

func TestCellsFor_Counts(t *testing.T) {
	g := dataflow.NewGraph()
	a := g.Const(1)
	b := g.Const(2)
	sum := g.Binary(dataflow.OpAdd, a, b)
	g.MarkOutput(g.Binary(dataflow.OpXor, sum, a))
	need, err := CellsFor(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := (2*8 - 1) + 8; need != want { // adder + xor, consts free
		t.Errorf("CellsFor = %d, want %d", need, want)
	}
	f, err := fabric.New(need, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(f, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.CellsUsed != need {
		t.Errorf("used %d cells, estimated %d", res.CellsUsed, need)
	}
}

func TestReadOutput_Rejects(t *testing.T) {
	g := dataflow.NewGraph()
	g.MarkOutput(g.Const(1))
	f, _ := fabric.New(16, 0)
	res, err := Synthesize(f, g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Run(f); err != nil {
		t.Fatal(err)
	}
	if _, err := res.ReadOutput(f, 5); err == nil {
		t.Error("out-of-range output accepted")
	}
}
